// Shared pieces of the benchmark program: options, host timing, the span
// tracer of traced runs, output digests for the correctness gate, and the
// labelled metric table every run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/simulator.hpp"
#include "serve/simulator.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Seed used to record golden digests (see golden.json).
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a handful of ops: the self-test's mode.
  bool smoke = false;
  /// Per-run scratch directory (testbed cache, snapshots); must exist.
  std::string tmp_dir;
  std::string golden_path;  ///< golden digests to check (empty: none)
  std::string record_golden_path;  ///< write this run's digests here instead
  std::string spans_path;   ///< traced runs write their spans here at exit
};

/// Engine replay threads of every workload (SCC_SIM_THREADS): the
/// end-to-end figures track single-thread replay cost.
inline constexpr int kReplayThreads = 1;

/// The "N threads" of the 1-vs-N replay checks: min(4, nproc), at least 2.
int parallel_replay_threads();

/// splitmix64 step: derives independent sub-seeds from the benchmark seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------------------
// Tracing: one span per public call the benchmark makes, kept in memory and
// written once at exit. Spans of one op share its op id; parent is the
// enclosing span (-1 at top level).

struct Span {
  std::string name;
  long long op = -1;
  int id = 0;
  int parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  Tracer() : epoch_(SteadyClock::now()) {}

  int begin(const std::string& name, long long op);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  bool write_jsonl(const std::string& path) const;

 private:
  SteadyClock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, long long op)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Digests of simulated outputs (FNV-1a over every simulated field).

std::uint64_t digest(const scc::sim::RunResult& result);
std::uint64_t digest(const scc::serve::ServeResult& result);
std::uint64_t digest(const scc::cluster::ClusterResult& result);
std::string hex(std::uint64_t value);

// ---------------------------------------------------------------------------
// Metrics. Every metric carries the clock it was measured on: host wall time
// (what the simulator costs its users), simulated time or simulated counts
// (what the modelled SCC would do), or exact host-side counts (cache hits).

enum class Clock { kHost, kSim, kCount };

const char* to_string(Clock clock);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kHost;
  std::string note;
};

class MetricTable {
 public:
  void add(std::string name, double value, std::string unit, Clock clock,
           std::string note = "");
  /// Record a metric the design names but this benchmark does not report.
  void drop(std::string name, std::string reason);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Human-readable lines, each labelled with its clock.
  void print(const std::string& title) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> dropped_;
};

double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

}  // namespace perfbench
