// The three benchmark workloads and the closed loop that times them.
//
// A workload does all of its set-up in its constructor (so set-up can be
// timed and repeated), then replays a fixed list of distinct inputs: one
// input per op, one caller issuing ops back to back.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "serve/loadgen.hpp"
#include "sim/run_cache.hpp"

namespace perfbench {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_sweep", "serve_replay",
                                                 "cluster_faults"};
  return names;
}

/// Simulated work one op on an input represents.
struct InputWork {
  double nnz = 0.0;       ///< simulated nonzeros multiplied
  double requests = 0.0;  ///< simulated requests (products on paper_sweep)
};

/// RunCache lookups of a workload's engine(s), cumulative since set-up.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Distinct inputs; the i-th op replays input i % input_count().
  virtual std::size_t input_count() const = 0;
  /// True when op percentiles are taken over per-input medians (inputs of
  /// very different cost), so they do not depend on which inputs a partial
  /// pass happened to include.
  virtual bool per_input_timing() const { return false; }
  /// One op; returns the digest of its simulated output. Throws when the
  /// output breaks an invariant.
  virtual std::uint64_t run_op(std::size_t input, Tracer* tracer, long long op_id) = 0;
  virtual InputWork work(std::size_t input) const = 0;
  /// The end-to-end metrics measured on the simulated clock.
  virtual void add_sim_metrics(MetricTable& table) const = 0;
  /// Activity preconditions over the inputs run so far and the RunCache
  /// activity of the timed loop: named reasons for each one that fails.
  virtual std::vector<std::string> preconditions(const CacheCounters& loop_cache) const = 0;
  /// Invariants checked once after the timed loop against the digests the
  /// loop observed (one per input); returns failure messages.
  virtual std::vector<std::string> post_checks(const std::vector<std::uint64_t>& digests) = 0;
  virtual CacheCounters cache_counters() const = 0;
  /// Set-up summary for the log.
  virtual std::string describe() const = 0;
  /// Host ms of each in-process testbed matrix build during set-up.
  const std::vector<double>& build_entry_ms() const { return build_entry_ms_; }

 protected:
  std::vector<double> build_entry_ms_;
};

/// RunCache of every serving pool: large enough that no working set is
/// evicted, so repeated streams never replay the engine.
scc::sim::RunCacheConfig pool_cache_config();

/// Testbed scales and stream shapes of the workloads, shared with the layer
/// probes.
double paper_scale(const Options& options);
double serve_scale(const Options& options);
double cluster_scale(const Options& options);
scc::serve::WorkloadSpec serve_stream_spec(const Options& options, std::uint64_t seed);
scc::serve::WorkloadSpec cluster_stream_spec(const Options& options, std::uint64_t seed);
/// The cluster_faults configuration for a stream spanning `span_seconds`.
scc::cluster::ClusterConfig cluster_faults_config(std::uint64_t fault_seed,
                                                  double span_seconds);
/// Simulated seconds a stream of `spec` spans on average.
inline double stream_span(const scc::serve::WorkloadSpec& spec) {
  return static_cast<double>(spec.request_count) / spec.offered_rps;
}

/// Build (set up) a workload. `setup_index` keeps repeated set-ups apart on
/// disk, so none reads what an earlier one wrote.
std::unique_ptr<Workload> make_workload(const Options& options, int setup_index);

/// Testbed scale a workload runs at.
double workload_scale(const Options& options);

struct OpSample {
  std::size_t input = 0;
  double ms = 0.0;  ///< host time of the op
  bool ok = false;  ///< passed the correctness gate
};

struct LoopResult {
  std::vector<OpSample> ops;          ///< every op, in order
  long long attempted = 0;
  long long failed = 0;
  CacheCounters cache;                ///< RunCache activity inside the loop
  std::vector<std::string> errors;    ///< first few distinct failure messages
};

/// Output digests, one slot per input. `expected` is filled from the golden
/// file, or else by the first op on the input; `observed` always holds the
/// first digest an op on the input actually produced.
struct DigestBook {
  std::vector<std::optional<std::uint64_t>> expected;
  std::vector<std::optional<std::uint64_t>> observed;
};

/// Closed loop: ops back to back until `seconds` have passed and every input
/// ran at least once (and at least `min_ops` ops, at most `max_ops`). An op
/// whose digest differs from the expected one fails.
LoopResult run_loop(Workload& workload, double seconds, std::size_t min_ops,
                    std::size_t max_ops, Tracer* tracer, long long first_op_id,
                    DigestBook& digests);

/// Host-time summary of a loop. Percentiles are over every op, or over the
/// per-input medians when the workload asks; throughput is the simulated
/// work of one pass over the inputs divided by the sum of their per-input
/// median times (passing ops only), so neither depends on which inputs a
/// partial last pass happened to include, nor on a short stall.
struct OpStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double nnz_per_s = 0.0;
  double requests_per_s = 0.0;
};
OpStats op_stats(const Workload& workload, const LoopResult& loop);

}  // namespace perfbench
