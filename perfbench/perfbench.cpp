#include "perfbench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "common/hash.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int parallel_replay_threads() {
  return std::max(2, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
}

// --- Tracer ----------------------------------------------------------------

int Tracer::begin(const std::string& name, long long op) {
  Span span;
  span.name = name;
  span.op = op;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = std::chrono::duration<double, std::micro>(SteadyClock::now() - epoch_).count();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(SteadyClock::now() - epoch_).count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(3) << std::fixed;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"op\":" << span.op << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"clock\":\"host\",\"start_us\":"
        << span.start_us << ",\"end_us\":" << span.end_us << "}\n";
  }
  return static_cast<bool>(out);
}

// --- Digests ---------------------------------------------------------------

namespace {

void add(scc::common::Fnv1a& h, const scc::cache::CacheStats& stats) {
  h.u64(stats.read_hits);
  h.u64(stats.read_misses);
  h.u64(stats.write_hits);
  h.u64(stats.write_misses);
  h.u64(stats.evictions);
  h.u64(stats.dirty_writebacks);
}

void add(scc::common::Fnv1a& h, const scc::serve::LatencySummary& summary) {
  h.u64(summary.count);
  h.f64(summary.mean);
  h.f64(summary.p50);
  h.f64(summary.p95);
  h.f64(summary.p99);
}

void add(scc::common::Fnv1a& h, const scc::serve::TuningSummary& tuning) {
  h.boolean(tuning.enabled);
  h.u64(tuning.cache_hits);
  h.u64(tuning.predicted);
  h.u64(tuning.explored);
  h.u64(tuning.explore_runs);
  h.f64(tuning.explore_seconds);
  h.u64(tuning.decisions.size());
  for (const auto& decision : tuning.decisions) {
    h.u64(decision.fingerprint);
    h.i64(decision.matrix_id);
    h.u64(static_cast<std::uint64_t>(decision.decision.choice.format));
    h.u64(static_cast<std::uint64_t>(decision.decision.choice.reorder));
    h.i64(decision.decision.choice.ue_count);
    h.f64(decision.decision.modeled_seconds);
  }
}

}  // namespace

std::uint64_t digest(const scc::sim::RunResult& result) {
  scc::common::Fnv1a h;
  h.u64(result.cores.size());
  for (const auto& core : result.cores) {
    h.i64(core.core);
    h.i64(core.hops);
    add(h, core.trace.l1);
    add(h, core.trace.l2);
    h.u64(core.trace.memory_accesses);
    h.u64(core.trace.l2_hit_accesses);
    h.u64(core.trace.memory_read_bytes);
    h.u64(core.trace.memory_write_bytes);
    h.u64(core.trace.tlb_misses);
    h.i64(core.trace.rows);
    h.i64(core.trace.nnz);
    h.f64(core.compute_seconds);
    h.f64(core.l2_hit_seconds);
    h.f64(core.stall_seconds);
    h.f64(core.tlb_seconds);
    h.f64(core.isolated_seconds);
  }
  h.f64(result.seconds);
  h.f64(result.gflops);
  for (const auto bytes : result.mc_bytes) h.u64(bytes);
  for (const double seconds : result.mc_seconds) h.f64(seconds);
  h.boolean(result.bandwidth_bound);
  h.u64(result.mesh.total_link_bytes);
  h.u64(result.mesh.max_link_bytes);
  for (const auto& link : result.mesh.hot_links) h.u64(link.bytes);
  h.i64(result.dead_count);
  h.u64(result.reshipped_bytes);
  h.f64(result.recovery_seconds);
  h.u64(static_cast<std::uint64_t>(result.verify));
  h.u64(static_cast<std::uint64_t>(result.outcome));
  h.boolean(result.sdc_injected);
  h.boolean(result.sdc_significant);
  h.i64(result.verify_attempts);
  h.f64(result.verify_seconds);
  h.f64(result.recompute_seconds);
  h.f64(result.verify_residual);
  h.f64(result.verify_tolerance);
  return h.value();
}

std::uint64_t digest(const scc::serve::ServeResult& result) {
  scc::common::Fnv1a h;
  h.u64(result.records.size());
  for (const auto& record : result.records) {
    h.i64(record.request.id);
    h.boolean(record.rejected);
    h.boolean(record.deadline_expired);
    h.i64(record.job_id);
    h.f64(record.dispatch_seconds);
    h.f64(record.completion_seconds);
  }
  h.u64(result.jobs.size());
  for (const auto& job : result.jobs) {
    h.i64(job.id);
    h.i64(job.matrix_id);
    h.i64(job.request_count);
    h.array(std::span<const int>(job.cores));
    h.f64(job.dispatch_seconds);
    h.f64(job.completion_seconds);
    h.f64(job.load_seconds);
    h.f64(job.product_seconds);
    h.f64(job.service_seconds);
    h.f64(job.beta);
    h.u64(static_cast<std::uint64_t>(job.sdc_outcome));
    h.i64(job.verify_attempts);
  }
  h.f64(result.makespan_seconds);
  h.f64(result.throughput_rps);
  h.i64(result.completed);
  h.i64(result.rejected);
  h.i64(result.deadline_expired);
  h.i64(result.slo_violations);
  h.i64(result.max_queue_depth);
  for (const double seconds : result.mc_busy_seconds) h.f64(seconds);
  add(h, result.latency_total);
  add(h, result.latency_interactive);
  add(h, result.latency_batch);
  add(h, result.tuning);
  h.i64(result.sdc_corrupted);
  h.i64(result.sdc_retries);
  h.i64(result.sdc_corrected);
  h.i64(result.sdc_unrecoverable);
  h.i64(result.sdc_escapes);
  return h.value();
}

std::uint64_t digest(const scc::cluster::ClusterResult& result) {
  scc::common::Fnv1a h;
  h.u64(result.records.size());
  for (const auto& record : result.records) {
    h.i64(record.request.id);
    h.u64(static_cast<std::uint64_t>(record.outcome));
    h.i64(record.chip);
    h.i64(record.attempts);
    h.i64(record.failovers);
    h.boolean(record.hedged);
    h.boolean(record.hedge_won);
    h.boolean(record.reshipped);
    h.boolean(record.cold);
    h.text(record.dead_letter_reason);
    h.f64(record.dispatch_seconds);
    h.f64(record.completion_seconds);
  }
  h.u64(result.chips.size());
  for (const auto& chip : result.chips) {
    h.i64(chip.chip);
    h.u64(static_cast<std::uint64_t>(chip.state));
    h.boolean(chip.crashed);
    h.i64(chip.jobs_completed);
    h.i64(chip.jobs_failed);
    h.i64(chip.retired_cores);
    h.i64(chip.requests_completed);
    h.i64(chip.breaker_trips);
    h.i64(chip.restarts);
    h.i64(chip.reships);
    h.i64(chip.cold_runs);
    h.f64(chip.reship_bytes);
    h.array(std::span<const int>(chip.placement));
    h.i64(chip.sdc_detected);
    h.i64(chip.sdc_corrected);
    h.i64(chip.sdc_unrecoverable);
    h.i64(chip.sdc_escapes);
    h.boolean(chip.quarantined);
  }
  h.u64(result.log.size());
  for (const auto& event : result.log) h.text(scc::cluster::describe(event));
  h.f64(result.makespan_seconds);
  h.f64(result.throughput_rps);
  h.f64(result.availability);
  for (const int count :
       {result.completed, result.rejected, result.dead_lettered, result.deadline_expired,
        result.retries, result.failovers, result.hedges, result.hedge_wins, result.chip_crashes,
        result.tile_kills, result.brownouts, result.breaker_trips, result.restarts,
        result.rejoins, result.reships, result.cold_runs, result.domain_outages,
        result.sdc_corrupted, result.sdc_detected, result.sdc_corrected,
        result.sdc_unrecoverable, result.sdc_escapes, result.quarantines}) {
    h.i64(count);
  }
  h.f64(result.reship_bytes);
  add(h, result.latency_total);
  add(h, result.latency_interactive);
  add(h, result.latency_batch);
  add(h, result.tuning);
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

// --- Metrics ---------------------------------------------------------------

const char* to_string(Clock clock) {
  switch (clock) {
    case Clock::kHost: return "host";
    case Clock::kSim: return "sim";
    case Clock::kCount: return "count";
  }
  return "?";
}

void MetricTable::add(std::string name, double value, std::string unit, Clock clock,
                      std::string note) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), clock, std::move(note)});
}

void MetricTable::drop(std::string name, std::string reason) {
  dropped_.emplace_back(std::move(name), std::move(reason));
}

void MetricTable::print(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  for (const Metric& metric : metrics_) {
    std::printf("  [%-5s] %-36s %14.6g %-8s %s\n", to_string(metric.clock), metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());
  }
  for (const auto& [name, reason] : dropped_) {
    std::printf("  [dropped] %-33s %s\n", name.c_str(), reason.c_str());
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
