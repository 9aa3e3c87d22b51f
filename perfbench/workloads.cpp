#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "cluster/report.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "serve/loadgen.hpp"
#include "serve/report.hpp"
#include "sim/run_cache.hpp"
#include "testbed/suite.hpp"
#include "tune/autotuner.hpp"

namespace perfbench {

namespace {

using namespace scc;

// --- Shapes of the workloads ------------------------------------------------

/// paper_sweep: a fixed slice of Table I. Capacity-regime ids (1-18) against
/// ids that fit the aggregate L2 at 24+ cores (19+); banded/FEM locality
/// against random, power-law and circuit, including the short-row #24/#25.
/// The large FEM ids are left out: their ELL/HYB runs cost 5-10x a median op.
constexpr int kSweepIds[] = {9, 12, 13, 14, 15, 17, 21, 22, 24, 25, 26, 30};
constexpr int kSweepCores[] = {8, 24, 48};
struct SweepVariant {
  sim::StorageFormat format;
  sim::Reordering reorder;
};
constexpr SweepVariant kSweepVariants[] = {
    {sim::StorageFormat::kCsr, sim::Reordering::kNone},
    {sim::StorageFormat::kCsr, sim::Reordering::kRcmRows},
    {sim::StorageFormat::kHyb, sim::Reordering::kNone},
};
constexpr double kPaperScale = 1.0;

/// serve_replay / cluster_faults: the serving layer's default mix
/// (26/27/28/30) at a reduced testbed scale, open-loop Poisson streams.
constexpr double kServeScale = 0.2;
constexpr int kServeStreams = 8;
constexpr int kServeRequests = 500;
/// Near the matrix-aware policy's knee at this scale: throughput saturates
/// at about 3300 requests per simulated second, p95 doubles between 2500
/// and 3000, and about one job in four batches several requests.
constexpr double kServeOfferedRps = 2900.0;

constexpr double kClusterScale = 0.1;
constexpr int kClusterStreams = 8;
constexpr int kClusterRequests = 200;
constexpr int kClusterChips = 8;
constexpr double kClusterOfferedRps = 20000.0;
constexpr double kClusterHedgeDelay = 0.001;

/// Smoke mode (the self-test): tiny matrices, short streams.
constexpr double kSmokeScale = 0.05;
constexpr int kSmokeRequests = 60;


/// The testbed's on-disk matrix cache goes to a directory of this set-up
/// alone, so set-up never reads a leftover cache.
std::string setup_dir(const Options& options, int setup_index) {
  const std::string dir =
      options.tmp_dir + "/" + options.workload + "-setup" + std::to_string(setup_index);
  std::filesystem::create_directories(dir);
  ::setenv("SCC_SPMV_CACHE_DIR", (dir + "/testbed").c_str(), 1);
  return dir;
}

void require(bool condition, const std::string& message) {
  if (!condition) throw std::runtime_error(message);
}

CacheCounters counters_of(const std::shared_ptr<sim::RunCache>& cache) {
  if (cache == nullptr) return {};
  return {cache->hits(), cache->hits() + cache->misses()};
}

std::uint64_t combine(std::uint64_t result_digest, const std::string& report) {
  common::Fnv1a h;
  h.u64(result_digest);
  h.text(report);
  return h.value();
}

/// Outcome of one serving stream, kept for the simulated metrics.
struct StreamSummary {
  std::vector<double> latency_ms;  ///< completed requests
  int injected = 0;
  int completed = 0;
  int slo_met = 0;
  double delivered_nnz = 0.0;
  double makespan_seconds = 0.0;
};

void add_serving_sim_metrics(const std::vector<std::optional<StreamSummary>>& streams,
                             MetricTable& table) {
  std::vector<double> latencies;
  double injected = 0.0;
  double completed = 0.0;
  double slo_met = 0.0;
  double delivered_nnz = 0.0;
  double makespan = 0.0;
  for (const auto& stream : streams) {
    if (!stream) continue;
    latencies.insert(latencies.end(), stream->latency_ms.begin(), stream->latency_ms.end());
    injected += stream->injected;
    completed += stream->completed;
    slo_met += stream->slo_met;
    delivered_nnz += stream->delivered_nnz;
    makespan += stream->makespan_seconds;
  }
  const double mean_gflops = makespan > 0.0 ? 2.0 * delivered_nnz / makespan / 1e9 : 0.0;
  const auto n = std::to_string(latencies.size());
  table.add("sim_gflops_mean", mean_gflops, "GFLOPS", Clock::kSim,
            "delivered 2*nnz per simulated second over all streams");
  table.add("sim_latency_p50_ms", percentile(latencies, 50.0), "ms", Clock::kSim,
            "n=" + n + " completed requests");
  table.add("sim_latency_p95_ms", percentile(latencies, 95.0), "ms", Clock::kSim,
            "n=" + n + " completed requests");
  table.add("sim_slo_met_ratio", injected > 0.0 ? slo_met / injected : 0.0, "ratio",
            Clock::kSim, "SLO met / injected");
  table.add("sim_availability", injected > 0.0 ? completed / injected : 0.0, "ratio",
            Clock::kSim, "completed / injected");
}


// --- paper_sweep ------------------------------------------------------------

class PaperSweep final : public Workload {
 public:
  PaperSweep(const Options& options, int setup_index)
      : options_(options), scale_(workload_scale(options)) {
    setup_dir(options, setup_index);
    for (const int id : kSweepIds) {
      const auto start = SteadyClock::now();
      matrices_.push_back(testbed::build_entry(id, scale_, /*use_cache=*/false));
      build_entry_ms_.push_back(seconds_since(start) * 1e3);
    }
    // The slice is the paper's testbed; the seed draws each op's mapping
    // policy between the paper's two (Section IV-A), which moves the
    // simulated core set and hop distances but not the replayed work.
    std::mt19937_64 rng(mix_seed(options.seed, 0));
    for (std::size_t m = 0; m < matrices_.size(); ++m) {
      for (const int cores : kSweepCores) {
        for (const SweepVariant& variant : kSweepVariants) {
          const auto policy = (rng() & 1U) != 0 ? chip::MappingPolicy::kDistanceReduction
                                                : chip::MappingPolicy::kStandard;
          ops_.push_back(SweepOp{m, cores, variant, policy});
        }
      }
    }
    results_.resize(ops_.size());
  }

  std::size_t input_count() const override { return ops_.size(); }
  bool per_input_timing() const override { return true; }

  std::uint64_t run_op(std::size_t input, Tracer* tracer, long long op_id) override {
    const SweepOp& op = ops_[input];
    const auto& matrix = matrices_[op.matrix].matrix;
    sim::RunResult result;
    {
      ScopedSpan span(tracer, "sim.Engine::run", op_id);
      result = engine_.run(matrix, spec_of(op));
    }
    require(result.cores.size() == static_cast<std::size_t>(op.cores),
            "paper_sweep: core count mismatch");
    require(std::isfinite(result.gflops) && result.gflops > 0.0 && result.seconds > 0.0,
            "paper_sweep: non-positive simulated time");
    nnz_t replayed = 0;
    for (const auto& core : result.cores) replayed += core.trace.nnz;
    require(replayed == matrix.nnz(), "paper_sweep: replayed nnz != matrix nnz");
    if (!results_[input]) results_[input] = Summary{result.gflops, result.seconds};
    return digest(result);
  }

  InputWork work(std::size_t input) const override {
    return {static_cast<double>(matrices_[ops_[input].matrix].matrix.nnz()), 1.0};
  }

  void add_sim_metrics(MetricTable& table) const override {
    std::vector<double> gflops;
    std::vector<double> latency_ms;
    for (const auto& result : results_) {
      if (!result) continue;
      gflops.push_back(result->gflops);
      latency_ms.push_back(result->seconds * 1e3);
    }
    const auto n = std::to_string(gflops.size());
    table.add("sim_gflops_mean",
              gflops.empty() ? 0.0
                             : std::accumulate(gflops.begin(), gflops.end(), 0.0) /
                                   static_cast<double>(gflops.size()),
              "GFLOPS", Clock::kSim, "mean over n=" + n + " distinct runs (paper's metric)");
    table.add("sim_latency_p50_ms", percentile(latency_ms, 50.0), "ms", Clock::kSim,
              "simulated product time, n=" + n);
    table.add("sim_latency_p95_ms", percentile(latency_ms, 95.0), "ms", Clock::kSim,
              "simulated product time, n=" + n);
    table.add("sim_slo_met_ratio", 1.0, "ratio", Clock::kSim,
              "no SLO on a single product: 1 by definition");
    table.add("sim_availability", 1.0, "ratio", Clock::kSim,
              "no faults injected: every product completes");
  }

  std::vector<std::string> preconditions(const CacheCounters& loop_cache) const override {
    std::vector<std::string> failed;
    if (engine_.run_cache() != nullptr || loop_cache.lookups > 0) {
      failed.push_back("paper_sweep: a RunCache is attached, so ops are not cold runs");
    }
    return failed;
  }

  std::vector<std::string> post_checks(const std::vector<std::uint64_t>& digests) override {
    std::vector<std::string> failures;
    const std::size_t sampled = mix_seed(options_.seed, 1) % ops_.size();
    const SweepOp& op = ops_[sampled];
    const auto& matrix = matrices_[op.matrix].matrix;
    const std::string what = "paper_sweep op " + label(op);

    // A RunCache hit must equal the cold run.
    sim::Engine cached;
    cached.attach_run_cache(std::make_shared<sim::RunCache>(sim::RunCacheConfig{}));
    const auto cold = digest(cached.run(matrix, spec_of(op)));
    const auto hit = digest(cached.run(matrix, spec_of(op)));
    if (cached.run_cache()->hits() != 1) failures.push_back(what + ": second run missed the cache");
    if (cold != digests[sampled] || hit != digests[sampled]) {
      failures.push_back(what + ": RunCache hit differs from the cold run");
    }

    // The same op at 1 and N replay threads.
    for (const int threads : {1, parallel_replay_threads()}) {
      common::set_sim_threads(threads);
      if (digest(engine_.run(matrix, spec_of(op))) != digests[sampled]) {
        failures.push_back(what + ": output differs at " + std::to_string(threads) +
                           " replay threads");
      }
    }
    common::set_sim_threads(kReplayThreads);
    return failures;
  }

  CacheCounters cache_counters() const override { return {}; }

  std::string describe() const override {
    std::ostringstream out;
    out << "paper_sweep: " << ops_.size() << " distinct cold Engine::run ops ("
        << matrices_.size() << " Table-I matrices x cores {8,24,48} x {CSR, CSR+RCM rows, HYB}, seeded standard/distance-reduction "
           "mapping), scale "
        << scale_ << ", no RunCache";
    return out.str();
  }

 private:
  struct SweepOp {
    std::size_t matrix = 0;
    int cores = 1;
    SweepVariant variant;
    chip::MappingPolicy policy = chip::MappingPolicy::kStandard;
  };
  struct Summary {
    double gflops = 0.0;
    double seconds = 0.0;
  };

  static sim::RunSpec spec_of(const SweepOp& op) {
    sim::RunSpec spec;
    spec.ue_count = op.cores;
    spec.policy = op.policy;
    spec.format = op.variant.format;
    spec.reorder = op.variant.reorder;
    return spec;
  }

  std::string label(const SweepOp& op) const {
    return "#" + std::to_string(matrices_[op.matrix].id) + "/" + std::to_string(op.cores) +
           "c/" + chip::to_string(op.policy) + "/" + sim::to_string(op.variant.format) + "/" +
           sim::to_string(op.variant.reorder);
  }

  const Options& options_;
  double scale_;
  sim::Engine engine_;
  std::vector<testbed::SuiteEntry> matrices_;
  std::vector<SweepOp> ops_;
  std::vector<std::optional<Summary>> results_;
};

std::vector<int> default_mix() { return serve::WorkloadSpec{}.matrix_mix; }

// --- serve_replay -------------------------------------------------------------

class ServeReplay final : public Workload {
 public:
  ServeReplay(const Options& options, int setup_index)
      : options_(options), scale_(workload_scale(options)) {
    const std::string dir = setup_dir(options, setup_index);
    const int streams = options.smoke ? 2 : kServeStreams;
    for (int k = 0; k < streams; ++k) {
      specs_.push_back(
          serve_stream_spec(options, mix_seed(options.seed, 100 + static_cast<std::uint64_t>(k))));
      streams_.push_back(serve::generate_workload(specs_.back()));
    }
    // Warm pool A: build the mix in-process, price every stream once.
    sim::RunCacheConfig cache_config = pool_cache_config();
    {
      serve::MatrixPool warm(scale_, cache_config);
      for (const int id : default_mix()) {
        const auto start = SteadyClock::now();
        warm.entry(id);
        build_entry_ms_.push_back(seconds_since(start) * 1e3);
      }
      for (const auto& stream : streams_) serve::Simulator(config_, warm).run(stream);
      snapshot_ = dir + "/serve.runcache";
      require(warm.run_cache() != nullptr, "serve_replay: the pool has no RunCache");
      require(warm.run_cache()->save_snapshot(snapshot_), "serve_replay: snapshot save failed");
      warm_entries_ = warm.run_cache()->size();
    }
    // Pool B: load the snapshot as a new process would.
    cache_config.persist_path = snapshot_;
    pool_ = std::make_unique<serve::MatrixPool>(scale_, cache_config);
    require(pool_->run_cache() != nullptr && pool_->run_cache()->size() == warm_entries_,
            "serve_replay: snapshot round trip lost entries");
    for (const int id : default_mix()) {
      nnz_[id] = static_cast<double>(pool_->entry(id).matrix.nnz());
    }
    summaries_.resize(streams_.size());
  }

  std::size_t input_count() const override { return streams_.size(); }

  std::uint64_t run_op(std::size_t input, Tracer* tracer, long long op_id) override {
    serve::Simulator simulator(config_, *pool_);
    serve::ServeResult result;
    {
      ScopedSpan span(tracer, "serve.Simulator::run", op_id);
      result = simulator.run(streams_[input]);
    }
    std::string report;
    {
      ScopedSpan span(tracer, "serve.serve_report_json", op_id);
      const obs::Json json =
          serve::serve_report_json(specs_[input], config_, result, &simulator.metrics());
      ScopedSpan dump(tracer, "obs.Json::dump", op_id);
      report = json.dump();
    }
    const int injected = static_cast<int>(streams_[input].size());
    require(result.completed + result.rejected + result.deadline_expired == injected,
            "serve_replay: completed + rejected + dead-lettered != injected");
    require(!report.empty(), "serve_replay: empty report");
    if (!summaries_[input]) summaries_[input] = summarize(result, injected);
    return combine(digest(result), report);
  }

  InputWork work(std::size_t input) const override {
    return {summaries_[input] ? summaries_[input]->delivered_nnz : 0.0,
            static_cast<double>(streams_[input].size())};
  }

  void add_sim_metrics(MetricTable& table) const override {
    add_serving_sim_metrics(summaries_, table);
  }

  std::vector<std::string> preconditions(const CacheCounters& loop_cache) const override {
    if (loop_cache.lookups > 0 && loop_cache.hits == loop_cache.lookups) return {};
    return {"serve_replay: RunCache hit ratio in the timed loop is " +
            std::to_string(loop_cache.hits) + "/" + std::to_string(loop_cache.lookups) +
            ", not 1.0, so ops replay the engine"};
  }

  std::vector<std::string> post_checks(const std::vector<std::uint64_t>& digests) override {
    // A RunCache hit must equal the cold run: replay one stream on a pool
    // without memoization.
    std::vector<std::string> failures;
    const std::size_t sampled = mix_seed(options_.seed, 1) % streams_.size();
    auto cold_pool = serve::MatrixPool::without_run_cache(scale_);
    serve::Simulator simulator(config_, cold_pool);
    const auto result = simulator.run(streams_[sampled]);
    const std::string report =
        serve::serve_report_json(specs_[sampled], config_, result, &simulator.metrics()).dump();
    if (combine(digest(result), report) != digests[sampled]) {
      failures.push_back("serve_replay stream " + std::to_string(sampled) +
                         ": RunCache hits differ from the cold run");
    }
    return failures;
  }

  CacheCounters cache_counters() const override { return counters_of(pool_->run_cache()); }

  std::string describe() const override {
    std::ostringstream out;
    out << "serve_replay: " << streams_.size() << " streams x " << streams_.front().size()
        << " requests, Poisson " << kServeOfferedRps << " req/s (sim), mix 26/27/28/30, scale "
        << scale_ << ", matrix-aware, autotune off, verify off; RunCache " << warm_entries_
        << " entries through snapshot round trip";
    return out.str();
  }

 private:
  StreamSummary summarize(const serve::ServeResult& result, int injected) const {
    StreamSummary summary;
    summary.injected = injected;
    summary.completed = result.completed;
    summary.makespan_seconds = result.makespan_seconds;
    for (const auto& record : result.records) {
      if (record.rejected || record.deadline_expired) continue;
      summary.latency_ms.push_back(record.latency_seconds() * 1e3);
      summary.delivered_nnz += nnz_.at(record.request.matrix_id);
      if (record.slo_met()) ++summary.slo_met;
    }
    return summary;
  }

  const Options& options_;
  double scale_;
  serve::ServeConfig config_;
  std::vector<serve::WorkloadSpec> specs_;
  std::vector<std::vector<serve::Request>> streams_;
  std::string snapshot_;
  std::size_t warm_entries_ = 0;
  std::unique_ptr<serve::MatrixPool> pool_;
  std::map<int, double> nnz_;
  std::vector<std::optional<StreamSummary>> summaries_;
};

// --- cluster_faults -------------------------------------------------------------

class ClusterFaults final : public Workload {
 public:
  ClusterFaults(const Options& options, int setup_index)
      : options_(options), scale_(workload_scale(options)) {
    const std::string dir = setup_dir(options, setup_index);
    const int streams = options.smoke ? 2 : kClusterStreams;
    for (int k = 0; k < streams; ++k) {
      specs_.push_back(cluster_stream_spec(
          options, mix_seed(options.seed, 200 + static_cast<std::uint64_t>(k))));
      streams_.push_back(serve::generate_workload(specs_.back()));
      configs_.push_back(cluster_faults_config(
          mix_seed(options.seed, 300 + static_cast<std::uint64_t>(k)), stream_span(specs_.back())));
    }
    sim::RunCacheConfig cache_config = pool_cache_config();
    tune::TuningCacheConfig tuning_config;
    const std::string run_snapshot = dir + "/cluster.runcache";
    const std::string tuning_snapshot = dir + "/cluster.tuning";
    {
      serve::MatrixPool warm(scale_, cache_config);
      for (const int id : default_mix()) {
        const auto start = SteadyClock::now();
        warm.entry(id);
        build_entry_ms_.push_back(seconds_since(start) * 1e3);
      }
      // Explore the tuning grid for every mix matrix, then price each
      // stream once (healthy, cold and degraded timings).
      tune::Autotuner tuner(configs_.front().chip.engine, configs_.front().chip.tuning,
                            warm.tuning_cache(), warm.run_cache());
      for (const int id : default_mix()) tuner.decide(warm.entry(id).matrix, id);
      for (std::size_t k = 0; k < streams_.size(); ++k) {
        cluster::ClusterSimulator(configs_[k], warm).run(streams_[k]);
      }
      require(warm.run_cache() != nullptr, "cluster_faults: the pool has no RunCache");
      require(warm.run_cache()->save_snapshot(run_snapshot) &&
                  warm.tuning_cache()->save_snapshot(tuning_snapshot),
              "cluster_faults: snapshot save failed");
      warm_entries_ = warm.run_cache()->size();
      tuning_entries_ = warm.tuning_cache()->size();
    }
    cache_config.persist_path = run_snapshot;
    tuning_config.persist_path = tuning_snapshot;
    pool_ = std::make_unique<serve::MatrixPool>(scale_, cache_config);
    require(pool_->run_cache() != nullptr && pool_->run_cache()->size() == warm_entries_ &&
                pool_->tuning_cache(tuning_config)->size() == tuning_entries_,
            "cluster_faults: snapshot round trip lost entries");
    for (const int id : default_mix()) {
      nnz_[id] = static_cast<double>(pool_->entry(id).matrix.nnz());
    }
    summaries_.resize(streams_.size());
  }

  std::size_t input_count() const override { return streams_.size(); }

  std::uint64_t run_op(std::size_t input, Tracer* tracer, long long op_id) override {
    cluster::ClusterSimulator simulator(configs_[input], *pool_);
    cluster::ClusterResult result;
    {
      ScopedSpan span(tracer, "cluster.ClusterSimulator::run", op_id);
      result = simulator.run(streams_[input]);
    }
    std::string report;
    {
      ScopedSpan span(tracer, "cluster.cluster_report_json", op_id);
      const obs::Json json = cluster::cluster_report_json(specs_[input], configs_[input], result,
                                                          &simulator.metrics());
      ScopedSpan dump(tracer, "obs.Json::dump", op_id);
      report = json.dump();
    }
    const int injected = static_cast<int>(streams_[input].size());
    require(result.completed + result.rejected + result.dead_lettered == injected,
            "cluster_faults: completed + rejected + dead-lettered != injected");
    require(!report.empty(), "cluster_faults: empty report");
    if (!summaries_[input]) summaries_[input] = summarize(result, injected);
    return combine(digest(result), report);
  }

  InputWork work(std::size_t input) const override {
    return {summaries_[input] ? summaries_[input]->stream.delivered_nnz : 0.0,
            static_cast<double>(streams_[input].size())};
  }

  void add_sim_metrics(MetricTable& table) const override {
    std::vector<std::optional<StreamSummary>> streams;
    for (const auto& summary : summaries_) {
      streams.push_back(summary ? std::optional(summary->stream) : std::nullopt);
    }
    add_serving_sim_metrics(streams, table);
  }

  std::vector<std::string> preconditions(const CacheCounters&) const override {
    Activity total;
    for (const auto& summary : summaries_) {
      if (!summary) continue;
      total.hedges += summary->activity.hedges;
      total.retries += summary->activity.retries;
      total.failovers += summary->activity.failovers;
      total.restarts += summary->activity.restarts;
      total.quarantines += summary->activity.quarantines;
      total.cold_runs += summary->activity.cold_runs;
      total.tuning_hits += summary->activity.tuning_hits;
    }
    std::vector<std::string> failed;
    const auto need = [&](long long count, const char* what) {
      if (count <= 0) failed.push_back(std::string("cluster_faults: no ") + what);
    };
    need(total.hedges, "hedges fired");
    need(total.retries, "retries");
    need(total.failovers, "failovers");
    need(total.restarts, "chip restart");
    need(total.quarantines, "quarantine");
    need(total.cold_runs, "cold runs");
    need(total.tuning_hits, "TuningCache hits");
    return failed;
  }

  std::vector<std::string> post_checks(const std::vector<std::uint64_t>&) override { return {}; }

  CacheCounters cache_counters() const override { return counters_of(pool_->run_cache()); }

  std::string describe() const override {
    std::ostringstream out;
    out << "cluster_faults: " << streams_.size() << " streams x " << streams_.front().size()
        << " requests, Poisson " << kClusterOfferedRps << " req/s (sim), " << kClusterChips
        << " chips, mix 26/27/28/30, scale " << scale_
        << ", autotune on, verify=detect, hedge delay " << kClusterHedgeDelay * 1e3
        << " ms (sim); faults: crash+restart, tile kill, brownout, SDC, bad DRAM, job "
           "failures; RunCache "
        << warm_entries_ << " / TuningCache " << tuning_entries_
        << " entries through snapshot round trip";
    return out.str();
  }

 private:
  struct Activity {
    long long hedges = 0, retries = 0, failovers = 0, restarts = 0, quarantines = 0,
              cold_runs = 0, tuning_hits = 0;
  };
  struct Summary {
    StreamSummary stream;
    Activity activity;
  };

  Summary summarize(const cluster::ClusterResult& result, int injected) const {
    Summary summary;
    summary.stream.injected = injected;
    summary.stream.completed = result.completed;
    summary.stream.makespan_seconds = result.makespan_seconds;
    for (const auto& record : result.records) {
      if (record.outcome != cluster::Outcome::kCompleted) continue;
      summary.stream.latency_ms.push_back(record.latency_seconds() * 1e3);
      summary.stream.delivered_nnz += nnz_.at(record.request.matrix_id);
      if (record.slo_met()) ++summary.stream.slo_met;
    }
    summary.activity = Activity{result.hedges,      result.retries,   result.failovers,
                                result.restarts,    result.quarantines, result.cold_runs,
                                static_cast<long long>(result.tuning.cache_hits)};
    return summary;
  }

  const Options& options_;
  double scale_;
  std::vector<serve::WorkloadSpec> specs_;
  std::vector<std::vector<serve::Request>> streams_;
  std::vector<cluster::ClusterConfig> configs_;
  std::size_t warm_entries_ = 0;
  std::size_t tuning_entries_ = 0;
  std::unique_ptr<serve::MatrixPool> pool_;
  std::map<int, double> nnz_;
  std::vector<std::optional<Summary>> summaries_;
};

}  // namespace

sim::RunCacheConfig pool_cache_config() {
  sim::RunCacheConfig config;
  config.capacity = 4096;
  return config;
}

double paper_scale(const Options& options) { return options.smoke ? kSmokeScale : kPaperScale; }

double serve_scale(const Options& options) { return options.smoke ? kSmokeScale : kServeScale; }

double cluster_scale(const Options& options) {
  return options.smoke ? kSmokeScale : kClusterScale;
}

serve::WorkloadSpec serve_stream_spec(const Options& options, std::uint64_t seed) {
  serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.offered_rps = kServeOfferedRps;
  spec.request_count = options.smoke ? kSmokeRequests : kServeRequests;
  return spec;
}

serve::WorkloadSpec cluster_stream_spec(const Options& options, std::uint64_t seed) {
  serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.offered_rps = kClusterOfferedRps;
  spec.request_count = options.smoke ? kSmokeRequests : kClusterRequests;
  return spec;
}

cluster::ClusterConfig cluster_faults_config(std::uint64_t fault_seed, double span) {
  cluster::ClusterConfig config;
  config.chip_count = kClusterChips;
  config.chip.autotune = true;
  config.chip.verify = integrity::VerifyMode::kDetect;
  config.hedge.delay_seconds = kClusterHedgeDelay;
  config.placement.replicas = 2;
  config.detector.heartbeat_seconds = span / 50.0;
  config.quarantine_threshold = 3;
  cluster::FaultPlan& faults = config.faults;
  faults.seed = fault_seed;
  faults.chip_crashes = {{2, span * 0.3}};
  faults.restart_downtime_seconds = span * 0.15;
  faults.tile_kills = {{0, 5, span * 0.25}};
  faults.brownouts = {{1, 0, span * 0.1, span * 0.4, 2.0}};
  faults.sdc_rate = 0.01;
  // Enough transient failures that retried requests sit well above 5% of
  // the stream, so p95 lies inside the retry mode, not on its edge.
  faults.job_failure_rate = 0.05;
  faults.bad_dram = {{3, 0.5, 0.9}};
  return config;
}


double workload_scale(const Options& options) {
  if (options.workload == "paper_sweep") return paper_scale(options);
  if (options.workload == "serve_replay") return serve_scale(options);
  // Most cluster requests run unqueued, so their median latency is a plain
  // product time. Drawing the instance size from the seed (within 2% of the
  // nominal scale) makes every simulated figure depend on the inputs.
  const double u = static_cast<double>(mix_seed(options.seed, 400) >> 11) * 0x1p-53;
  return cluster_scale(options) * (0.98 + 0.04 * u);
}

std::unique_ptr<Workload> make_workload(const Options& options, int setup_index) {
  if (options.workload == "paper_sweep") return std::make_unique<PaperSweep>(options, setup_index);
  if (options.workload == "serve_replay") {
    return std::make_unique<ServeReplay>(options, setup_index);
  }
  if (options.workload == "cluster_faults") {
    return std::make_unique<ClusterFaults>(options, setup_index);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

LoopResult run_loop(Workload& workload, double seconds, std::size_t min_ops,
                    std::size_t max_ops, Tracer* tracer, long long first_op_id,
                    DigestBook& digests) {
  LoopResult loop;
  const CacheCounters cache_before = workload.cache_counters();
  const auto start = SteadyClock::now();
  std::set<std::size_t> seen;
  std::size_t op_index = 0;
  while (op_index < max_ops &&
         (seconds_since(start) < seconds || seen.size() < workload.input_count() ||
          op_index < min_ops)) {
    const std::size_t input = op_index % workload.input_count();
    const long long op_id = first_op_id + static_cast<long long>(op_index);
    bool ok = false;
    std::string error;
    const auto op_start = SteadyClock::now();
    try {
      ScopedSpan span(tracer, "op", op_id);
      const std::uint64_t result = workload.run_op(input, tracer, op_id);
      if (!digests.observed[input]) digests.observed[input] = result;
      if (!digests.expected[input]) digests.expected[input] = result;
      ok = *digests.expected[input] == result;
      if (!ok) error = "digest mismatch on input " + std::to_string(input);
    } catch (const std::exception& e) {
      error = e.what();
    }
    loop.ops.push_back(OpSample{input, seconds_since(op_start) * 1e3, ok});
    ++loop.attempted;
    if (!ok) {
      ++loop.failed;
      if (loop.errors.size() < 5 &&
          std::find(loop.errors.begin(), loop.errors.end(), error) == loop.errors.end()) {
        loop.errors.push_back(error);
      }
    }
    seen.insert(input);
    ++op_index;
  }
  const CacheCounters cache_after = workload.cache_counters();
  loop.cache = {cache_after.hits - cache_before.hits,
                cache_after.lookups - cache_before.lookups};
  return loop;
}

OpStats op_stats(const Workload& workload, const LoopResult& loop) {
  std::map<std::size_t, std::vector<double>> ok_ms;
  std::map<std::size_t, std::vector<double>> all_ms;
  std::vector<double> every_ms;
  for (const OpSample& op : loop.ops) {
    all_ms[op.input].push_back(op.ms);
    every_ms.push_back(op.ms);
    if (op.ok) ok_ms[op.input].push_back(op.ms);
  }
  std::vector<double> timed = every_ms;
  if (workload.per_input_timing()) {
    timed.clear();
    for (auto& [input, samples] : all_ms) timed.push_back(median(samples));
  }
  OpStats stats;
  stats.p50_ms = percentile(timed, 50.0);
  stats.p90_ms = percentile(timed, 90.0);
  InputWork pass;
  double pass_seconds = 0.0;
  for (auto& [input, samples] : ok_ms) {
    const InputWork work = workload.work(input);
    pass.nnz += work.nnz;
    pass.requests += work.requests;
    pass_seconds += median(samples) * 1e-3;
  }
  if (pass_seconds > 0.0) {
    stats.nnz_per_s = pass.nnz / pass_seconds;
    stats.requests_per_s = pass.requests / pass_seconds;
  }
  return stats;
}

}  // namespace perfbench
