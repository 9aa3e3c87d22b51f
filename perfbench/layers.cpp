#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>

#include "cluster/report.hpp"
#include "common/parallel.hpp"
#include "integrity/integrity.hpp"
#include "serve/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/spmv_trace.hpp"
#include "sparse/partition.hpp"
#include "sparse/reorder.hpp"
#include "testbed/suite.hpp"
#include "tune/autotuner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace scc;

/// Engine probe matrices: the ROADMAP's cold-run reference points.
constexpr int kEngineIds[] = {1, 14, 26};
constexpr int kBandedId = 22;
constexpr int kRandomId = 14;
constexpr int kProbeCores = 48;

class Probe {
 public:
  Probe(const Options& options, Tracer& tracer, long long first_op_id)
      : options_(options), tracer_(tracer), op_(first_op_id), reps_(options.smoke ? 1 : 3) {}

  /// Median host seconds of `reps` timed calls of `body`, each in a span.
  double time(const std::string& span, int reps, const std::function<void()>& body) {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      ScopedSpan scoped(&tracer_, span, op_);
      const auto start = SteadyClock::now();
      body();
      samples.push_back(seconds_since(start));
    }
    return median(samples);
  }
  double time(const std::string& span, const std::function<void()>& body) {
    return time(span, reps_, body);
  }

  /// Start a new probe op (spans of one probe share its id).
  void next_op() { ++op_; }
  int reps() const { return reps_; }
  const Options& options() const { return options_; }

 private:
  const Options& options_;
  Tracer& tracer_;
  long long op_;
  int reps_;
};

// --- cache + sim ---------------------------------------------------------------

void probe_cache(Probe& probe, const testbed::SuiteEntry& banded,
                 const testbed::SuiteEntry& random, MetricTable& table) {
  struct Config {
    const char* name;
    bool l2;
    bool tlb;
  };
  constexpr Config kConfigs[] = {{"l1", false, false}, {"l1l2", true, false}, {"l1l2tlb", true, true}};
  for (const Config& config : kConfigs) {
    for (const auto* entry : {&banded, &random}) {
      const auto blocks = sparse::partition_rows_balanced_nnz(entry->matrix, 4);
      std::uint64_t references = 0;
      const double seconds = probe.time("sim.run_spmv_trace", [&] {
        cache::HierarchyConfig hierarchy_config;
        hierarchy_config.l2_enabled = config.l2;
        cache::Hierarchy hierarchy(hierarchy_config);
        cache::Tlb tlb;
        const auto trace = sim::run_spmv_trace(entry->matrix, blocks.front(), sim::SpmvVariant::kCsr,
                                               hierarchy, config.tlb ? &tlb : nullptr);
        references = trace.l1.accesses();
      });
      probe.next_op();
      table.add(std::string("cache.ns_per_ref.") + config.name + "." +
                    (entry == &banded ? "banded" : "random"),
                seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(references, 1)), "ns",
                Clock::kHost, std::string("#") + std::to_string(entry->id) + " row block of " +
                                  std::to_string(blocks.front().nnz) + " nnz");
    }
  }
}

void probe_engine(Probe& probe, const std::vector<testbed::SuiteEntry>& engine_matrices,
                  MetricTable& table) {
  sim::Engine engine;
  sim::RunSpec spec;
  spec.ue_count = kProbeCores;
  std::uint64_t l1_misses = 0, l1_accesses = 0, l2_misses = 0, l2_accesses = 0, tlb = 0;
  double nnz = 0.0, bytes = 0.0;
  const testbed::SuiteEntry* random = nullptr;
  for (const auto& entry : engine_matrices) {
    sim::RunResult result;
    const double seconds =
        probe.time("sim.Engine::run", [&] { result = engine.run(entry.matrix, spec); });
    probe.next_op();
    table.add("sim.engine_cold_ms." + std::to_string(entry.id), seconds * 1e3, "ms", Clock::kHost,
              "cold run, 48 cores, " + std::to_string(common::sim_thread_count()) +
                  " replay threads");
    for (const auto& core : result.cores) {
      l1_misses += core.trace.l1.misses();
      l1_accesses += core.trace.l1.accesses();
      l2_misses += core.trace.l2.misses();
      l2_accesses += core.trace.l2.accesses();
      tlb += core.trace.tlb_misses;
      nnz += static_cast<double>(core.trace.nnz);
      bytes += static_cast<double>(core.trace.memory_read_bytes + core.trace.memory_write_bytes);
    }
    if (entry.id == kRandomId) random = &entry;
  }
  const std::string over = "over the engine_cold runs";
  table.add("cache.l1_miss_ratio", static_cast<double>(l1_misses) / static_cast<double>(l1_accesses),
            "ratio", Clock::kSim, over);
  table.add("cache.l2_miss_ratio", static_cast<double>(l2_misses) / static_cast<double>(l2_accesses),
            "ratio", Clock::kSim, over);
  table.add("cache.tlb_misses_per_knnz", static_cast<double>(tlb) / nnz * 1e3, "count", Clock::kSim,
            over);
  table.add("sim.mem_bytes_per_nnz", bytes / nnz, "B", Clock::kSim, over);

  // Replay throughput at 1 and N host threads (same #14 cold run).
  const double matrix_nnz = static_cast<double>(random->matrix.nnz());
  const int threads = common::sim_thread_count();
  const int n_threads = parallel_replay_threads();
  common::set_sim_threads(1);
  const double t1 = probe.time("sim.Engine::run", [&] { engine.run(random->matrix, spec); });
  probe.next_op();
  common::set_sim_threads(n_threads);
  const double tn = probe.time("sim.Engine::run", [&] { engine.run(random->matrix, spec); });
  probe.next_op();
  common::set_sim_threads(threads);
  table.add("sim.replay_mnnz_per_s.t1", matrix_nnz / t1 / 1e6, "Mnnz/s", Clock::kHost,
            "#14, 48 cores, 1 thread");
  table.add("sim.replay_mnnz_per_s.tN", matrix_nnz / tn / 1e6, "Mnnz/s", Clock::kHost,
            "#14, 48 cores, N=" + std::to_string(n_threads) + " threads");
  table.add("sim.replay_parallel_eff", t1 / tn / n_threads, "ratio", Clock::kHost,
            "speed-up / N");
}

void probe_run_cache(Probe& probe, const testbed::SuiteEntry& small, MetricTable& table) {
  sim::RunSpec spec;
  spec.ue_count = kProbeCores;
  sim::Engine engine;
  engine.attach_run_cache(std::make_shared<sim::RunCache>(sim::RunCacheConfig{}));
  const sim::RunResult result = engine.run(small.matrix, spec);  // miss + insert
  const int hits = probe.options().smoke ? 10 : 50;
  const double hit_seconds = probe.time("sim.Engine::run", [&] {
    for (int i = 0; i < hits; ++i) engine.run(small.matrix, spec);
  });
  probe.next_op();
  table.add("sim.engine_hit_us", hit_seconds / hits * 1e6, "us", Clock::kHost,
            "#26, 48 cores, warm RunCache");

  // Synthetic keys around one real 48-core RunResult.
  const auto key = [](std::size_t i) {
    return sim::RunKey{0x5eed0000u + i, 0xabcdef00u ^ (i * 0x9e3779b97f4a7c15ULL)};
  };
  const std::size_t entries = probe.options().smoke ? 64 : 1000;
  sim::RunCacheConfig config;
  config.capacity = 4096;
  sim::RunCache cache(config);
  const double insert_seconds = probe.time("sim.RunCache::insert", 1, [&] {
    for (std::size_t i = 0; i < entries; ++i) cache.insert(key(i), result);
  });
  probe.next_op();
  table.add("sim.run_cache.insert_us", insert_seconds / static_cast<double>(entries) * 1e6, "us",
            Clock::kHost, "fresh cache, 48-core RunResult");

  // Time lookups of keys that are resident (CLOCK may have evicted some
  // of them from a full shard).
  std::vector<sim::RunKey> resident;
  for (std::size_t i = 0; i < entries; ++i) {
    if (cache.lookup(key(i))) resident.push_back(key(i));
  }
  if (resident.empty()) throw std::runtime_error("run cache probe: nothing resident");
  const int lookups = probe.options().smoke ? 100 : 5000;
  const double lookup_seconds = probe.time("sim.RunCache::lookup", [&] {
    for (int i = 0; i < lookups; ++i) {
      (void)cache.lookup(resident[static_cast<std::size_t>(i) % resident.size()]);
    }
  });
  probe.next_op();
  table.add("sim.run_cache.lookup_ns", lookup_seconds / lookups * 1e9, "ns", Clock::kHost,
            "hit, deep copy of a 48-core RunResult");

  const std::string path = probe.options().tmp_dir + "/probe.runcache";
  const double save_seconds = probe.time("sim.RunCache::save_snapshot", [&] {
    if (!cache.save_snapshot(path)) throw std::runtime_error("run cache probe: save failed");
  });
  probe.next_op();
  const double megabytes = static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  const double load_seconds = probe.time("sim.RunCache::load_snapshot", [&] {
    sim::RunCache loaded(config);
    if (!loaded.load_snapshot(path) || loaded.size() != cache.size()) {
      throw std::runtime_error("run cache probe: load failed");
    }
  });
  probe.next_op();
  std::filesystem::remove(path);
  const std::string note = std::to_string(entries) + " entries";
  table.add("sim.run_cache.snapshot_save_MBps", megabytes / save_seconds, "MB/s", Clock::kHost,
            note);
  table.add("sim.run_cache.snapshot_load_MBps", megabytes / load_seconds, "MB/s", Clock::kHost,
            note);
}

// --- sparse ----------------------------------------------------------------------

void probe_sparse(Probe& probe, const std::vector<testbed::SuiteEntry>& engine_matrices,
                  serve::MatrixPool& cluster_pool, MetricTable& table) {
  const auto mix = serve::WorkloadSpec{}.matrix_mix;
  double fingerprint_seconds = 0.0;
  for (const int id : mix) {
    const auto& matrix = cluster_pool.entry(id).matrix;
    fingerprint_seconds +=
        probe.time("sparse.CsrMatrix::fingerprint", 5, [&] { (void)matrix.fingerprint(); });
  }
  probe.next_op();
  table.add("sparse.fingerprint_ms", fingerprint_seconds / static_cast<double>(mix.size()) * 1e3,
            "ms", Clock::kHost, "mean over the cluster_faults mix");

  double rcm_seconds = 0.0;
  for (const auto& entry : engine_matrices) {
    rcm_seconds += probe.time("sparse.reverse_cuthill_mckee",
                              [&] { (void)sparse::reverse_cuthill_mckee(entry.matrix); });
  }
  probe.next_op();
  table.add("sparse.rcm_ms", rcm_seconds / static_cast<double>(engine_matrices.size()) * 1e3, "ms",
            Clock::kHost, "mean over the engine_cold matrices");

  const auto& random = *std::find_if(engine_matrices.begin(), engine_matrices.end(),
                                     [](const auto& e) { return e.id == kRandomId; });
  const double partition_seconds = probe.time("sparse.partition_rows_balanced_nnz", 9, [&] {
    (void)sparse::partition_rows_balanced_nnz(random.matrix, kProbeCores);
  });
  probe.next_op();
  table.add("sparse.partition_us", partition_seconds * 1e6, "us", Clock::kHost,
            "#14 into 48 blocks");
}

// --- serve ------------------------------------------------------------------------

std::string probe_serve(Probe& probe, MetricTable& table) {
  const Options& options = probe.options();
  serve::MatrixPool pool(serve_scale(options), pool_cache_config());
  const serve::WorkloadSpec spec = serve_stream_spec(options, mix_seed(options.seed, 100));
  const auto requests = serve::generate_workload(spec);
  serve::ServeConfig config;
  serve::Simulator(config, pool).run(requests);  // warm the RunCache

  serve::ServeResult result;
  std::unique_ptr<serve::Simulator> simulator;
  // Loop self time by differencing: each run is paired with a pricing pass
  // over its own job list, and the median is taken over the differences.
  std::vector<double> pricing;
  std::vector<double> loop;
  for (int r = 0; r < probe.reps(); ++r) {
    const double run_seconds = probe.time("serve.Simulator::run", 1, [&] {
      simulator = std::make_unique<serve::Simulator>(config, pool);
      result = simulator->run(requests);
    });
    pricing.push_back(probe.time("serve.ServiceModel::timing", 1, [&] {
      serve::ServiceModel model(config.engine, pool, config.verify);
      for (const auto& job : result.jobs) (void)model.timing(job.matrix_id, job.cores);
    }));
    loop.push_back(run_seconds - pricing.back());
    probe.next_op();
  }
  std::string report;
  const double report_seconds = probe.time("serve.serve_report_json", [&] {
    report = serve::serve_report_json(spec, config, result, &simulator->metrics()).dump();
  });
  probe.next_op();
  const double jobs = static_cast<double>(std::max<std::size_t>(result.jobs.size(), 1));
  const double injected = static_cast<double>(requests.size());
  table.add("serve.pricing_us_per_job", median(pricing) / jobs * 1e6, "us", Clock::kHost,
            "fresh ServiceModel over the run's jobs");
  table.add("serve.loop_us_per_request", median(loop) / injected * 1e6, "us", Clock::kHost,
            "Simulator::run minus its pricing (can read below 0 within noise)");
  table.add("serve.report_ms", report_seconds * 1e3, "ms", Clock::kHost, "report + dump");
  table.add("serve.requests_per_job", static_cast<double>(result.completed) / jobs, "ratio",
            Clock::kSim, "batching yield");
  return report;
}

// --- cluster + tune ---------------------------------------------------------------------

std::string probe_cluster(Probe& probe, serve::MatrixPool& pool, MetricTable& table) {
  const Options& options = probe.options();
  const serve::WorkloadSpec spec = cluster_stream_spec(options, mix_seed(options.seed, 200));
  const auto requests = serve::generate_workload(spec);
  const double injected = static_cast<double>(requests.size());

  // Fault-free loops, warm caches: 1 chip, 8 chips, 8 chips with hedging.
  struct Shape {
    const char* name;
    int chips;
    bool hedge;
  };
  for (const Shape& shape : {Shape{"1chip", 1, false}, Shape{"8chip", 8, false},
                             Shape{"8chip_hedge", 8, true}}) {
    cluster::ClusterConfig config;
    config.chip_count = shape.chips;
    config.hedge.enabled = shape.hedge;
    config.hedge.delay_seconds = cluster_faults_config(0, stream_span(spec)).hedge.delay_seconds;
    serve::WorkloadSpec shaped = spec;
    shaped.offered_rps = spec.offered_rps * shape.chips / 8.0;
    const auto stream = serve::generate_workload(shaped);
    cluster::ClusterSimulator(config, pool).run(stream);  // warm
    const double seconds = probe.time("cluster.ClusterSimulator::run", [&] {
      cluster::ClusterSimulator(config, pool).run(stream);
    });
    probe.next_op();
    table.add(std::string("cluster.us_per_request.") + shape.name, seconds / injected * 1e6, "us",
              Clock::kHost, "no faults, warm caches");
  }

  // The cluster_faults configuration: tuning explored first, as in set-up.
  const cluster::ClusterConfig config =
      cluster_faults_config(mix_seed(options.seed, 300), stream_span(spec));
  const auto mix = serve::WorkloadSpec{}.matrix_mix;
  {
    tune::Autotuner tuner(config.chip.engine, config.chip.tuning, pool.tuning_cache(),
                          pool.run_cache());
    for (const int id : mix) tuner.decide(pool.entry(id).matrix, id);
    double decide_seconds = 0.0;
    for (const int id : mix) {
      const auto& matrix = pool.entry(id).matrix;
      decide_seconds += probe.time("tune.Autotuner::decide", 9, [&] { tuner.decide(matrix, id); });
    }
    probe.next_op();
    table.add("tune.decide_hit_us", decide_seconds / static_cast<double>(mix.size()) * 1e6, "us",
              Clock::kHost, "pinned matrix, mean over the mix");
  }
  {
    const double explore_seconds = probe.time("tune.Autotuner::decide", 1, [&] {
      tune::Autotuner fresh(config.chip.engine, config.chip.tuning,
                            std::make_shared<tune::TuningCache>(),
                            std::make_shared<sim::RunCache>(sim::RunCacheConfig{}));
      fresh.decide(pool.entry(mix.front()).matrix, mix.front());
    });
    probe.next_op();
    table.add("tune.explore_ms", explore_seconds * 1e3, "ms", Clock::kHost,
              std::string("#") + std::to_string(mix.front()) + ", empty TuningCache and RunCache");
  }

  cluster::ClusterSimulator(config, pool).run(requests);  // warm cold/degraded timings
  cluster::ClusterSimulator simulator(config, pool);
  const cluster::ClusterResult result = simulator.run(requests);
  std::string report;
  const double report_seconds = probe.time("cluster.cluster_report_json", [&] {
    report = cluster::cluster_report_json(spec, config, result, &simulator.metrics()).dump();
  });
  probe.next_op();
  table.add("cluster.report_ms", report_seconds * 1e3, "ms", Clock::kHost,
            "cluster_faults report + dump");
  int jobs = 0;
  for (const auto& chip : result.chips) jobs += chip.jobs_completed + chip.jobs_failed;
  table.add("cluster.hedge_win_ratio",
            result.hedges > 0 ? static_cast<double>(result.hedge_wins) / result.hedges : 0.0,
            "ratio", Clock::kSim, std::to_string(result.hedges) + " hedges");
  table.add("cluster.retries_per_request", result.retries / injected, "ratio", Clock::kSim,
            "cluster_faults stream");
  table.add("cluster.cold_run_ratio", jobs > 0 ? static_cast<double>(result.cold_runs) / jobs : 0.0,
            "ratio", Clock::kSim, "cold runs / jobs");
  const auto& tuning = result.tuning;
  const double decisions =
      static_cast<double>(tuning.cache_hits + tuning.predicted + tuning.explored);
  table.add("tune.cache_hit_ratio",
            decisions > 0.0 ? static_cast<double>(tuning.cache_hits) / decisions : 0.0, "ratio",
            Clock::kCount, "TuningCache hits / decisions, cluster_faults stream");
  return report;
}

// --- integrity + obs ------------------------------------------------------------------------

void probe_integrity(Probe& probe, serve::MatrixPool& pool, MetricTable& table) {
  const auto mix = serve::WorkloadSpec{}.matrix_mix;
  double verify_seconds = 0.0;
  double checksum_seconds = 0.0;
  for (const int id : mix) {
    const auto& matrix = pool.entry(id).matrix;
    verify_seconds += probe.time("integrity.run_verification", [&] {
      (void)integrity::run_verification(matrix, integrity::VerifyMode::kDetect, nullptr, 0);
    });
    sparse::CsrMatrix copy = matrix;
    (void)copy.val_mutable();  // drops the cached checksum row
    checksum_seconds +=
        probe.time("sparse.CsrMatrix::checksum_row", 1, [&] { (void)copy.checksum_row(); });
  }
  probe.next_op();
  const double n = static_cast<double>(mix.size());
  table.add("integrity.run_verification_ms", verify_seconds / n * 1e3, "ms", Clock::kHost,
            "detect mode, mean over the mix");
  table.add("integrity.checksum_row_ms", checksum_seconds / n * 1e3, "ms", Clock::kHost,
            "first call, mean over the mix");
}

void probe_json(Probe& probe, const std::vector<std::string>& reports, MetricTable& table) {
  double megabytes = 0.0;
  double dump_seconds = 0.0;
  double parse_seconds = 0.0;
  for (const std::string& text : reports) {
    megabytes += static_cast<double>(text.size()) / 1e6;
    obs::Json json;
    parse_seconds += probe.time("obs.Json::parse", 9, [&] { json = obs::Json::parse(text); });
    dump_seconds += probe.time("obs.Json::dump", 9, [&] { (void)json.dump(); });
  }
  probe.next_op();
  table.add("obs.json_dump_MBps", megabytes / dump_seconds, "MB/s", Clock::kHost,
            "serve + cluster reports");
  table.add("obs.json_parse_MBps", megabytes / parse_seconds, "MB/s", Clock::kHost,
            "serve + cluster reports");
}

}  // namespace

void run_layer_probes(const Options& options, Tracer& tracer, long long first_op_id,
                      MetricTable& table) {
  Probe probe(options, tracer, first_op_id);
  const double scale = paper_scale(options);
  std::vector<testbed::SuiteEntry> engine_matrices;
  for (const int id : kEngineIds) {
    ScopedSpan span(&tracer, "testbed.build_entry", first_op_id);
    engine_matrices.push_back(testbed::build_entry(id, scale, /*use_cache=*/false));
  }
  const testbed::SuiteEntry banded = testbed::build_entry(kBandedId, scale, /*use_cache=*/false);
  probe.next_op();

  probe_cache(probe, banded, engine_matrices[1], table);
  probe_engine(probe, engine_matrices, table);
  probe_run_cache(probe, engine_matrices.back(), table);

  serve::MatrixPool cluster_pool(cluster_scale(options), pool_cache_config());
  probe_sparse(probe, engine_matrices, cluster_pool, table);
  const std::string serve_report = probe_serve(probe, table);
  const std::string cluster_report = probe_cluster(probe, cluster_pool, table);
  probe_integrity(probe, cluster_pool, table);
  probe_json(probe, {serve_report, cluster_report}, table);
}

}  // namespace perfbench
