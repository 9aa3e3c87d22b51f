// scc_perfbench: the repository benchmark program.
//
//   scc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --tmp DIR [--golden FILE] [--record-golden FILE]
//                 [--spans FILE] [--smoke]
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) print every per-layer metric. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md in this directory for the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "perfbench.hpp"
#include "workloads.hpp"

#ifndef SCC_PERFBENCH_BUILD_TYPE
#define SCC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Ops per untraced run at least, so that >= 10 lie beyond p90.
constexpr std::size_t kMinOps = 100;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: scc_perfbench --workload paper_sweep|serve_replay|"
               "cluster_faults --seed N --seconds S --trace 0|1 --tmp DIR [--golden FILE] "
               "[--record-golden FILE] [--spans FILE] [--smoke]\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + key + "'");
    values[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [key, value] : values) {
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "seconds") {
        options.seconds = std::stod(value);
      } else if (key == "trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (key == "tmp") {
        options.tmp_dir = value;
      } else if (key == "golden") {
        options.golden_path = value;
      } else if (key == "record-golden") {
        options.record_golden_path = value;
      } else if (key == "spans") {
        options.spans_path = value;
      } else {
        usage("unknown option --" + key);
      }
    }
  } catch (const std::logic_error&) {
    usage("unparsable number");
  }
  bool known = false;
  for (const auto& name : workload_names()) known = known || name == options.workload;
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  if (options.tmp_dir.empty()) usage("--tmp is required");
  if (!options.record_golden_path.empty() && (options.smoke || options.seed != kDefaultSeed)) {
    usage("--record-golden needs the default seed " + std::to_string(kDefaultSeed) +
          " and no --smoke");
  }
  return options;
}

/// Pin the library's environment knobs instead of inheriting them.
void pin_environment(const Options& options) {
  const auto set = [](const char* name, const std::string& value) {
    ::setenv(name, value.c_str(), 1);
  };
  set("SCC_RUN_CACHE", "1");
  set("SCC_SIM_THREADS", std::to_string(kReplayThreads));
  std::ostringstream scale;
  scale << workload_scale(options);
  set("SCC_TESTBED_SCALE", scale.str());
  scc::common::set_sim_threads(kReplayThreads);
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "g++";
#endif
  std::printf("machine: nproc=%u compiler=%s %s build=%s\n",
              std::thread::hardware_concurrency(), compiler, __VERSION__,
              SCC_PERFBENCH_BUILD_TYPE);
  std::printf("env: SCC_RUN_CACHE=1 SCC_SIM_THREADS=%d SCC_TESTBED_SCALE=%s\n", kReplayThreads,
              scale.str().c_str());
}

/// Digest slots, expected ones filled from the golden digests of the
/// default seed when they apply.
DigestBook digest_book(const Options& options, std::size_t inputs) {
  DigestBook book{std::vector<std::optional<std::uint64_t>>(inputs),
                  std::vector<std::optional<std::uint64_t>>(inputs)};
  auto& expected = book.expected;
  if (options.golden_path.empty() || options.smoke || options.seed != kDefaultSeed ||
      !options.record_golden_path.empty()) {
    return book;
  }
  std::ifstream in(options.golden_path);
  if (!in) throw std::runtime_error("cannot read golden digests " + options.golden_path);
  std::stringstream text;
  text << in.rdbuf();
  const scc::obs::Json golden = scc::obs::Json::parse(text.str());
  const scc::obs::Json* list = golden.find(options.workload);
  if (list == nullptr || list->size() != inputs) {
    throw std::runtime_error("golden digests for " + options.workload + " missing or of the " +
                             "wrong length");
  }
  for (std::size_t i = 0; i < inputs; ++i) {
    expected[i] = std::stoull(list->at(i).as_string(), nullptr, 16);
  }
  std::printf("correctness: checking against golden digests of seed %llu\n",
              static_cast<unsigned long long>(kDefaultSeed));
  return book;
}

void record_golden(const Options& options,
                   const std::vector<std::optional<std::uint64_t>>& digests) {
  scc::obs::Json golden = scc::obs::Json::object();
  if (std::ifstream in(options.record_golden_path); in) {
    std::stringstream text;
    text << in.rdbuf();
    golden = scc::obs::Json::parse(text.str());
  }
  scc::obs::Json list = scc::obs::Json::array();
  for (const auto& digest : digests) list.push_back(digest ? hex(*digest) : std::string());
  golden.set(options.workload, std::move(list));
  std::ofstream out(options.record_golden_path);
  out << golden.dump(1) << "\n";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(bool correct, long long attempted, long long failed,
                  const MetricTable& table) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : table.metrics()) {
    out << (first ? "" : ", ") << "\"" << metric.name << "\": {\"value\": "
        << json_number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

struct Checked {
  long long failed = 0;
  std::vector<std::string> messages;
};

/// Preconditions fail the run outright; post-check failures fail ops.
Checked check(Workload& workload, const DigestBook& book, const CacheCounters& loop_cache) {
  const auto unmet = workload.preconditions(loop_cache);
  if (!unmet.empty()) {
    for (const auto& reason : unmet) std::printf("precondition failed: %s\n", reason.c_str());
    std::fflush(stdout);
    std::exit(3);
  }
  std::vector<std::uint64_t> digests;
  for (const auto& digest : book.observed) digests.push_back(digest.value_or(0));
  Checked checked;
  checked.messages = workload.post_checks(digests);
  checked.failed = static_cast<long long>(checked.messages.size());
  return checked;
}

void report_failures(const LoopResult& loop, const Checked& checked) {
  for (const auto& error : loop.errors) std::printf("op failed: %s\n", error.c_str());
  for (const auto& error : checked.messages) std::printf("check failed: %s\n", error.c_str());
}

void print_span_summary(const Tracer& tracer) {
  struct Totals {
    long long count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::vector<double> child_us(tracer.spans().size(), 0.0);
  for (const Span& span : tracer.spans()) {
    if (span.parent >= 0) child_us[static_cast<std::size_t>(span.parent)] += span.end_us - span.start_us;
  }
  std::map<std::string, Totals> totals;
  for (const Span& span : tracer.spans()) {
    Totals& t = totals[span.name];
    ++t.count;
    t.total_us += span.end_us - span.start_us;
    t.self_us += span.end_us - span.start_us - child_us[static_cast<std::size_t>(span.id)];
  }
  std::printf("spans (host clock): name, count, total ms, self ms\n");
  for (const auto& [name, t] : totals) {
    std::printf("  %-40s %8lld %12.3f %12.3f\n", name.c_str(), t.count, t.total_us / 1e3,
                t.self_us / 1e3);
  }
}

int run(const Options& options) {
  pin_environment(options);

  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  const int setups = options.smoke ? 1 : kSetupRepeats;
  for (int k = 0; k < setups; ++k) {
    workload.reset();
    const auto start = SteadyClock::now();
    workload = make_workload(options, k);
    setup_seconds.push_back(seconds_since(start));
  }
  std::printf("setup: %s\n", workload->describe().c_str());
  DigestBook digests = digest_book(options, workload->input_count());
  const std::size_t max_ops = options.smoke ? workload->input_count() : SIZE_MAX;
  const std::size_t min_ops = options.smoke ? 0 : kMinOps;

  MetricTable table;
  long long attempted = 0;
  long long failed = 0;
  if (!options.trace) {
    LoopResult loop = run_loop(*workload, options.seconds, min_ops, max_ops, nullptr, 0, digests);
    const Checked checked = check(*workload, digests, loop.cache);
    report_failures(loop, checked);
    attempted = loop.attempted;
    failed = std::min(loop.attempted, loop.failed + checked.failed);
    const OpStats stats = op_stats(*workload, loop);
    const std::string ops = "n=" + std::to_string(loop.attempted) + " ops" +
                            (workload->per_input_timing()
                                 ? ", per-input medians over " +
                                       std::to_string(workload->input_count()) + " inputs"
                                 : "");
    table.add("setup_s", median(setup_seconds), "s", Clock::kHost,
              "median of " + std::to_string(setups) + " set-ups");
    table.add("op_ms_p50", stats.p50_ms, "ms", Clock::kHost, ops);
    table.add("op_ms_p90", stats.p90_ms, "ms", Clock::kHost, ops);
    table.add("sim_mnnz_per_host_s", stats.nnz_per_s / 1e6, "Mnnz/s", Clock::kHost,
              "simulated nonzeros per host second, one pass at per-input medians");
    table.add("sim_requests_per_host_s", stats.requests_per_s, "req/s", Clock::kHost,
              "simulated requests per host second, one pass at per-input medians");
    table.add("peak_rss_mb", peak_rss_mb(), "MB", Clock::kHost);
    table.add("op_ok_ratio",
              static_cast<double>(attempted - failed) / static_cast<double>(attempted), "ratio",
              Clock::kHost, "1 - op_fail_ratio");
    workload->add_sim_metrics(table);
    table.drop("op_fail_ratio", "reported as op_ok_ratio: a share that is 0 on a healthy tree "
                                "cannot carry a relative bound; the count is `failed`");
    table.print("end-to-end metrics, workload " + options.workload);
  } else {
    // Untraced and traced halves of the run: the difference in op p50 is
    // the tracing overhead. Layer probes follow.
    LoopResult plain =
        run_loop(*workload, options.seconds / 2, min_ops / 2, max_ops, nullptr, 0, digests);
    Tracer tracer;
    LoopResult traced = run_loop(*workload, options.seconds / 2, min_ops / 2, max_ops, &tracer,
                                 plain.attempted, digests);
    const CacheCounters cache{plain.cache.hits + traced.cache.hits,
                              plain.cache.lookups + traced.cache.lookups};
    const Checked checked = check(*workload, digests, cache);
    report_failures(plain, checked);
    report_failures(traced, {});
    attempted = plain.attempted + traced.attempted;
    failed = std::min(attempted, plain.failed + traced.failed + checked.failed);
    const double plain_p50 = op_stats(*workload, plain).p50_ms;
    const double traced_p50 = op_stats(*workload, traced).p50_ms;
    const auto& builds = workload->build_entry_ms();
    table.add("testbed.build_entry_ms",
              std::accumulate(builds.begin(), builds.end(), 0.0) /
                  static_cast<double>(builds.size()),
              "ms", Clock::kHost, "mean per matrix of the workload's set-up");
    table.add("sim.run_cache.hit_ratio",
              cache.lookups > 0
                  ? static_cast<double>(cache.hits) / static_cast<double>(cache.lookups)
                  : 0.0,
              "ratio", Clock::kCount,
              std::to_string(cache.lookups) + " lookups in the timed loops" +
                  (cache.lookups == 0 ? " (no RunCache attached)" : ""));
    table.add("trace.overhead_ms", traced_p50 - plain_p50, "ms", Clock::kHost,
              "traced minus untraced op_ms_p50");
    run_layer_probes(options, tracer, attempted, table);
    table.print("per-layer metrics, workload " + options.workload);
    print_span_summary(tracer);
    if (!options.spans_path.empty() && !tracer.write_jsonl(options.spans_path)) {
      throw std::runtime_error("cannot write spans to " + options.spans_path);
    }
  }
  if (!options.record_golden_path.empty()) record_golden(options, digests.observed);
  std::fflush(stdout);
  print_result(failed == 0, attempted, failed, table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
