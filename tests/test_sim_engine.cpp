#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "gen/generators.hpp"
#include "sim/report.hpp"
#include "testbed/suite.hpp"

namespace scc::sim {
namespace {

sparse::CsrMatrix big_irregular() { return gen::random_uniform(30000, 12, 1); }
sparse::CsrMatrix big_banded() { return gen::banded(40000, 20, 0.5, 2); }
sparse::CsrMatrix small_banded() { return gen::banded(1500, 4, 0.8, 3); }

/// `ue_count` UEs placed by `policy`: the spec shape most tests here run.
RunSpec mapped(int ue_count, chip::MappingPolicy policy,
               SpmvVariant variant = SpmvVariant::kCsr) {
  RunSpec spec;
  spec.ue_count = ue_count;
  spec.policy = policy;
  spec.variant = variant;
  return spec;
}

TEST(Engine, ConfigValidation) {
  EngineConfig cfg;
  cfg.memory.mc_peak_fraction = 0.0;
  EXPECT_THROW(Engine{cfg}, std::invalid_argument);
  cfg = EngineConfig{};
  cfg.memory.miss_stall_fraction = 1.5;
  EXPECT_THROW(Engine{cfg}, std::invalid_argument);
  cfg = EngineConfig{};
  cfg.kernel.cycles_per_nnz = -1.0;
  EXPECT_THROW(Engine{cfg}, std::invalid_argument);
}

TEST(Engine, RunProducesPositivePerformance) {
  Engine engine;
  const auto m = small_banded();
  const RunResult r = engine.run(m, mapped(4, chip::MappingPolicy::kDistanceReduction));
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_EQ(r.cores.size(), 4u);
}

TEST(Engine, GflopsDefinitionIsTwoNnzOverTime) {
  Engine engine;
  const auto m = small_banded();
  const RunResult r = engine.run(m, mapped(2, chip::MappingPolicy::kStandard));
  EXPECT_NEAR(r.gflops, 2.0 * static_cast<double>(m.nnz()) / r.seconds / 1e9, 1e-12);
}

TEST(Engine, Deterministic) {
  Engine engine;
  const auto m = big_irregular();
  const RunResult a = engine.run(m, mapped(8, chip::MappingPolicy::kDistanceReduction));
  const RunResult b = engine.run(m, mapped(8, chip::MappingPolicy::kDistanceReduction));
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

TEST(Engine, MoreCoresFasterOnLargeMatrix) {
  Engine engine;
  const auto m = big_banded();
  double prev = engine.run(m, mapped(1, chip::MappingPolicy::kDistanceReduction)).seconds;
  for (int cores : {2, 4, 8}) {
    const double cur =
        engine.run(m, mapped(cores, chip::MappingPolicy::kDistanceReduction)).seconds;
    EXPECT_LT(cur, prev) << cores << " cores";
    prev = cur;
  }
}

TEST(Engine, HopDistanceDegradesSingleCorePerformance) {
  // Fig 3 mechanism: identical work, farther memory -> slower.
  Engine engine;
  const auto m = big_banded();
  RunSpec spec;
  spec.cores = {0};
  spec.forced_hops = 0;
  double prev = engine.run(m, spec).seconds;
  for (int hops : {1, 2, 3}) {
    spec.forced_hops = hops;
    const double cur = engine.run(m, spec).seconds;
    EXPECT_GT(cur, prev) << hops << " hops";
    prev = cur;
  }
}

TEST(Engine, ThreeHopDegradationInPaperBallpark) {
  // The paper reports ~12% single-core degradation at 3 hops (suite mean).
  Engine engine;
  const auto m = big_banded();
  RunSpec spec;
  spec.cores = {0};
  spec.forced_hops = 0;
  const double t0 = engine.run(m, spec).seconds;
  spec.forced_hops = 3;
  const double t3 = engine.run(m, spec).seconds;
  const double degradation = t3 / t0 - 1.0;
  EXPECT_GT(degradation, 0.03);
  EXPECT_LT(degradation, 0.25);
}

TEST(Engine, RejectsBadHops) {
  Engine engine;
  const auto m = small_banded();
  RunSpec spec;
  spec.cores = {0};
  spec.forced_hops = 4;
  EXPECT_THROW(engine.run(m, spec), std::invalid_argument);
  spec.forced_hops = -2;
  EXPECT_THROW(engine.run(m, spec), std::invalid_argument);
}

TEST(Engine, MappingPolicyMattersAtHighCoreCounts) {
  Engine engine;
  const auto m = big_irregular();
  const RunResult std_run = engine.run(m, mapped(24, chip::MappingPolicy::kStandard));
  const RunResult dr_run = engine.run(m, mapped(24, chip::MappingPolicy::kDistanceReduction));
  EXPECT_LT(dr_run.seconds, std_run.seconds);
}

TEST(Engine, RunOnCoresValidatesInput) {
  Engine engine;
  const auto m = small_banded();
  EXPECT_THROW(engine.run(m, mapped(0, chip::MappingPolicy::kStandard)),
               std::invalid_argument);
  RunSpec spec;
  spec.cores = {0, 0};
  EXPECT_THROW(engine.run(m, spec), std::invalid_argument);
  spec.cores = {48};
  EXPECT_THROW(engine.run(m, spec), std::invalid_argument);
}

TEST(Engine, FasterFrequenciesImprovePerformance) {
  const auto m = big_irregular();
  EngineConfig cfg0;
  cfg0.freq = chip::FrequencyConfig::conf0();
  EngineConfig cfg1;
  cfg1.freq = chip::FrequencyConfig::conf1();
  const double t0 =
      Engine(cfg0).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  const double t1 =
      Engine(cfg1).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  EXPECT_LT(t1, t0);
}

TEST(Engine, MemoryClockAloneImprovesMemoryBoundRun) {
  const auto m = big_irregular();
  EngineConfig cfg2;
  cfg2.freq = chip::FrequencyConfig::conf2();
  EngineConfig cfg1;
  cfg1.freq = chip::FrequencyConfig::conf1();
  const double t2 =
      Engine(cfg2).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  const double t1 =
      Engine(cfg1).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  EXPECT_LT(t1, t2);
}

TEST(Engine, DisablingL2HurtsPerformance) {
  // Needs a matrix whose x reuse lives in L2 (too big for L1): random
  // columns over an x vector of ~240 KB.
  const auto m = big_irregular();
  EngineConfig with;
  EngineConfig without;
  without.hierarchy.l2_enabled = false;
  const double t_with =
      Engine(with).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  const double t_without =
      Engine(without).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  EXPECT_GT(t_without, t_with);
}

TEST(Engine, NoXMissVariantFasterOnIrregularMatrix) {
  Engine engine;
  const auto m = big_irregular();
  const double base =
      engine.run(m, mapped(8, chip::MappingPolicy::kDistanceReduction, SpmvVariant::kCsr))
          .seconds;
  const double noxm =
      engine.run(m, mapped(8, chip::MappingPolicy::kDistanceReduction, SpmvVariant::kCsrNoXMiss))
          .seconds;
  EXPECT_LT(noxm, base);
  EXPECT_GT(base / noxm, 1.10);  // the paper's >10% speedup regime
}

TEST(Engine, ContentionAblationSwitch) {
  const auto m = big_irregular();
  EngineConfig with;
  EngineConfig without;
  without.memory.model_contention = false;
  // At 48 standard-mapped cores contention matters; without it runs faster
  // or equal, never slower.
  const double t_with = Engine(with).run(m, mapped(48, chip::MappingPolicy::kStandard)).seconds;
  const double t_without =
      Engine(without).run(m, mapped(48, chip::MappingPolicy::kStandard)).seconds;
  EXPECT_LE(t_without, t_with);
}

TEST(Engine, McBytesOnlyOnUsedControllers) {
  Engine engine;
  const auto m = big_banded();
  RunSpec spec;
  spec.cores = {0, 1};
  const RunResult r = engine.run(m, spec);  // both on MC 0
  EXPECT_GT(r.mc_bytes[0], 0u);
  EXPECT_EQ(r.mc_bytes[1], 0u);
  EXPECT_EQ(r.mc_bytes[2], 0u);
  EXPECT_EQ(r.mc_bytes[3], 0u);
}

TEST(Engine, CoreResultsAccountComponents) {
  Engine engine;
  const auto m = big_banded();
  const RunResult r = engine.run(m, mapped(4, chip::MappingPolicy::kDistanceReduction));
  for (const CoreResult& cr : r.cores) {
    EXPECT_NEAR(cr.isolated_seconds,
                cr.compute_seconds + cr.l2_hit_seconds + cr.stall_seconds + cr.tlb_seconds,
                1e-15);
    EXPECT_GE(r.seconds, cr.isolated_seconds * (r.bandwidth_bound ? 0.0 : 1.0) - 1e-15);
  }
}

TEST(Engine, BandwidthBoundFlagConsistent) {
  Engine engine;
  const auto m = big_irregular();
  const RunResult r = engine.run(m, mapped(48, chip::MappingPolicy::kStandard));
  double slowest_core = 0.0;
  for (const auto& cr : r.cores) slowest_core = std::max(slowest_core, cr.isolated_seconds);
  double slowest_mc = 0.0;
  for (double s : r.mc_seconds) slowest_mc = std::max(slowest_mc, s);
  // Runtime = binding term plus the RCCE barrier (48 UEs at the conf0 rate).
  const double barrier = engine.config().kernel.barrier_ns_per_ue * 1e-9 * 48.0;
  EXPECT_DOUBLE_EQ(r.seconds, std::max(slowest_core, slowest_mc) + barrier);
  EXPECT_EQ(r.bandwidth_bound, slowest_mc > slowest_core);
}

TEST(Engine, TlbModelPenalizesScatteredAccesses) {
  // A matrix with x spanning many more pages than the 64-entry TLB covers:
  // disabling the TLB model must make the run faster.
  const auto m = gen::random_uniform(60000, 10, 7);  // x spans ~117 pages
  EngineConfig with;
  EngineConfig without;
  without.memory.model_tlb = false;
  const double t_with =
      Engine(with).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  const double t_without =
      Engine(without).run(m, mapped(8, chip::MappingPolicy::kDistanceReduction)).seconds;
  EXPECT_GT(t_with, t_without * 1.05);
}

TEST(Engine, TlbIrrelevantForSmallFootprints) {
  // Everything fits in 64 pages: the TLB model must change nothing
  // measurable in steady state.
  const auto m = gen::banded(2000, 4, 0.8, 7);  // ws ~ 130 KB ~ 32 pages
  EngineConfig with;
  EngineConfig without;
  without.memory.model_tlb = false;
  const double t_with = Engine(with).run(m, mapped(2, chip::MappingPolicy::kStandard)).seconds;
  const double t_without =
      Engine(without).run(m, mapped(2, chip::MappingPolicy::kStandard)).seconds;
  EXPECT_NEAR(t_with, t_without, t_without * 0.02);
}

TEST(Engine, NoXMissAvoidsTlbPenalty) {
  const auto m = gen::random_uniform(60000, 10, 7);
  Engine engine;
  const auto base =
      engine.run(m, mapped(8, chip::MappingPolicy::kDistanceReduction, SpmvVariant::kCsr));
  const auto noxm =
      engine.run(m, mapped(8, chip::MappingPolicy::kDistanceReduction, SpmvVariant::kCsrNoXMiss));
  std::uint64_t base_tlb = 0;
  std::uint64_t noxm_tlb = 0;
  for (const auto& cr : base.cores) base_tlb += cr.trace.tlb_misses;
  for (const auto& cr : noxm.cores) noxm_tlb += cr.trace.tlb_misses;
  EXPECT_LT(static_cast<double>(noxm_tlb), 0.2 * static_cast<double>(base_tlb));
}

TEST(Engine, MeshTrafficAccountedOnParallelRuns) {
  Engine engine;
  const auto m = big_banded();
  const RunResult r = engine.run(m, mapped(8, chip::MappingPolicy::kStandard));
  EXPECT_GT(r.mesh.total_link_bytes, 0u);
  EXPECT_GT(r.mesh.max_link_bytes, 0u);
  EXPECT_LE(r.mesh.max_link_bytes, r.mesh.total_link_bytes);
}

TEST(Engine, MeshTrafficZeroForMcAdjacentCores) {
  Engine engine;
  const auto m = big_banded();
  // Cores 0 and 1 sit on the MC tile: zero hops, so no link traffic at all.
  RunSpec spec;
  spec.cores = {0, 1};
  const RunResult r = engine.run(m, spec);
  EXPECT_EQ(r.mesh.total_link_bytes, 0u);
}

TEST(Engine, DistanceReductionReducesMeshTraffic) {
  Engine engine;
  const auto m = big_banded();
  const RunResult std_run = engine.run(m, mapped(16, chip::MappingPolicy::kStandard));
  const RunResult dr_run = engine.run(m, mapped(16, chip::MappingPolicy::kDistanceReduction));
  EXPECT_LT(dr_run.mesh.total_link_bytes, std_run.mesh.total_link_bytes);
}

TEST(Engine, ContentionAwareNotSlowerThanStandard) {
  Engine engine;
  const auto m = big_irregular();
  const double t_std = engine.run(m, mapped(20, chip::MappingPolicy::kStandard)).seconds;
  const double t_ca = engine.run(m, mapped(20, chip::MappingPolicy::kContentionAware)).seconds;
  EXPECT_LE(t_ca, t_std);
}

TEST(Engine, SmallMatrixManyCoresSuperlinearBoost) {
  // Fig 6 mechanism: per-core share falling under the L2 threshold yields a
  // disproportionate jump -- compare per-core efficiency at 2 vs 24 cores.
  Engine engine;
  const auto m = gen::banded(12000, 8, 0.8, 4);  // ws ~ 1.5 MB
  const double t2 = engine.run(m, mapped(2, chip::MappingPolicy::kDistanceReduction)).seconds;
  const double t24 = engine.run(m, mapped(24, chip::MappingPolicy::kDistanceReduction)).seconds;
  EXPECT_GT(t2 / t24, 12.0);  // better than linear scaling from 2 to 24
}

/// The spec shapes the exactness golden replays: every storage format, both
/// CSR variants, the RCM row schedule, each forced hop distance, an explicit
/// core table, dead ranks on both core selections and ABFT detection.
std::vector<std::pair<std::string, RunSpec>> golden_specs() {
  std::vector<std::pair<std::string, RunSpec>> specs;
  const auto policy_spec = [] {
    RunSpec spec;
    spec.ue_count = 8;
    spec.policy = chip::MappingPolicy::kDistanceReduction;
    return spec;
  };
  specs.emplace_back("csr", policy_spec());
  RunSpec spec = policy_spec();
  spec.variant = SpmvVariant::kCsrNoXMiss;
  specs.emplace_back("csr-no-x-miss", spec);
  for (StorageFormat format : {StorageFormat::kEll, StorageFormat::kBcsr2,
                               StorageFormat::kBcsr4, StorageFormat::kHyb}) {
    spec = policy_spec();
    spec.format = format;
    specs.emplace_back(to_string(format), spec);
  }
  spec = policy_spec();
  spec.reorder = Reordering::kRcmRows;
  specs.emplace_back("rcm-rows", spec);
  for (int hops = 0; hops <= 3; ++hops) {
    spec = RunSpec{};
    spec.cores = {0};
    spec.forced_hops = hops;
    specs.emplace_back("hops " + std::to_string(hops), spec);
  }
  spec = RunSpec{};
  spec.cores = {3, 12, 25, 40, 47};
  specs.emplace_back("cores", spec);
  spec = policy_spec();
  spec.policy = chip::MappingPolicy::kStandard;
  spec.dead_ranks = {2, 5};
  specs.emplace_back("dead ranks", spec);
  spec = RunSpec{};
  spec.cores = {3, 12, 25, 40, 47};
  spec.dead_ranks = {1, 4};
  spec.detection_seconds = 0.002;
  specs.emplace_back("dead ranks on cores", spec);
  spec = policy_spec();
  spec.verify = integrity::VerifyMode::kDetect;
  specs.emplace_back("verify detect", spec);
  return specs;
}

/// FNV digest of the full run report of every golden spec shape over the
/// testbed at scale 0.05: one digest per (config, spec shape).
void expect_report_digests(const EngineConfig& config, const std::uint64_t* golden,
                           const char* config_name) {
  static const auto suite = testbed::build_suite(0.05, /*use_cache=*/false);
  ASSERT_EQ(suite.size(), 32u);
  const Engine engine(config);
  const auto specs = golden_specs();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    common::Fnv1a h;
    for (const auto& entry : suite) {
      const RunResult result = engine.run(entry.matrix, specs[s].second);
      h.text(run_report_json(engine, specs[s].second, result).dump());
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(h.value()));
    EXPECT_EQ(h.value(), golden[s]) << config_name << " / " << specs[s].first << " digest "
                                    << hex;
  }
}

TEST(EngineGolden, RunReportDigestsUnchanged) {
  // Recorded before the replay became one count-returning dispatch priced
  // by a per-format cost table; never re-record them for a host-only
  // change. The second config gives the three per-element costs and the
  // per-row cost distinct values, so a swapped cost-table entry changes a
  // digest.
  constexpr std::uint64_t kDefault[15] = {
      0x060b0d87eed3cd21ULL, 0x2ef7d2e2f4d4295fULL, 0x4f3bf6f45fdedf32ULL,
      0xfb7037f046fc09feULL, 0x2221245f25522789ULL, 0xa6e679bbdefaf9d9ULL,
      0x2b56fd8ecdcd5c14ULL, 0xa31a19819e5cfd8cULL, 0xc9c4fe2829048dd5ULL,
      0x27ceed8e7eaf02e4ULL, 0xc630768229285334ULL, 0x3eb040b71723dfa6ULL,
      0x5e3165c51e191f8aULL, 0xad18ea87fe189a00ULL, 0xa0849a2c7c354e08ULL,
  };
  constexpr std::uint64_t kDistinctCosts[15] = {
      0x993148294ebfe259ULL, 0x733a6f5b6533cc67ULL, 0xd917c52d78087206ULL,
      0x937a921e2a275824ULL, 0xe6c71174a995dc43ULL, 0xdf4bf8e1d245ec99ULL,
      0x26cf4fbae0779003ULL, 0xdf4daa57a16f05e5ULL, 0x4cb5f54149fe1132ULL,
      0x151b2bdf51cfb98dULL, 0xbc9cf66752599167ULL, 0xd04d08ae2f8a5877ULL,
      0x05eb4e23188d320cULL, 0xe2fc00e3ebd3f138ULL, 0xafc03fb7952a4ff8ULL,
  };
  ASSERT_EQ(golden_specs().size(), 15u);
  expect_report_digests(EngineConfig{}, kDefault, "default config");
  EngineConfig costs;
  costs.kernel.cycles_per_nnz = 11.0;
  costs.kernel.cycles_per_ell_slot = 17.0;
  costs.kernel.cycles_per_bcsr_element = 7.0;
  costs.kernel.cycles_per_row = 23.0;
  expect_report_digests(costs, kDistinctCosts, "distinct costs");
}

}  // namespace
}  // namespace scc::sim
