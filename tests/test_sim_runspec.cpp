// The RunSpec contract of Engine::run, the engine's one entry point: dead
// ranks fold the degraded protocol's recovery into the RunResult, invalid
// specs are rejected, and a recorder never changes the simulated numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/generators.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace scc::sim {
namespace {

sparse::CsrMatrix test_matrix() { return gen::banded(800, 16, 0.5, 11); }

/// Checks the degraded accounting of `spec` (non-empty dead_ranks over the
/// rank -> core table `cores`) against a survivors-only run and the
/// recovery formulas.
void expect_recovery_folded(const Engine& engine, const sparse::CsrMatrix& m,
                            const RunSpec& spec, const std::vector<int>& cores) {
  const RunResult degraded = engine.run(m, spec);

  RunSpec survivors;
  for (std::size_t rank = 0; rank < cores.size(); ++rank) {
    if (std::find(spec.dead_ranks.begin(), spec.dead_ranks.end(), static_cast<int>(rank)) ==
        spec.dead_ranks.end()) {
      survivors.cores.push_back(cores[rank]);
    }
  }
  const RunResult healthy = engine.run(m, survivors);

  // The survivors' replay is the degraded run's timing; recovery is added.
  EXPECT_EQ(degraded.seconds, healthy.seconds + degraded.recovery_seconds);
  EXPECT_EQ(degraded.gflops, 2.0 * static_cast<double>(m.nnz()) / degraded.seconds / 1e9);
  ASSERT_EQ(degraded.cores.size(), healthy.cores.size());
  for (std::size_t i = 0; i < degraded.cores.size(); ++i) {
    EXPECT_EQ(degraded.cores[i].core, healthy.cores[i].core);
    EXPECT_EQ(degraded.cores[i].isolated_seconds, healthy.cores[i].isolated_seconds);
  }

  // Each dead block re-ships its CSR slice: rebased ptr, col and val.
  const auto blocks = sparse::partition_rows_balanced_nnz(m, static_cast<int>(cores.size()));
  bytes_t reshipped = 0;
  for (int rank : spec.dead_ranks) {
    const sparse::RowBlock& b = blocks[static_cast<std::size_t>(rank)];
    reshipped += static_cast<bytes_t>(b.row_count() + 1) * sizeof(nnz_t) +
                 static_cast<bytes_t>(b.nnz) * (sizeof(index_t) + sizeof(real_t));
  }
  const auto dead = static_cast<int>(spec.dead_ranks.size());
  EXPECT_EQ(degraded.dead_count, dead);
  EXPECT_EQ(degraded.reshipped_bytes, reshipped);
  EXPECT_DOUBLE_EQ(degraded.recovery_seconds,
                   spec.detection_seconds * dead + static_cast<double>(reshipped) /
                                                       engine.mc_bandwidth_bytes_per_second());
  EXPECT_GT(degraded.recovery_seconds, spec.detection_seconds * dead);
}

TEST(RunSpec, DeadRanksFoldRecoveryIntoResult) {
  const auto m = test_matrix();
  const Engine engine;
  {
    RunSpec spec;
    spec.ue_count = 8;
    spec.policy = chip::MappingPolicy::kDistanceReduction;
    spec.dead_ranks = {1, 3};
    spec.detection_seconds = 0.002;
    expect_recovery_folded(engine, m, spec,
                           chip::map_ues_to_cores(spec.policy, spec.ue_count));
  }
  {
    RunSpec spec;
    spec.cores = {3, 12, 25, 40, 47};
    spec.dead_ranks = {4, 1};
    expect_recovery_folded(engine, m, spec, spec.cores);
  }
}

TEST(RunSpec, InvalidSpecsAreRejected) {
  const auto m = test_matrix();
  const Engine engine;
  {
    RunSpec spec;
    spec.forced_hops = 4;  // mesh diameter caps forced hops at 3
    spec.cores = {0};
    EXPECT_THROW(engine.run(m, spec), std::invalid_argument);
  }
  {
    RunSpec spec;
    spec.dead_ranks = {0};  // rank 0 owns the matrix and must survive
    spec.ue_count = 4;
    EXPECT_THROW(engine.run(m, spec), std::invalid_argument);
  }
  {
    RunSpec spec;
    spec.dead_ranks = {1};
    spec.ue_count = 4;
    spec.format = StorageFormat::kEll;  // degraded path models CSR only
    EXPECT_THROW(engine.run(m, spec), std::invalid_argument);
  }
}

TEST(RunSpec, RecorderNeverChangesTheNumbers) {
  const auto m = test_matrix();
  const Engine engine;
  RunSpec plain;
  plain.ue_count = 8;
  plain.policy = chip::MappingPolicy::kDistanceReduction;
  RunSpec observed = plain;
  obs::Recorder recorder;
  observed.recorder = &recorder;
  const auto a = engine.run(m, plain);
  const auto b = engine.run(m, observed);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_FALSE(recorder.events().empty());
  EXPECT_FALSE(recorder.metrics().empty());
}

}  // namespace
}  // namespace scc::sim
