#include "sim/format_traces.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/generators.hpp"
#include "sim/engine.hpp"
#include "sparse/partition.hpp"

namespace scc::sim {
namespace {

cache::Hierarchy fresh_hierarchy() { return cache::Hierarchy(cache::HierarchyConfig{}); }

sparse::RowBlock whole(const sparse::CsrMatrix& m) {
  return sparse::RowBlock{0, m.rows(), m.nnz()};
}

TEST(EllTrace, ExecutedElementsAreWidthTimesRows) {
  const auto m = gen::random_uniform(500, 7, 1);  // uniform 8-entry rows
  auto h = fresh_hierarchy();
  const auto r = run_ell_trace(m, whole(m), h, nullptr);
  EXPECT_DOUBLE_EQ(r.executed_elements, 8.0 * 500.0);
  // 5 accesses per slot (idx, val, x, y read, y write).
  EXPECT_EQ(h.l1().stats().accesses(), 5u * 8u * 500u);
}

TEST(EllTrace, PaddingExecutesOnSkewedRows) {
  sparse::CooMatrix coo(100, 100);
  for (index_t i = 0; i < 100; ++i) coo.add(i, i, 1.0);
  for (index_t j = 1; j < 50; ++j) coo.add(0, j, 1.0);
  const auto m = sparse::CsrMatrix::from_coo(std::move(coo));
  auto h = fresh_hierarchy();
  const auto r = run_ell_trace(m, whole(m), h, nullptr);
  // Width = 50, so 100*50 slots executed for 149 nonzeros.
  EXPECT_DOUBLE_EQ(r.executed_elements, 5000.0);
}

TEST(EllTrace, BlockLocalWidth) {
  // Per-UE slabs use the *local* maximum row length: a block without the
  // long row must not pay its padding.
  sparse::CooMatrix coo(100, 100);
  for (index_t i = 0; i < 100; ++i) coo.add(i, i, 1.0);
  for (index_t j = 1; j < 50; ++j) coo.add(0, j, 1.0);
  const auto m = sparse::CsrMatrix::from_coo(std::move(coo));
  auto h = fresh_hierarchy();
  const sparse::RowBlock tail{50, 100, 50};
  const auto r = run_ell_trace(m, tail, h, nullptr);
  EXPECT_DOUBLE_EQ(r.executed_elements, 50.0);  // width 1
}

TEST(BcsrTrace, PerfectBlocksNoFill) {
  const auto m = gen::fem_blocks(50, 4, 0, 2);  // pure 4x4 diagonal blocks
  auto h = fresh_hierarchy();
  const auto r = run_bcsr_trace(m, whole(m), 4, h, nullptr);
  EXPECT_DOUBLE_EQ(r.executed_elements, static_cast<double>(m.nnz()));
  EXPECT_DOUBLE_EQ(r.rows_iterated, 50.0);
}

TEST(BcsrTrace, FillInflatesExecutedElements) {
  const auto m = gen::circuit(1000, 1.5, 0.5, 3);  // sparse scattered rows
  auto h = fresh_hierarchy();
  const auto r = run_bcsr_trace(m, whole(m), 4, h, nullptr);
  EXPECT_GT(r.executed_elements, 2.0 * static_cast<double>(m.nnz()));
}

TEST(BcsrTrace, ValidatesBlockSize) {
  const auto m = gen::stencil_2d(4, 4);
  auto h = fresh_hierarchy();
  EXPECT_THROW(run_bcsr_trace(m, whole(m), 0, h, nullptr), std::invalid_argument);
  EXPECT_THROW(run_bcsr_trace(m, whole(m), 17, h, nullptr), std::invalid_argument);
}

TEST(HybTrace, ExecutedBetweenNnzAndEll) {
  const auto m = gen::power_law(800, 8, 1.2, 4);
  auto h1 = fresh_hierarchy();
  const auto ell = run_ell_trace(m, whole(m), h1, nullptr);
  auto h2 = fresh_hierarchy();
  const auto hyb = run_hyb_trace(m, whole(m), 0.33, h2, nullptr);
  EXPECT_GE(hyb.executed_elements, static_cast<double>(m.nnz()) * 0.99);
  EXPECT_LE(hyb.executed_elements, ell.executed_elements + 1e-9);
}

TEST(HybTrace, ZeroSpillEqualsEll) {
  const auto m = gen::power_law(400, 6, 1.1, 5);
  auto h1 = fresh_hierarchy();
  const auto ell = run_ell_trace(m, whole(m), h1, nullptr);
  auto h2 = fresh_hierarchy();
  const auto hyb = run_hyb_trace(m, whole(m), 0.0, h2, nullptr);
  EXPECT_DOUBLE_EQ(hyb.executed_elements, ell.executed_elements);
}

/// The Bell-Garland width by its definition: the smallest width whose tail
/// (entries beyond it) fits the spill budget, found by trying every width.
double brute_force_hyb_elements(const sparse::CsrMatrix& m, double spill_fraction) {
  const auto budget = static_cast<nnz_t>(spill_fraction * static_cast<double>(m.nnz()));
  for (index_t width = 0;; ++width) {
    nnz_t tail = 0;
    index_t longest = 0;
    for (index_t r = 0; r < m.rows(); ++r) {
      tail += std::max<nnz_t>(0, m.row_length(r) - width);
      longest = std::max(longest, m.row_length(r));
    }
    if (tail <= budget || width >= longest) {
      return static_cast<double>(width) * static_cast<double>(m.rows()) +
             static_cast<double>(tail);
    }
  }
}

TEST(HybTrace, WidthMatchesDefinition) {
  // Row lengths {1, 1, 1, 5}: at spill fraction 0.5 the budget is 4 and the
  // tail at width 1 is exactly 4, so the boundary case decides the width.
  sparse::CooMatrix coo(4, 8);
  for (index_t r = 0; r < 3; ++r) coo.add(r, r, 1.0);
  for (index_t c = 0; c < 5; ++c) coo.add(3, c, 1.0);
  const auto skewed = sparse::CsrMatrix::from_coo(std::move(coo));
  const sparse::CsrMatrix matrices[] = {skewed, gen::power_law(800, 6, 1.2, 2),
                                        gen::circuit(600, 2.0, 0.3, 3),
                                        gen::banded(400, 5, 0.6, 4)};
  for (const auto& m : matrices) {
    for (const double spill : {0.0, 0.1, 0.25, 0.33, 0.5, 0.9}) {
      auto h = fresh_hierarchy();
      const auto hyb = run_hyb_trace(m, whole(m), spill, h, nullptr);
      EXPECT_DOUBLE_EQ(hyb.executed_elements, brute_force_hyb_elements(m, spill))
          << m.rows() << " rows, spill " << spill;
    }
  }
}

TEST(HybTrace, ValidatesSpill) {
  const auto m = gen::stencil_2d(4, 4);
  auto h = fresh_hierarchy();
  EXPECT_THROW(run_hyb_trace(m, whole(m), 1.0, h, nullptr), std::invalid_argument);
}

TEST(FormatTraces, BlocksOutOfRangeRejected) {
  const auto m = gen::stencil_2d(5, 5);
  auto h = fresh_hierarchy();
  const sparse::RowBlock bad{0, 26, 0};
  EXPECT_THROW(run_ell_trace(m, bad, h, nullptr), std::invalid_argument);
  EXPECT_THROW(run_bcsr_trace(m, bad, 2, h, nullptr), std::invalid_argument);
  EXPECT_THROW(run_hyb_trace(m, bad, 0.3, h, nullptr), std::invalid_argument);
}

void expect_same_counts(const FormatTraceResult& a, const FormatTraceResult& b) {
  EXPECT_EQ(a.trace.l1.hits(), b.trace.l1.hits());
  EXPECT_EQ(a.trace.l1.misses(), b.trace.l1.misses());
  EXPECT_EQ(a.trace.l2.misses(), b.trace.l2.misses());
  EXPECT_EQ(a.trace.memory_accesses, b.trace.memory_accesses);
  EXPECT_EQ(a.trace.l2_hit_accesses, b.trace.l2_hit_accesses);
  EXPECT_EQ(a.trace.memory_read_bytes, b.trace.memory_read_bytes);
  EXPECT_EQ(a.trace.memory_write_bytes, b.trace.memory_write_bytes);
  EXPECT_EQ(a.trace.tlb_misses, b.trace.tlb_misses);
  EXPECT_EQ(a.trace.rows, b.trace.rows);
  EXPECT_EQ(a.trace.nnz, b.trace.nnz);
  EXPECT_EQ(a.executed_elements, b.executed_elements);
  EXPECT_EQ(a.rows_iterated, b.rows_iterated);
}

/// 8 distance-reduction-mapped UEs replaying `format`.
RunSpec format_spec(StorageFormat format) {
  RunSpec spec;
  spec.ue_count = 8;
  spec.policy = chip::MappingPolicy::kDistanceReduction;
  spec.format = format;
  return spec;
}

TEST(EngineFormats, CsrPassthroughMatchesRun) {
  // The CSR branch of the engine's replay dispatch is the paper's kernel
  // trace, counting every nonzero as an executed element and every row as a
  // loop trip.
  const auto m = gen::banded(5000, 10, 0.5, 6);
  for (const auto variant : {SpmvVariant::kCsr, SpmvVariant::kCsrNoXMiss}) {
    auto h1 = fresh_hierarchy();
    auto h2 = fresh_hierarchy();
    cache::Tlb t1;
    cache::Tlb t2;
    const TraceResult csr = run_spmv_trace(m, whole(m), variant, h1, &t1);
    const FormatTraceResult dispatched =
        trace_block(m, whole(m), StorageFormat::kCsr, variant, h2, &t2);
    expect_same_counts(dispatched, {csr, static_cast<double>(m.nnz()),
                                    static_cast<double>(m.rows())});
  }
}

TEST(EngineFormats, TraceBlockDispatchesEveryFormat) {
  const auto m = gen::power_law(3000, 8, 1.2, 7);
  const sparse::RowBlock block = sparse::partition_rows_balanced_nnz(m, 3)[1];
  for (auto format : {StorageFormat::kEll, StorageFormat::kBcsr2, StorageFormat::kBcsr4,
                      StorageFormat::kHyb}) {
    auto h1 = fresh_hierarchy();
    auto h2 = fresh_hierarchy();
    cache::Tlb t1;
    cache::Tlb t2;
    FormatTraceResult direct;
    switch (format) {
      case StorageFormat::kEll: direct = run_ell_trace(m, block, h1, &t1); break;
      case StorageFormat::kBcsr2: direct = run_bcsr_trace(m, block, 2, h1, &t1); break;
      case StorageFormat::kBcsr4: direct = run_bcsr_trace(m, block, 4, h1, &t1); break;
      default: direct = run_hyb_trace(m, block, 0.33, h1, &t1); break;
    }
    SCOPED_TRACE(to_string(format));
    expect_same_counts(trace_block(m, block, format, SpmvVariant::kCsr, h2, &t2), direct);
  }
}

TEST(EngineFormats, AllFormatsProducePositivePerformance) {
  const Engine engine;
  const auto m = gen::power_law(3000, 8, 1.2, 7);
  for (auto format : {StorageFormat::kCsr, StorageFormat::kEll, StorageFormat::kBcsr2,
                      StorageFormat::kBcsr4, StorageFormat::kHyb}) {
    const auto r = engine.run(m, format_spec(format));
    EXPECT_GT(r.gflops, 0.0) << to_string(format);
  }
}

TEST(EngineFormats, EllPenalizedOnSkewedRows) {
  const Engine engine;
  const auto m = gen::power_law(5000, 12, 0.9, 8);  // heavy-tailed rows
  const double csr = engine.run(m, format_spec(StorageFormat::kCsr)).gflops;
  const double ell = engine.run(m, format_spec(StorageFormat::kEll)).gflops;
  EXPECT_LT(ell, csr);
}

TEST(EngineFormats, BcsrWinsOnPerfectBlocks) {
  const Engine engine;
  auto m = gen::fem_blocks(3000, 4, 0, 9);  // pure 4x4 blocks, ~192k nnz
  const double csr = engine.run(m, format_spec(StorageFormat::kCsr)).gflops;
  const double bcsr = engine.run(m, format_spec(StorageFormat::kBcsr4)).gflops;
  EXPECT_GT(bcsr, csr);
}

TEST(EngineFormats, ToStringNames) {
  EXPECT_EQ(to_string(StorageFormat::kCsr), "CSR");
  EXPECT_EQ(to_string(StorageFormat::kEll), "ELL");
  EXPECT_EQ(to_string(StorageFormat::kBcsr2), "BCSR b=2");
  EXPECT_EQ(to_string(StorageFormat::kBcsr4), "BCSR b=4");
  EXPECT_EQ(to_string(StorageFormat::kHyb), "HYB");
}

}  // namespace
}  // namespace scc::sim
