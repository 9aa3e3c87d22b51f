#include "sim/spmv_trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/hash.hpp"
#include "gen/generators.hpp"
#include "sim/format_traces.hpp"
#include "sparse/partition.hpp"
#include "testbed/suite.hpp"

namespace scc::sim {
namespace {

cache::Hierarchy scc_hierarchy(bool l2_enabled = true) {
  cache::HierarchyConfig cfg;
  cfg.l2_enabled = l2_enabled;
  return cache::Hierarchy(cfg);
}

sparse::RowBlock whole(const sparse::CsrMatrix& m) {
  return sparse::RowBlock{0, m.rows(), m.nnz()};
}

TEST(Trace, AccessCountsMatchKernelShape) {
  // Accesses = rows (ptr) + rows (y) + 3*nnz (index, da, x).
  const auto m = gen::banded(1000, 5, 0.5, 1);
  auto h = scc_hierarchy();
  const TraceResult r = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  const auto expected = static_cast<std::uint64_t>(2 * m.rows()) +
                        static_cast<std::uint64_t>(3 * m.nnz());
  EXPECT_EQ(h.l1().stats().accesses(), expected);
  EXPECT_EQ(r.rows, m.rows());
  EXPECT_EQ(r.nnz, m.nnz());
}

TEST(Trace, LevelsPartitionAllAccesses) {
  const auto m = gen::random_uniform(3000, 10, 2);
  auto h = scc_hierarchy();
  const TraceResult r = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  const std::uint64_t l1_hits = h.l1().stats().hits();
  EXPECT_EQ(l1_hits + r.l2_hit_accesses + r.memory_accesses, h.l1().stats().accesses());
}

TEST(Trace, MemoryReadBytesAreLineMultiples) {
  const auto m = gen::random_uniform(2000, 8, 3);
  auto h = scc_hierarchy();
  const TraceResult r = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  EXPECT_EQ(r.memory_read_bytes % 32, 0u);
  EXPECT_EQ(r.memory_write_bytes % 32, 0u);
  EXPECT_GT(r.memory_read_bytes, 0u);
}

TEST(Trace, StreamingArraysMissOncePerLine) {
  // Diagonal-only matrix: all x accesses are sequential (x[i] for row i), so
  // every array streams; memory reads ~ (4+4+8+8)B/elem + 4B/row ptr.
  const index_t n = 20000;
  auto coo = sparse::CooMatrix(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0);
  const auto m = sparse::CsrMatrix::from_coo(std::move(coo));
  auto h = scc_hierarchy();
  const TraceResult r = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  const double bytes_per_row = 4 + 4 + 8 + 8 + 8;  // ptr+idx+da+x+y
  const double expected = static_cast<double>(n) * bytes_per_row;
  EXPECT_NEAR(static_cast<double>(r.memory_read_bytes), expected, expected * 0.05);
}

TEST(Trace, NoXMissVariantReducesMemoryTraffic) {
  const auto m = gen::random_uniform(20000, 10, 4);  // scattered x accesses
  auto h1 = scc_hierarchy();
  const TraceResult base = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h1);
  auto h2 = scc_hierarchy();
  const TraceResult noxm = run_spmv_trace(m, whole(m), SpmvVariant::kCsrNoXMiss, h2);
  EXPECT_LT(noxm.memory_accesses, base.memory_accesses);
  // For a scattered matrix the reduction is large (x dominates misses).
  EXPECT_LT(static_cast<double>(noxm.memory_accesses),
            0.8 * static_cast<double>(base.memory_accesses));
}

TEST(Trace, NoXMissOnBandedMatrixChangesLittle) {
  // Near-diagonal matrices already have good x locality.
  const auto m = gen::banded(20000, 4, 1.0, 5);
  auto h1 = scc_hierarchy();
  const TraceResult base = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h1);
  auto h2 = scc_hierarchy();
  const TraceResult noxm = run_spmv_trace(m, whole(m), SpmvVariant::kCsrNoXMiss, h2);
  EXPECT_NEAR(static_cast<double>(noxm.memory_accesses),
              static_cast<double>(base.memory_accesses),
              0.15 * static_cast<double>(base.memory_accesses));
}

TEST(Trace, DisablingL2IncreasesMemoryAccesses) {
  const auto m = gen::banded(5000, 20, 0.5, 6);
  auto with_l2 = scc_hierarchy(true);
  const TraceResult a = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, with_l2);
  auto without_l2 = scc_hierarchy(false);
  const TraceResult b = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, without_l2);
  EXPECT_GE(b.memory_accesses, a.memory_accesses);
}

TEST(Trace, BlockSubsetTouchesOnlyItsShare) {
  const auto m = gen::banded(4000, 6, 0.5, 7);
  const auto blocks = sparse::partition_rows_balanced_nnz(m, 4);
  std::uint64_t total = 0;
  for (const auto& b : blocks) {
    auto h = scc_hierarchy();
    const TraceResult r = run_spmv_trace(m, b, SpmvVariant::kCsr, h);
    EXPECT_EQ(r.rows, b.row_count());
    EXPECT_EQ(r.nnz, b.nnz);
    total += static_cast<std::uint64_t>(r.nnz);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(m.nnz()));
}

TEST(Trace, SmallWorkingSetSecondRunHitsCache) {
  // A matrix fitting in L2: run the trace twice through the SAME hierarchy;
  // the second pass must generate almost no memory traffic (only conflict
  // noise) -- the mechanism behind the paper's Fig 6 small-matrix boost.
  const auto m = gen::banded(1500, 4, 0.8, 8);  // ws ~ 100 KB < 256 KB
  auto h = scc_hierarchy();
  const TraceResult first = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  h.reset_stats();
  const TraceResult second = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  EXPECT_LT(static_cast<double>(second.memory_accesses),
            0.05 * static_cast<double>(first.memory_accesses));
}

TEST(Trace, LargeWorkingSetSecondRunStillMisses) {
  const auto m = gen::banded(30000, 20, 0.5, 9);  // ws ~ 4 MB >> 256 KB
  auto h = scc_hierarchy();
  const TraceResult first = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  h.reset_stats();
  const TraceResult second = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h);
  EXPECT_GT(static_cast<double>(second.memory_accesses),
            0.7 * static_cast<double>(first.memory_accesses));
}

TEST(Trace, RejectsBadBlock) {
  const auto m = gen::stencil_2d(10, 10);
  auto h = scc_hierarchy();
  EXPECT_THROW(run_spmv_trace(m, sparse::RowBlock{0, 101, 0}, SpmvVariant::kCsr, h),
               std::invalid_argument);
  EXPECT_THROW(run_spmv_trace(m, sparse::RowBlock{5, 4, 0}, SpmvVariant::kCsr, h),
               std::invalid_argument);
}

TEST(Trace, DeterministicAcrossRuns) {
  const auto m = gen::power_law(5000, 8, 1.2, 10);
  auto h1 = scc_hierarchy();
  auto h2 = scc_hierarchy();
  const TraceResult a = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h1);
  const TraceResult b = run_spmv_trace(m, whole(m), SpmvVariant::kCsr, h2);
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
  EXPECT_EQ(a.memory_read_bytes, b.memory_read_bytes);
  EXPECT_EQ(a.l2_hit_accesses, b.l2_hit_accesses);
}

// ---------------------------------------------------------------------------
// Exactness golden: a digest of every TraceResult counter over the whole
// Table-I testbed, recorded before the cache model's fast paths existed.
// Any optimisation of the replay (lookup, PLRU update, repeat filter) must
// leave every digest unchanged.

void hash_stats(common::Fnv1a& h, const cache::CacheStats& s) {
  h.u64(s.read_hits);
  h.u64(s.read_misses);
  h.u64(s.write_hits);
  h.u64(s.write_misses);
  h.u64(s.evictions);
  h.u64(s.dirty_writebacks);
}

void hash_trace(common::Fnv1a& h, const TraceResult& r) {
  hash_stats(h, r.l1);
  hash_stats(h, r.l2);
  h.u64(r.memory_accesses);
  h.u64(r.l2_hit_accesses);
  h.u64(r.memory_read_bytes);
  h.u64(r.memory_write_bytes);
  h.u64(r.tlb_misses);
  h.i64(r.rows);
  h.i64(r.nnz);
}

/// One kernel replay: the CSR kernel in both variants, then ELL, BCSR 2x2,
/// BCSR 4x4 and HYB (the engine's 0.33 spill budget).
void hash_kernel(common::Fnv1a& h, int kernel, const sparse::CsrMatrix& m,
                 const sparse::RowBlock& block, cache::Hierarchy& hier, cache::Tlb* tlb) {
  if (kernel < 2) {
    const auto variant = kernel == 0 ? SpmvVariant::kCsr : SpmvVariant::kCsrNoXMiss;
    hash_trace(h, run_spmv_trace(m, block, variant, hier, tlb));
    return;
  }
  FormatTraceResult r;
  switch (kernel) {
    case 2: r = run_ell_trace(m, block, hier, tlb); break;
    case 3: r = run_bcsr_trace(m, block, 2, hier, tlb); break;
    case 4: r = run_bcsr_trace(m, block, 4, hier, tlb); break;
    default: r = run_hyb_trace(m, block, 0.33, hier, tlb); break;
  }
  hash_trace(h, r.trace);
  h.f64(r.executed_elements);
  h.f64(r.rows_iterated);
}

/// Digest of one matrix over 6 kernels x TLB on/off x L2 on/off. Each
/// configuration replays the whole matrix cold, then the first of three
/// row blocks warm through the same caches, then flushes and replays the
/// second block, so state carried between replays is covered too.
std::uint64_t testbed_trace_digest(const sparse::CsrMatrix& m) {
  common::Fnv1a h;
  const auto blocks = sparse::partition_rows_balanced_nnz(m, 3);
  for (const bool tlb_on : {false, true}) {
    for (const bool l2_on : {false, true}) {
      for (int kernel = 0; kernel < 6; ++kernel) {
        cache::HierarchyConfig cfg;
        cfg.l2_enabled = l2_on;
        cache::Hierarchy hier(cfg);
        cache::Tlb tlb;
        cache::Tlb* t = tlb_on ? &tlb : nullptr;
        hash_kernel(h, kernel, m, whole(m), hier, t);
        hash_kernel(h, kernel, m, blocks[0], hier, t);
        h.u64(hier.flush());
        tlb.flush();
        hash_kernel(h, kernel, m, blocks[1], hier, t);
      }
    }
  }
  return h.value();
}

TEST(TraceGolden, TestbedDigestsUnchanged) {
  // Recorded at testbed scale 0.05, one digest per Table-I id 1..32.
  constexpr std::uint64_t kGolden[32] = {
      0xe4659b775bdb9a55ULL, 0x06c75243895a83f9ULL, 0x82424bdd01409f25ULL, 0xbec9fd7672fac8a9ULL,
      0xaa605b11f06e2071ULL, 0x7d0b9922e2bd98cdULL, 0x7f397966aab965b5ULL, 0x4242ab3120dcd8bdULL,
      0x18b96f64a6f896b9ULL, 0xc27d2775823f69cdULL, 0x78304e3764103f79ULL, 0x126e46f1454cd00dULL,
      0xf0b8156d5cf9a029ULL, 0x4671e35b75aaf381ULL, 0xad6a8288a83d2a75ULL, 0xb814bd1b8bdf1f9dULL,
      0xbef18c8855fff6a1ULL, 0x0f75c883ff8cd961ULL, 0xde832533648d7ff5ULL, 0xa73c7380d24ead55ULL,
      0x2997aca5e40a27d1ULL, 0x127abed0f6b55ce5ULL, 0x42ee5036d8c6aee5ULL, 0x821c3b8e90147da9ULL,
      0x774db77790f93675ULL, 0x4b726f284b83a871ULL, 0x13ecbca65d434be1ULL, 0x0d5f5bd6ef756e81ULL,
      0x61264585d06b659dULL, 0x3c799f0b98249b1dULL, 0xa542c1294713ea5dULL, 0xd35c155ce2e8d349ULL,
  };
  const auto suite = testbed::build_suite(0.05, /*use_cache=*/false);
  ASSERT_EQ(suite.size(), 32u);
  for (const auto& entry : suite) {
    const std::uint64_t digest = testbed_trace_digest(entry.matrix);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, kGolden[entry.id - 1]) << "testbed #" << entry.id << " digest " << hex;
  }
}

}  // namespace
}  // namespace scc::sim
