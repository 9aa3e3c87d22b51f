#include "sparse/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>

#include "common/hash.hpp"
#include "gen/generators.hpp"
#include "sparse/properties.hpp"

namespace scc::sparse {
namespace {

bool is_permutation_of_identity(const std::vector<index_t>& perm) {
  std::vector<index_t> sorted(perm);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != static_cast<index_t>(i)) return false;
  }
  return true;
}

CsrMatrix one_directional_chain() {
  CooMatrix coo(8, 8);
  for (index_t i = 0; i < 7; ++i) coo.add(i, i + 1, 1.0);
  for (index_t i = 0; i < 8; ++i) coo.add(i, i, 1.0);
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix pair_with_isolated() {
  CooMatrix coo(6, 6);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  return CsrMatrix::from_coo(std::move(coo));
}

TEST(Rcm, ReturnsValidPermutation) {
  const auto m = gen::stencil_2d(12, 12);
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_EQ(perm.size(), static_cast<std::size_t>(m.rows()));
  EXPECT_TRUE(is_permutation_of_identity(perm));
}

TEST(Rcm, RequiresSquareMatrix) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 1.0);
  const auto m = CsrMatrix::from_coo(std::move(coo));
  EXPECT_THROW(reverse_cuthill_mckee(m), std::invalid_argument);
}

TEST(Rcm, ReducesBandwidthOfShuffledBandedMatrix) {
  // Take a banded matrix, scramble it with a random permutation, and check
  // RCM recovers (most of) the band.
  const auto original = gen::banded(400, 6, 0.8, 42);
  std::vector<index_t> shuffle(400);
  std::iota(shuffle.begin(), shuffle.end(), 0);
  // Deterministic Fisher-Yates.
  std::uint64_t state = 12345;
  for (std::size_t i = shuffle.size() - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(shuffle[i], shuffle[state % (i + 1)]);
  }
  const auto scrambled = original.permute_symmetric(shuffle);
  ASSERT_GT(bandwidth(scrambled), 4 * bandwidth(original));

  const auto perm = reverse_cuthill_mckee(scrambled);
  const auto restored = scrambled.permute_symmetric(perm);
  EXPECT_LT(bandwidth(restored), bandwidth(scrambled) / 4);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  // Two disjoint chains.
  CooMatrix coo(10, 10);
  for (index_t i = 0; i < 4; ++i) coo.add(i, i + 1, 1.0);
  for (index_t i = 5; i < 9; ++i) coo.add(i, i + 1, 1.0);
  for (index_t i = 0; i < 10; ++i) coo.add(i, i, 1.0);
  const auto m = CsrMatrix::from_coo(std::move(coo));
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_TRUE(is_permutation_of_identity(perm));
}

TEST(Rcm, HandlesIsolatedVertices) {
  const auto m = pair_with_isolated();
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_TRUE(is_permutation_of_identity(perm));
}

TEST(Rcm, WorksOnUnsymmetricPattern) {
  // Pattern is symmetrized internally, so a one-directional chain works.
  const auto m = one_directional_chain();
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_TRUE(is_permutation_of_identity(perm));
  const auto reordered = m.permute_symmetric(perm);
  EXPECT_LE(bandwidth(reordered), bandwidth(m));
}

TEST(Rcm, PermutedSpmvEquivalence) {
  // RCM changes data layout, not the operator: P A P^T (P x) == P (A x).
  const auto m = gen::power_law(200, 6, 1.1, 7);
  const auto perm = reverse_cuthill_mckee(m);
  const auto reordered = m.permute_symmetric(perm);
  std::vector<real_t> x(200);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(static_cast<double>(i));
  std::vector<real_t> px(200);
  for (std::size_t i = 0; i < px.size(); ++i) px[i] = x[static_cast<std::size_t>(perm[i])];
  const auto y = dense_reference_spmv(m, x);
  const auto py = dense_reference_spmv(reordered, px);
  for (std::size_t i = 0; i < py.size(); ++i) {
    EXPECT_NEAR(py[i], y[static_cast<std::size_t>(perm[i])], 1e-9);
  }
}

/// Property sweep: RCM output is always a permutation, for several families.
class RcmSweep : public ::testing::TestWithParam<int> {};

TEST_P(RcmSweep, AlwaysPermutation) {
  CsrMatrix m;
  switch (GetParam()) {
    case 0: m = gen::banded(300, 9, 0.5, 3); break;
    case 1: m = gen::random_uniform(300, 4, 3); break;
    case 2: m = gen::power_law(300, 5, 1.3, 3); break;
    case 3: m = gen::circuit(300, 2.0, 0.4, 3); break;
    default: m = gen::stencil_2d(17, 18); break;
  }
  EXPECT_TRUE(is_permutation_of_identity(reverse_cuthill_mckee(m)));
}

INSTANTIATE_TEST_SUITE_P(Families, RcmSweep, ::testing::Values(0, 1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Exactness golden: digests of the permutations RCM returned before its
// adjacency build and BFS were made linear-time. Every kRcmRows engine run
// replays the permuted matrix, so any change to a permutation (a different
// tie order among equal-degree neighbours, a different start vertex) would
// move simulated results.

CsrMatrix chains_with_isolated_tail() {
  // Two chains, a star, and isolated vertices interleaved with them.
  CooMatrix coo(40, 40);
  for (index_t i = 0; i < 9; ++i) coo.add(i, i + 1, 1.0);
  for (index_t i = 12; i < 20; i += 2) coo.add(i + 2, i, 1.0);
  for (index_t leaf = 25; leaf < 33; ++leaf) coo.add(22, leaf, 1.0);
  for (index_t i = 0; i < 40; i += 3) coo.add(i, i, 1.0);
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix lower_triangle_of(const CsrMatrix& m) {
  // Drops the upper triangle: the pattern RCM sees is rebuilt from A^T alone
  // for every entry above the diagonal.
  CooMatrix coo(m.rows(), m.cols());
  for (index_t r = 0; r < m.rows(); ++r) {
    for (index_t c : m.row_cols(r)) {
      if (c <= r) coo.add(r, c, 1.0);
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

std::uint64_t perm_digest(const std::vector<index_t>& perm) {
  common::Fnv1a h;
  h.array(std::span<const index_t>(perm));
  return h.value();
}

struct RcmGoldenCase {
  const char* name;
  CsrMatrix matrix;
  std::uint64_t digest;
};

TEST(RcmGolden, PermutationDigestsUnchanged) {
  const RcmGoldenCase cases[] = {
      {"banded", gen::banded(300, 9, 0.5, 3), 0x91793def3feb72a2ULL},
      {"random_uniform", gen::random_uniform(300, 4, 3), 0x20408d5bdb80bf12ULL},
      {"power_law", gen::power_law(300, 5, 1.3, 3), 0xf35f3ad71b687f06ULL},
      {"circuit", gen::circuit(300, 2.0, 0.4, 3), 0x7f73424f55da8d6aULL},
      {"stencil_2d", gen::stencil_2d(17, 18), 0x39942e8ce69f2751ULL},
      {"banded_large", gen::banded(5000, 12, 0.6, 11), 0x1a776ea033dfc910ULL},
      {"random_sparse", gen::random_uniform(4000, 1, 12), 0xf97c175d155f11c0ULL},
      {"power_law_hubs", gen::power_law(5000, 8, 1.1, 13), 0x9505e4ea3c5596e4ULL},
      {"circuit_large", gen::circuit(5000, 1.5, 0.3, 14), 0xb8666b703827eb28ULL},
      {"stencil_3d", gen::stencil_3d(14, 15, 16), 0x7c4785ce3683fbdeULL},
      {"fem_blocks", gen::fem_blocks(300, 6, 3, 15), 0x39352ab0234ff18cULL},
      {"lower_triangle", lower_triangle_of(gen::power_law(3000, 6, 1.2, 16)),
       0xcab7eec7f2dbb164ULL},
      {"chains_isolated", chains_with_isolated_tail(), 0x118eeede60f8ad7dULL},
      {"pair_isolated", pair_with_isolated(), 0xe8a2fc45eb4fed12ULL},
      {"unsymmetric_chain", one_directional_chain(), 0x8fe5201b5dce7acdULL},
  };
  for (const RcmGoldenCase& c : cases) {
    const auto perm = reverse_cuthill_mckee(c.matrix);
    ASSERT_TRUE(is_permutation_of_identity(perm)) << c.name;
    const std::uint64_t digest = perm_digest(perm);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, c.digest) << c.name << " digest " << hex;
  }
}

}  // namespace
}  // namespace scc::sparse
