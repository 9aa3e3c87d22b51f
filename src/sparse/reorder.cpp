#include "sparse/reorder.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"

namespace scc::sparse {

namespace {

/// Symmetrized adjacency (union of pattern and its transpose, diagonal
/// dropped) in CSR-like arrays, each row sorted ascending.
struct Adjacency {
  std::vector<nnz_t> ptr;
  std::vector<index_t> adj;
};

Adjacency build_symmetric_adjacency(const CsrMatrix& matrix) {
  const auto n = static_cast<std::size_t>(matrix.rows());
  const auto a_ptr = matrix.ptr();
  const auto a_col = matrix.col();

  // Pattern-only A^T by count and scatter. Scattering rows in increasing
  // order leaves every row of A^T sorted, like the rows of A.
  std::vector<nnz_t> t_ptr(n + 1, 0);
  for (const index_t c : a_col) ++t_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t v = 0; v < n; ++v) t_ptr[v + 1] += t_ptr[v];
  std::vector<index_t> t_col(a_col.size());
  std::vector<nnz_t> cursor(t_ptr.begin(), t_ptr.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (auto k = static_cast<std::size_t>(a_ptr[r]); k < static_cast<std::size_t>(a_ptr[r + 1]);
         ++k) {
      t_col[static_cast<std::size_t>(cursor[static_cast<std::size_t>(a_col[k])]++)] =
          static_cast<index_t>(r);
    }
  }

  // Row v of the union is the sorted merge of row v of A and of A^T, with
  // the diagonal and the entries present in both dropped. The merge steps
  // branch-free: each step emits the smaller head and advances every list
  // whose head equals it.
  Adjacency out;
  out.ptr.assign(n + 1, 0);
  out.adj.resize(2 * a_col.size());
  std::size_t len = 0;
  const auto emit = [&](index_t w, std::size_t v) {
    out.adj[len] = w;
    len += static_cast<std::size_t>(w) != v ? 1 : 0;
  };
  for (std::size_t v = 0; v < n; ++v) {
    auto a = static_cast<std::size_t>(a_ptr[v]);
    const auto a_end = static_cast<std::size_t>(a_ptr[v + 1]);
    auto t = static_cast<std::size_t>(t_ptr[v]);
    const auto t_end = static_cast<std::size_t>(t_ptr[v + 1]);
    while (a < a_end && t < t_end) {
      const index_t x = a_col[a];
      const index_t y = t_col[t];
      emit(std::min(x, y), v);
      a += x <= y ? 1 : 0;
      t += y <= x ? 1 : 0;
    }
    for (; a < a_end; ++a) emit(a_col[a], v);
    for (; t < t_end; ++t) emit(t_col[t], v);
    out.ptr[v + 1] = static_cast<nnz_t>(len);
  }
  out.adj.resize(len);
  return out;
}

/// Breadth-first search from `start`, appending the vertices it reaches to
/// `order` in visiting order; `order` doubles as the FIFO queue. `claim(w)`
/// marks `w` and returns whether it was unvisited. `arrange(first)` may
/// reorder the vertices appended from index `first` on -- one vertex's newly
/// claimed neighbours -- before any of them is expanded.
template <typename Claim, typename Arrange>
void bfs(const Adjacency& g, index_t start, std::vector<index_t>& order, Claim claim,
         Arrange arrange) {
  std::size_t head = order.size();
  claim(start);
  order.push_back(start);
  while (head < order.size()) {
    const auto v = static_cast<std::size_t>(order[head++]);
    const std::size_t first = order.size();
    for (auto k = static_cast<std::size_t>(g.ptr[v]); k < static_cast<std::size_t>(g.ptr[v + 1]);
         ++k) {
      if (claim(g.adj[k])) order.push_back(g.adj[k]);
    }
    arrange(first);
  }
}

}  // namespace

std::vector<index_t> reverse_cuthill_mckee(const CsrMatrix& matrix) {
  SCC_REQUIRE(matrix.rows() == matrix.cols(), "RCM requires a square matrix");
  const auto n = static_cast<std::size_t>(matrix.rows());
  const Adjacency g = build_symmetric_adjacency(matrix);

  auto degree = [&](index_t v) {
    return g.ptr[static_cast<std::size_t>(v) + 1] - g.ptr[static_cast<std::size_t>(v)];
  };

  std::vector<index_t> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  // Visit marks of the start-vertex search, stamped with the component's
  // seed + 1 so no per-component reset is needed.
  std::vector<index_t> seen(n, 0);
  std::vector<index_t> sweep;

  for (index_t seed = 0; static_cast<std::size_t>(seed) < n; ++seed) {
    if (placed[static_cast<std::size_t>(seed)]) continue;
    // Start vertex: the last vertex one BFS sweep from the component's seed
    // reaches, a vertex of maximal distance from the seed.
    const index_t stamp = seed + 1;
    sweep.clear();
    bfs(
        g, seed, sweep,
        [&](index_t w) {
          const auto i = static_cast<std::size_t>(w);
          if (placed[i] || seen[i] == stamp) return false;
          seen[i] = stamp;
          return true;
        },
        [](std::size_t) {});

    // Cuthill-McKee: BFS expanding each vertex's unplaced neighbours in
    // increasing-degree order.
    bfs(
        g, sweep.back(), order,
        [&](index_t w) {
          const auto i = static_cast<std::size_t>(w);
          if (placed[i]) return false;
          placed[i] = true;
          return true;
        },
        [&](std::size_t first) {
          std::sort(order.begin() + static_cast<std::ptrdiff_t>(first), order.end(),
                    [&](index_t a, index_t b) { return degree(a) < degree(b); });
        });
  }
  SCC_ASSERT(order.size() == n, "RCM did not place every vertex");
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace scc::sparse
