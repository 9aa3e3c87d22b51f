#include "sim/format_traces.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "sim/trace_internal.hpp"

namespace scc::sim {

namespace {

void check_block(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block) {
  SCC_REQUIRE(block.row_begin >= 0 && block.row_end <= matrix.rows() &&
                  block.row_begin <= block.row_end,
              "row block out of range");
}

index_t max_row_length(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block) {
  index_t width = 0;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    width = std::max(width, matrix.row_length(r));
  }
  return width;
}

/// The ELL inner loops over a local column-major slab of the given width;
/// shared by the pure-ELL trace and the ELL part of HYB. `row_limit(r)`
/// gives how many real entries row r contributes to the slab.
void ell_slab_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                    index_t width, detail::Tracker& tracker) {
  const auto rows_local = static_cast<std::uint64_t>(block.row_count());
  for (index_t j = 0; j < width; ++j) {
    for (index_t r = block.row_begin; r < block.row_end; ++r) {
      const auto local_r = static_cast<std::uint64_t>(r - block.row_begin);
      const auto slot = static_cast<std::uint64_t>(j) * rows_local + local_r;
      tracker.access(detail::kIndexBase + kIndexBytes * slot, false);
      tracker.access(detail::kValueBase + kValueBytes * slot, false);
      // Padding slots carry column 0 (they multiply by a stored zero).
      const auto cols = matrix.row_cols(r);
      const std::uint64_t x_elem =
          j < static_cast<index_t>(cols.size())
              ? static_cast<std::uint64_t>(cols[static_cast<std::size_t>(j)])
              : 0;
      tracker.access(detail::kXBase + kValueBytes * x_elem, false);
      // y[r] += ...: read-modify-write every slice.
      tracker.access(detail::kYBase + kValueBytes * local_r, false);
      tracker.access(detail::kYBase + kValueBytes * local_r, true);
    }
  }
}

}  // namespace

FormatTraceResult run_ell_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                cache::Hierarchy& hierarchy, cache::Tlb* tlb) {
  check_block(matrix, block);
  const index_t width = max_row_length(matrix, block);
  detail::Tracker tracker(hierarchy, tlb);
  ell_slab_trace(matrix, block, width, tracker);
  FormatTraceResult out;
  out.trace = tracker.finish(block.row_count(), block.nnz);
  out.executed_elements = static_cast<double>(width) * static_cast<double>(block.row_count());
  out.rows_iterated = static_cast<double>(block.row_count());
  return out;
}

FormatTraceResult run_bcsr_trace(const sparse::CsrMatrix& matrix,
                                 const sparse::RowBlock& block, index_t block_size,
                                 cache::Hierarchy& hierarchy, cache::Tlb* tlb) {
  check_block(matrix, block);
  SCC_REQUIRE(block_size >= 1 && block_size <= 16, "block size out of [1,16]");
  const auto b = static_cast<std::uint64_t>(block_size);
  detail::Tracker tracker(hierarchy, tlb);

  const index_t rows_local = block.row_count();
  const index_t block_rows = (rows_local + block_size - 1) / block_size;
  std::uint64_t stored_blocks = 0;
  std::uint64_t value_cursor = 0;
  std::uint64_t bcol_cursor = 0;
  std::map<index_t, bool> block_cols;  // sorted, reused per block row
  for (index_t br = 0; br < block_rows; ++br) {
    // Block-row pointer (one 4-byte read, like the CSR ptr stream).
    tracker.access(detail::kPtrBase + kPtrBytes * static_cast<std::uint64_t>(br + 1), false);
    const index_t r_begin = block.row_begin + br * block_size;
    const index_t r_end = std::min<index_t>(r_begin + block_size, block.row_end);
    block_cols.clear();
    for (index_t r = r_begin; r < r_end; ++r) {
      for (index_t c : matrix.row_cols(r)) block_cols.emplace(c / block_size, true);
    }
    for (const auto& [bc, _] : block_cols) {
      ++stored_blocks;
      tracker.access(detail::kIndexBase + kIndexBytes * bcol_cursor++, false);
      // Dense b x b payload streamed, with one x load per block column
      // element (registers carry x across the unrolled row loop) and a
      // read-modify-write of each y element.
      for (std::uint64_t e = 0; e < b * b; ++e) {
        tracker.access(detail::kValueBase + kValueBytes * (value_cursor + e), false);
      }
      value_cursor += b * b;
      for (std::uint64_t jj = 0; jj < b; ++jj) {
        const auto x_elem = static_cast<std::uint64_t>(bc) * b + jj;
        if (x_elem < static_cast<std::uint64_t>(matrix.cols())) {
          tracker.access(detail::kXBase + kValueBytes * x_elem, false);
        }
      }
      for (index_t r = r_begin; r < r_end; ++r) {
        const auto local_r = static_cast<std::uint64_t>(r - block.row_begin);
        tracker.access(detail::kYBase + kValueBytes * local_r, false);
        tracker.access(detail::kYBase + kValueBytes * local_r, true);
      }
    }
  }
  FormatTraceResult out;
  out.trace = tracker.finish(block.row_count(), block.nnz);
  out.executed_elements = static_cast<double>(stored_blocks) * static_cast<double>(b * b);
  out.rows_iterated = static_cast<double>(block_rows);
  return out;
}

FormatTraceResult run_hyb_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                double spill_fraction, cache::Hierarchy& hierarchy,
                                cache::Tlb* tlb) {
  check_block(matrix, block);
  SCC_REQUIRE(spill_fraction >= 0.0 && spill_fraction < 1.0, "spill_fraction out of [0,1)");

  // Bell-Garland split over the local block: smallest width whose tail stays
  // within the spill budget. The tail shrinks as the width grows, so scan
  // down from the longest row: lowering the width from w to w-1 spills one
  // more entry from every row of length >= w.
  const index_t max_len = max_row_length(matrix, block);
  std::vector<nnz_t> rows_of_length(static_cast<std::size_t>(max_len) + 1, 0);
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    ++rows_of_length[static_cast<std::size_t>(matrix.row_length(r))];
  }
  const auto budget = static_cast<nnz_t>(spill_fraction * static_cast<double>(block.nnz));
  index_t width = max_len;
  nnz_t spill = 0;          // tail entries at `width`
  nnz_t rows_at_least = 0;  // rows of length >= width
  while (width > 0) {
    rows_at_least += rows_of_length[static_cast<std::size_t>(width)];
    if (spill + rows_at_least > budget) break;
    spill += rows_at_least;
    --width;
  }

  detail::Tracker tracker(hierarchy, tlb);
  ell_slab_trace(matrix, block, width, tracker);

  // COO tail: entries beyond `width` per row, row-major. Streams: row index,
  // column index, value; x indirect; y read-modify-write (row-major order,
  // so y behaves like a slow-moving stream).
  std::uint64_t tail_cursor = 0;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    const auto cols = matrix.row_cols(r);
    const auto local_r = static_cast<std::uint64_t>(r - block.row_begin);
    for (std::size_t k = static_cast<std::size_t>(width); k < cols.size(); ++k) {
      tracker.access(detail::kAuxBase + kIndexBytes * tail_cursor, false);    // row idx
      tracker.access(detail::kIndexBase + kIndexBytes * tail_cursor, false);  // col idx
      tracker.access(detail::kValueBase + kValueBytes * tail_cursor, false);
      tracker.access(detail::kXBase + kValueBytes * static_cast<std::uint64_t>(cols[k]),
                     false);
      tracker.access(detail::kYBase + kValueBytes * local_r, false);
      tracker.access(detail::kYBase + kValueBytes * local_r, true);
      ++tail_cursor;
    }
  }

  FormatTraceResult out;
  out.trace = tracker.finish(block.row_count(), block.nnz);
  out.executed_elements =
      static_cast<double>(width) * static_cast<double>(block.row_count()) +
      static_cast<double>(tail_cursor);
  out.rows_iterated = static_cast<double>(block.row_count());
  return out;
}

FormatTraceResult trace_block(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                              StorageFormat format, SpmvVariant variant,
                              cache::Hierarchy& hierarchy, cache::Tlb* tlb) {
  switch (format) {
    case StorageFormat::kCsr: {
      const TraceResult trace = run_spmv_trace(matrix, block, variant, hierarchy, tlb);
      return {trace, static_cast<double>(trace.nnz), static_cast<double>(trace.rows)};
    }
    case StorageFormat::kEll:
      return run_ell_trace(matrix, block, hierarchy, tlb);
    case StorageFormat::kBcsr2:
      return run_bcsr_trace(matrix, block, 2, hierarchy, tlb);
    case StorageFormat::kBcsr4:
      return run_bcsr_trace(matrix, block, 4, hierarchy, tlb);
    case StorageFormat::kHyb:
      return run_hyb_trace(matrix, block, 0.33, hierarchy, tlb);
  }
  SCC_ASSERT(false, "unknown storage format " << static_cast<int>(format));
  return {};
}

}  // namespace scc::sim
