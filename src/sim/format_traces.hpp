// Access-trace generators for alternative SpMV storage formats, enabling the
// question the paper's conclusions point at: would the blocking/padding
// optimizations of Williams et al. [11] and Bell & Garland [9] have paid off
// on the SCC? Each function replays the reference stream of the respective
// kernel over one UE's row block through the core's TLB + cache hierarchy,
// deriving the pattern directly from the CSR matrix (the format's layout is
// computed on the fly, not materialized).
//
// Layouts assumed per UE (all in its private memory, like the CSR trace):
//  * ELL: local slab of width = max row length in the block, column-major
//    slices; the kernel iterates slice-major and re-streams y per slice.
//  * BCSR: square b x b blocks aligned to multiples of b in the *local* row
//    numbering; per stored block the kernel streams b*b values and touches
//    b consecutive x and y elements.
//  * HYB: ELL slab at the Bell-Garland split plus a COO tail with
//    row/col/value streams and read-modify-write y updates.
#pragma once

#include "sim/spmv_trace.hpp"

namespace scc::sim {

/// Storage formats the engine can replay (the format-study extension: the
/// CSR baseline vs. the optimized layouts of the paper's references [9]/[11]).
enum class StorageFormat { kCsr, kEll, kBcsr2, kBcsr4, kHyb };

/// Trace statistics common to every format, plus the format's element count
/// (stored slots including padding/fill -- what the kernel actually
/// executes over).
struct FormatTraceResult {
  TraceResult trace;
  double executed_elements = 0.0;  ///< slots/values the kernel iterates
  double rows_iterated = 0.0;      ///< per-row (or per-block-row) loop trips
};

FormatTraceResult run_ell_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                cache::Hierarchy& hierarchy, cache::Tlb* tlb);

FormatTraceResult run_bcsr_trace(const sparse::CsrMatrix& matrix,
                                 const sparse::RowBlock& block, index_t block_size,
                                 cache::Hierarchy& hierarchy, cache::Tlb* tlb);

FormatTraceResult run_hyb_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                double spill_fraction, cache::Hierarchy& hierarchy,
                                cache::Tlb* tlb);

/// The engine's one replay dispatch: the reference stream of `block` in
/// `format` through the core's TLB + caches, as raw counts. CSR replays
/// `variant` and reports {trace, nnz, rows}; the other formats take the CSR
/// kernel only, and HYB spills at the Bell-Garland budget of 0.33.
FormatTraceResult trace_block(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                              StorageFormat format, SpmvVariant variant,
                              cache::Hierarchy& hierarchy, cache::Tlb* tlb);

}  // namespace scc::sim
