// Per-layer probes of traced runs: each times calls into one module's public
// functions from the benchmark's own code, independent of the workload.
#pragma once

#include "perfbench.hpp"

namespace perfbench {

/// Add every layer metric measured by a probe to `table`, recording one span
/// per public call under op ids starting at `first_op_id`.
void run_layer_probes(const Options& options, Tracer& tracer, long long first_op_id,
                      MetricTable& table);

}  // namespace perfbench
