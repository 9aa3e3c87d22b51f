// Figure 5: parallel SpMV performance under the default ("standard") UE-to-
// core mapping vs. the paper's distance-reduction mapping, across core
// counts. The paper reports speedups up to ~1.23, growing with core count,
// and identical results at 1-2 cores.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace scc;
  benchutil::Reporter rep("fig5_mapping");
  rep.banner("Figure 5", "standard vs. distance-reduction mapping");
  const auto suite = benchutil::load_suite();
  const sim::Engine engine;

  Table table("suite-average performance by mapping configuration (conf0)");
  table.set_header({"cores", "standard (MFLOPS)", "dist-reduction (MFLOPS)", "speedup",
                    "avg hops std", "avg hops dr"});

  double best_speedup = 0.0;
  double speedup_at_2 = 0.0;
  sim::RunSpec standard;
  standard.policy = chip::MappingPolicy::kStandard;
  sim::RunSpec reduced;
  reduced.policy = chip::MappingPolicy::kDistanceReduction;
  for (int cores : benchutil::core_count_sweep()) {
    standard.ue_count = cores;
    reduced.ue_count = cores;
    const double std_perf = benchutil::suite_mean_gflops(engine, suite, standard) * 1000.0;
    const double dr_perf = benchutil::suite_mean_gflops(engine, suite, reduced) * 1000.0;
    const double speedup = dr_perf / std_perf;
    best_speedup = std::max(best_speedup, speedup);
    if (cores == 2) speedup_at_2 = speedup;
    table.add_row(
        {Table::integer(cores), Table::num(std_perf, 1), Table::num(dr_perf, 1),
         Table::num(speedup, 3),
         Table::num(chip::average_hops(
                        chip::map_ues_to_cores(chip::MappingPolicy::kStandard, cores)), 2),
         Table::num(chip::average_hops(chip::map_ues_to_cores(
                        chip::MappingPolicy::kDistanceReduction, cores)), 2)});
  }
  rep.emit(table, "fig5_mapping");

  const bool ok = rep.check_claims(
      {{"max speedup of distance reduction (paper: up to ~1.23)", 1.23, best_speedup, 0.15},
       {"no difference at 2 cores (same core sets)", 1.0, speedup_at_2, 0.001}});
  return rep.finish(ok);
}
