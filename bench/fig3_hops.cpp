// Figure 3: single-core SpMV performance as a function of the core's mesh
// distance (0-3 hops) to its memory controller. The paper reports a steady
// degradation reaching ~12% at 3 hops.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace scc;
  benchutil::Reporter rep("fig3_hops");
  rep.banner("Figure 3", "single-core performance vs. hops to the memory controller");
  const auto suite = benchutil::load_suite();
  const sim::Engine engine;  // conf0 defaults

  Table table("suite-average single-core performance by hop distance (conf0)");
  table.set_header({"hops", "MFLOPS/s", "relative to 0 hops", "Eq.1 latency (ns)"});

  std::vector<double> perf;
  sim::RunSpec spec;
  spec.cores = {0};
  for (int hops = 0; hops <= 3; ++hops) {
    spec.forced_hops = hops;
    perf.push_back(benchutil::suite_mean_gflops(engine, suite, spec) * 1000.0);
  }
  for (int hops = 0; hops <= 3; ++hops) {
    const auto h = static_cast<std::size_t>(hops);
    table.add_row({Table::integer(hops), Table::num(perf[h], 1),
                   Table::num(perf[h] / perf[0], 3),
                   Table::num(chip::memory_latency_ns(engine.config().freq, 0, hops), 1)});
  }
  rep.emit(table, "fig3_hops");

  const double degradation_3hop = 1.0 - perf[3] / perf[0];
  std::cout << "\n3-hop degradation: " << Table::num(degradation_3hop * 100.0, 1) << "%\n";

  const bool ok = rep.check_claims(
      {{"3-hop degradation (paper: ~12%)", 0.12, degradation_3hop, 0.5},
       {"performance monotonically decreasing (1=yes)", 1.0,
        (perf[0] > perf[1] && perf[1] > perf[2] && perf[2] > perf[3]) ? 1.0 : 0.0, 0.0}});
  return rep.finish(ok);
}
