// Figure 9: performance (a) and power efficiency (b) of the three SCC
// clock-frequency configurations. Paper: conf1 (800/1600/1066) reaches
// speedups up to ~1.45 over conf0 (533/800/800); conf2 (800/1600/800) about
// ~1.2; the conf1-conf2 gap (~15%) is purely the memory clock. On power:
// 83.3 W -> ~107 W from conf0 to conf1 at 48 cores, conf1 the best
// MFLOPS/W, conf0 and conf2 practically equal.
#include <iostream>

#include "bench_common.hpp"
#include "scc/power.hpp"

int main() {
  using namespace scc;
  benchutil::Reporter rep("fig9_freq");
  rep.banner("Figure 9", "performance and power efficiency of SCC configurations");
  const auto suite = benchutil::load_suite();

  struct Conf {
    std::string name;
    chip::FrequencyConfig freq;
  };
  const std::vector<Conf> confs = {{"conf0", chip::FrequencyConfig::conf0()},
                                   {"conf1", chip::FrequencyConfig::conf1()},
                                   {"conf2", chip::FrequencyConfig::conf2()}};

  // --- Fig 9(a): performance vs. cores per configuration. ---
  Table perf_table("Fig 9a: suite-average performance (MFLOPS, distance-reduction)");
  perf_table.set_header({"cores", "conf0", "conf1", "conf2", "speedup1", "speedup2"});
  std::vector<std::vector<double>> perf(confs.size());
  sim::RunSpec spec;
  spec.policy = chip::MappingPolicy::kDistanceReduction;
  for (int cores : benchutil::core_count_sweep()) {
    spec.ue_count = cores;
    std::vector<std::string> row = {Table::integer(cores)};
    std::vector<double> at_count;
    for (std::size_t c = 0; c < confs.size(); ++c) {
      sim::EngineConfig cfg;
      cfg.freq = confs[c].freq;
      const double mflops = benchutil::suite_mean_gflops(sim::Engine(cfg), suite, spec) * 1000.0;
      perf[c].push_back(mflops);
      at_count.push_back(mflops);
      row.push_back(Table::num(mflops, 1));
    }
    row.push_back(Table::num(at_count[1] / at_count[0], 3));
    row.push_back(Table::num(at_count[2] / at_count[0], 3));
    perf_table.add_row(std::move(row));
  }
  rep.emit(perf_table, "fig9a_performance");

  double best_speedup1 = 0.0;
  double best_speedup2 = 0.0;
  for (std::size_t i = 0; i < perf[0].size(); ++i) {
    best_speedup1 = std::max(best_speedup1, perf[1][i] / perf[0][i]);
    best_speedup2 = std::max(best_speedup2, perf[2][i] / perf[0][i]);
  }
  const double conf1_vs_conf2_at48 = perf[1].back() / perf[2].back();

  // --- Fig 9(b): full-system power efficiency. ---
  const chip::PowerModel power;
  Table eff_table("Fig 9b: full-system (48-core) power efficiency");
  eff_table.set_header({"conf", "frequencies", "MFLOPS", "watts", "MFLOPS/W"});
  std::vector<double> efficiency;
  std::vector<double> watts_by_conf;
  for (std::size_t c = 0; c < confs.size(); ++c) {
    const double mflops = perf[c].back();  // 48-core entry
    const double watts = power.full_system_watts(confs[c].freq);
    watts_by_conf.push_back(watts);
    efficiency.push_back(mflops / watts);
    eff_table.add_row({confs[c].name, confs[c].freq.describe(), Table::num(mflops, 1),
                       Table::num(watts, 1), Table::num(mflops / watts, 2)});
  }
  rep.emit(eff_table, "fig9b_efficiency");

  const bool ok = rep.check_claims(
      {{"conf1 max speedup (paper: up to ~1.45)", 1.45, best_speedup1, 0.25},
       {"conf2 speedup (paper: ~1.2)", 1.2, best_speedup2, 0.25},
       {"conf1 over conf2 at 48 cores (paper: ~15% memory-clock gain)", 1.15,
        conf1_vs_conf2_at48, 0.12},
       {"conf0 full-system power (paper: 83.3 W)", 83.3, watts_by_conf[0], 0.05},
       {"conf1 full-system power (paper: ~107 W)", 107.4, watts_by_conf[1], 0.08},
       {"conf1 most power-efficient (1=yes)", 1.0,
        (efficiency[1] > efficiency[0] && efficiency[1] > efficiency[2]) ? 1.0 : 0.0, 0.0},
       {"conf0 ~ conf2 efficiency (ratio ~1)", 1.0, efficiency[2] / efficiency[0], 0.12}});
  return rep.finish(ok);
}
