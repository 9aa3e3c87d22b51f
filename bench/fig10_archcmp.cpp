// Figure 10: architectural comparison -- average SpMV performance (a) and
// power efficiency (b) of the SCC against an Itanium2 Montvale, a Xeon
// X5570, an Opteron 6174 and two NVIDIA Teslas (C1060, M2050). SCC numbers
// come from the simulator; the reference machines use the roofline SpMV
// model of src/archcmp (see its header for the calibration note).
// Paper: the SCC beats only the Itanium2; the M2050 averages ~7.9 GFLOPS
// (7.6x SCC-conf0) and ~35 MFLOPS/W, topping both charts.
#include <iostream>

#include "archcmp/machines.hpp"
#include "bench_common.hpp"
#include "scc/power.hpp"

int main() {
  using namespace scc;
  benchutil::Reporter rep("fig10_archcmp");
  rep.banner("Figure 10", "architectural comparison: CPUs, GPUs and the SCC");
  const auto suite = benchutil::load_suite();

  // SCC measurements (48 cores, distance-reduction mapping).
  const chip::PowerModel power;
  struct SccPoint {
    std::string name;
    double gflops;
    double watts;
  };
  std::vector<SccPoint> scc_points;
  for (const auto& [name, freq] : {std::pair{std::string{"SCC conf0"},
                                             chip::FrequencyConfig::conf0()},
                                   std::pair{std::string{"SCC conf1"},
                                             chip::FrequencyConfig::conf1()}}) {
    sim::EngineConfig cfg;
    cfg.freq = freq;
    sim::RunSpec spec;
    spec.ue_count = 48;
    spec.policy = chip::MappingPolicy::kDistanceReduction;
    const double gflops = benchutil::suite_mean_gflops(sim::Engine(cfg), suite, spec);
    scc_points.push_back({name, gflops, power.full_system_watts(freq)});
  }

  Table table("Fig 10: full-system SpMV performance and power efficiency");
  table.set_header({"system", "GFLOPS/s", "watts", "MFLOPS/W"});
  struct Row {
    std::string name;
    double gflops;
    double mflops_per_watt;
  };
  std::vector<Row> rows;
  for (const auto& m : archcmp::reference_machines()) {
    rows.push_back({m.name, archcmp::predicted_spmv_gflops(m),
                    archcmp::predicted_mflops_per_watt(m)});
    table.add_row({m.name, Table::num(rows.back().gflops, 2), Table::num(m.tdp_watts, 0),
                   Table::num(rows.back().mflops_per_watt, 1)});
  }
  for (const auto& p : scc_points) {
    rows.push_back({p.name, p.gflops, p.gflops * 1000.0 / p.watts});
    table.add_row({p.name, Table::num(p.gflops, 2), Table::num(p.watts, 1),
                   Table::num(rows.back().mflops_per_watt, 1)});
  }
  rep.emit(table, "fig10_archcmp");

  auto find = [&](const std::string& name) -> const Row& {
    for (const auto& r : rows) {
      if (r.name == name) return r;
    }
    throw std::runtime_error("row not found: " + name);
  };
  const Row& itanium = find("Itanium2 Montvale");
  const Row& m2050 = find("Tesla M2050");
  const Row& scc0 = find("SCC conf0");

  const bool ok = rep.check_claims(
      {{"M2050 average (paper: ~7.9 GFLOPS)", 7.9, m2050.gflops, 0.15},
       {"M2050 speedup over SCC conf0 (paper: ~7.6x)", 7.6, m2050.gflops / scc0.gflops, 0.35},
       {"SCC outperforms the Itanium2 (perf ratio > 1)", 1.25,
        scc0.gflops / itanium.gflops, 0.5},
       {"SCC beats Itanium2 on MFLOPS/W by a larger margin", 1.5,
        scc0.mflops_per_watt / itanium.mflops_per_watt, 0.5},
       {"M2050 tops power efficiency (paper: ~35 MFLOPS/W)", 35.0, m2050.mflops_per_watt,
        0.15}});
  return rep.finish(ok);
}
