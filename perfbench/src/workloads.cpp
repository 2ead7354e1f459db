#include "workloads.hpp"

#include <stdexcept>

#include "runtime/seed.hpp"

namespace perfbench {

using dfsim::ExperimentPoint;
using dfsim::SimConfig;

namespace {

ExperimentPoint point(const SimConfig& base, const std::string& series,
                      const std::string& routing, double load) {
  ExperimentPoint pt;
  pt.series = series;
  pt.x = load;
  pt.cfg = base;
  pt.cfg.routing = routing;
  pt.cfg.load = load;
  return pt;
}

// Paper Figs. 4-9 at h = 3 (342 terminals): the VCT line-ups on UN,
// ADVG+1 and ADVG+h, and the wormhole line-ups on UN and ADVG+h, each at
// loads from well below saturation to past it.
BenchWorkload paper_grid_h3(std::uint64_t seed) {
  BenchWorkload w;
  w.name = "paper_grid_h3";
  w.point_workers = 4;
  SimConfig base;
  base.h = 3;
  base.warmup_cycles = 1000;
  base.measure_cycles = 2000;
  base.seed = seed;

  struct Panel {
    const char* id;
    const char* pattern;
    int offset;
    bool wormhole;
    std::vector<std::string> lineup;
    std::vector<double> loads;
  };
  const std::vector<std::string> vct_un = {"par-6/2", "olm", "rlm", "minimal",
                                           "pb"};
  const std::vector<std::string> vct_adv = {"par-6/2", "olm", "rlm",
                                            "valiant", "pb"};
  const std::vector<std::string> wh_un = {"par-6/2", "rlm", "minimal", "pb"};
  const std::vector<std::string> wh_adv = {"par-6/2", "rlm", "valiant", "pb"};
  const std::vector<Panel> panels = {
      {"vct_UN", "uniform", 0, false, vct_un, {0.2, 0.5, 0.8}},
      {"vct_ADVG+1", "advg", 1, false, vct_adv, {0.1, 0.3, 0.6}},
      {"vct_ADVG+h", "advg", base.h, false, vct_adv, {0.1, 0.3, 0.6}},
      {"wh_UN", "uniform", 0, true, wh_un, {0.2, 0.6}},
      {"wh_ADVG+h", "advg", base.h, true, wh_adv, {0.1, 0.5}},
  };
  for (const Panel& panel : panels) {
    SimConfig pc = base;
    pc.pattern = panel.pattern;
    pc.pattern_offset = panel.offset;
    if (panel.wormhole) {
      pc.flow = dfsim::FlowControl::kWormhole;
      pc.packet_phits = 80;  // 8 flits of 10 phits (paper Sec. IV-B)
      pc.flit_phits = 10;
    }
    for (const std::string& routing : panel.lineup) {
      for (const double load : panel.loads) {
        const bool saturated_advg_h =
            std::string(panel.id) == "vct_ADVG+h" && load == panel.loads.back();
        if (saturated_advg_h) {
          const bool wins = routing == "olm" || routing == "par-6/2";
          const bool loses = routing == "valiant" || routing == "pb";
          if (wins) w.winners.push_back(w.points.size());
          if (loses) w.losers.push_back(w.points.size());
        }
        w.points.push_back(
            point(pc, std::string(panel.id) + ":" + routing, routing, load));
      }
    }
  }
  return w;
}

// One h = 6 steady point (5,256 terminals, olm, UN at 0.3) on the
// group-sharded engine.
BenchWorkload scale_h6_sharded(std::uint64_t seed) {
  BenchWorkload w;
  w.name = "scale_h6_sharded";
  w.direct = true;
  // One shard worker: teams of 2 to 4 spin at every cycle's barriers and
  // did not repeat within the benchmark's bounds on a shared host (README).
  w.shard_workers = 1;
  SimConfig cfg;
  cfg.h = 6;
  cfg.engine = "sharded";
  cfg.pattern = "uniform";
  // 1,200 steps: the traced run's step-time p99 has ten samples beyond it.
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 800;
  cfg.seed = seed;
  w.points.push_back(point(cfg, "h6:olm", "olm", 0.3));
  return w;
}

// Application workloads at h = 4 with periodic checkpointing: a
// request-reply all-to-all with multi-packet messages, four interfering
// jobs under random placement, and a 2-D halo exchange, each on a healthy
// and on a fault-sampled network, for olm, par-6/2, pb and minimal.
//
// Healthy points use the balanced shape (1,056 terminals). The balanced
// shape wires exactly one global link per group pair, which the fault
// sampler never kills, so the degraded points use its twice-trunked
// sibling (g = a*h/2 + 1 = 17, 544 terminals) with a tenth of the global
// links dead.
BenchWorkload apps_faults_h4(std::uint64_t seed) {
  BenchWorkload w;
  w.name = "apps_faults_h4";
  w.point_workers = 4;
  w.checkpoint_every = 500;
  SimConfig base;
  base.h = 4;
  base.warmup_cycles = 500;
  base.measure_cycles = 1000;
  base.load = 0.3;
  base.seed = seed;

  const std::vector<std::string> apps = {
      "coll:alltoall:size=1-4",
      "jobs:4:place=random:alltoall@0.4|ring@0.2|halo2d|shift+1@0.1",
      "coll:halo2d",
  };
  const std::vector<std::string> lineup = {"olm", "par-6/2", "pb", "minimal"};
  for (int faulted = 0; faulted < 2; ++faulted) {
    SimConfig nc = base;
    if (faulted != 0) {
      nc.g = 17;
      nc.fault_fraction = 0.1;
      nc.fault_seed = dfsim::runtime::derive_seed(seed, 0xfa17);
    }
    for (const std::string& app : apps) {
      SimConfig ac = nc;
      ac.workload = app;
      for (const std::string& routing : lineup) {
        w.points.push_back(point(
            ac, std::string(faulted ? "faulted:" : "healthy:") + app + ":" +
                    routing,
            routing, base.load));
      }
    }
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_grid_h3", "scale_h6_sharded", "apps_faults_h4"};
  return names;
}

BenchWorkload make_bench_workload(const std::string& name,
                                  std::uint64_t seed) {
  if (name == "paper_grid_h3") return paper_grid_h3(seed);
  if (name == "scale_h6_sharded") return scale_h6_sharded(seed);
  if (name == "apps_faults_h4") return apps_faults_h4(seed);
  std::string known;
  for (const std::string& n : workload_names()) {
    known += (known.empty() ? "" : ", ") + n;
  }
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (known: " + known + ")");
}

}  // namespace perfbench
