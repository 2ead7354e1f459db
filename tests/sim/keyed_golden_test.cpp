// Keyed-mode (engine=sharded) goldens: run_steady results pinned across
// versions. Worker-count invariance (sharded_test) only compares a keyed
// run against itself at another jobs count; these rows pin the simulated
// outcome of the keyed RNG regime itself, so a stepper change that moves
// any keyed draw, decision or event order shows up here. Doubles are
// compared exactly (the rows were printed with "%.17g").
//
// The rows were captured before the keyed stepper's fused flit arrival,
// guaranteed-wait sleeps and lazy per-decision streams, none of which may
// change a simulated bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>

#include "api/config.hpp"
#include "api/simulator.hpp"
#include "runtime/parallel_for.hpp"

namespace dfsim {
namespace {

struct KeyedGolden {
  const char* routing;
  const char* pattern;
  int h;
  double avg_latency;
  double p99_latency;
  double accepted_load;
  double offered_load;
  double source_drop_rate;
  double avg_hops;
  std::uint64_t delivered;
  std::uint64_t dead_destination_drops;
};

/// Pins the process-default worker count for the test (results are
/// jobs-invariant; this only keeps the thread count small).
class JobsGuard {
 public:
  explicit JobsGuard(int jobs) { runtime::set_default_jobs(jobs); }
  ~JobsGuard() { runtime::set_default_jobs(0); }
  JobsGuard(const JobsGuard&) = delete;
  JobsGuard& operator=(const JobsGuard&) = delete;
};

SimConfig keyed_config(int h, const char* routing, const char* pattern) {
  SimConfig cfg;
  cfg.h = h;
  cfg.engine = "sharded";
  cfg.routing = routing;
  cfg.pattern = pattern;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 1200;
  // Uniform traffic near the knee, adversarial traffic past minimal
  // routing's saturation: both keep adaptive heads blocked and retrying.
  cfg.load = std::string(pattern) == "uniform" ? 0.5 : 0.35;
  cfg.seed = 11;
  return cfg;
}

// The result as a table row, ready to paste when a change moves keyed
// results on purpose.
std::string format_row(const KeyedGolden& g, const SteadyResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "{\"%s\", \"%s\", %d, %.17g, %.17g, ",
                g.routing, g.pattern, g.h, r.avg_latency, r.p99_latency);
  std::string row = buf;
  std::snprintf(buf, sizeof(buf), "%.17g, %.17g, %.17g, %.17g, ",
                r.accepted_load, r.offered_load, r.source_drop_rate,
                r.avg_hops);
  row += buf;
  return row + std::to_string(r.delivered) + ", " +
         std::to_string(r.dead_destination_drops) + "},";
}

void expect_golden(const KeyedGolden& g, const SteadyResult& r) {
  SCOPED_TRACE(format_row(g, r));  // the actual row
  EXPECT_EQ(r.avg_latency, g.avg_latency);
  EXPECT_EQ(r.p99_latency, g.p99_latency);
  EXPECT_EQ(r.accepted_load, g.accepted_load);
  EXPECT_EQ(r.offered_load, g.offered_load);
  EXPECT_EQ(r.source_drop_rate, g.source_drop_rate);
  EXPECT_EQ(r.avg_hops, g.avg_hops);
  EXPECT_EQ(r.delivered, g.delivered);
  EXPECT_EQ(r.dead_destination_drops, g.dead_destination_drops);
  EXPECT_FALSE(r.deadlock);
}

// h=2 (9 groups) and h=3 (19 groups), UN@0.5 and ADVG+h@0.35, 400+1200
// cycles, seed 11.
constexpr KeyedGolden kSteadyGoldens[] = {
    {"olm", "uniform", 2, 174.97643690816949, 357.41935483870969,
     0.49305555555555558, 0.495, 0, 2.8291125302796685, 4541, 0},
    {"par-6/2", "uniform", 2, 183.00824053452124, 364.77611940298505,
     0.49277777777777776, 0.495, 0, 2.9244988864142605, 4490, 0},
    {"rlm", "uniform", 2, 167.92971315962322, 350.07407407407408,
     0.49249999999999999, 0.495, 0, 2.6387125027370315, 4567, 0},
    {"pb", "uniform", 2, 186.73496409335752, 351.02439024390242,
     0.48148148148148145, 0.495, 0, 2.7414721723518869, 4456, 0},
    {"valiant", "uniform", 2, 349.846241783366, 606.15384615384619,
     0.44064814814814812, 0.495, 0, 4.1929122606459082, 3499, 0},
    {"olm", "advg+2", 2, 249.93006993007029, 359.21951219512198,
     0.33629629629629632, 0.34287037037037038, 0, 4.077272727272744, 2860, 0},
    {"par-6/2", "advg+2", 2, 249.94454133240384, 351.15384615384613,
     0.33685185185185185, 0.34287037037037038, 0, 4.0627833972793956, 2867, 0},
    {"rlm", "advg+2", 2, 250.09087719298196, 367.13043478260869,
     0.33555555555555555, 0.34287037037037038, 0, 3.8778947368420997, 2850, 0},
    {"pb", "advg+2", 2, 275.46153846153834, 380, 0.34407407407407409,
     0.34287037037037038, 0, 4.0593098490294688, 2782, 0},
    {"valiant", "advg+2", 2, 342.45748502993979, 494.73684210526318,
     0.31620370370370371, 0.34287037037037038, 0, 4.5616766467065926, 2505, 0},
    {"olm", "uniform", 3, 196.92889746364881, 377.69072164948454,
     0.49951267056530213, 0.50076023391812863, 0, 3.2979153922168436, 21251, 0},
    {"par-6/2", "uniform", 3, 208.3625680710808, 383.4219653179191,
     0.49717348927875243, 0.50076023391812863, 0, 3.4367058373937023, 20934, 0},
    {"rlm", "uniform", 3, 191.39473560957492, 370.35616438356163,
     0.49727095516569203, 0.50076023391812863, 0, 3.1170905344011963, 21351, 0},
    {"pb", "uniform", 3, 206.98303076266731, 381.39877300613495,
     0.48674463937621831, 0.50076023391812863, 0, 3.0465469024031915, 21097, 0},
    {"valiant", "uniform", 3, 426.4333676622033, 821.88235294117646,
     0.41161793372319688, 0.50076023391812863, 0, 4.4772399588053773, 14565, 0},
    {"olm", "advg+3", 3, 286.97087450776525, 389.30612244897958,
     0.34676413255360622, 0.35015594541910333, 0, 4.7267256111152287, 13459, 0},
    {"par-6/2", "advg+3", 3, 283.14076593227912, 374.54545454545456,
     0.34756335282651074, 0.35015594541910333, 0, 4.6720390359308048, 13526, 0},
    {"rlm", "advg+3", 3, 294.13362360183214, 447.35483870967744,
     0.34401559454191033, 0.35015594541910333, 0, 4.5082951730350294, 13321, 0},
    {"pb", "advg+3", 3, 426.09184167231166, 677.71428571428567,
     0.29988304093567253, 0.35015594541910333, 0, 4.1737152811381026, 10333, 0},
    {"valiant", "advg+3", 3, 500.16473955351955, 811.04761904761904,
     0.26327485380116961, 0.35015594541910333, 0, 4.6998282770463735, 8735, 0},
};

// The faulted, ON/OFF and workload points below, in that order; `pattern`
// names the variant.
constexpr KeyedGolden kVariantGoldens[] = {
    {"olm", "faulted", 2, 165.89276982186504, 338.48275862068965,
     0.3062037037037037, 0.35185185185185186, 0, 2.7911281872162084, 2863, 611},
    {"par-6/2", "onoff", 2, 247.15729927007291, 349.70212765957444,
     0.31861111111111112, 0.31555555555555553, 0, 3.9868613138686118, 2740, 0},
    {"rlm", "workload", 2, 163.07732919254636, 388.66666666666669,
     0.33620370370370373, 0.35398148148148151, 0, 2.311180124223605, 3220, 0},
};

TEST(KeyedGolden, SteadyMatchesPinnedRows) {
  JobsGuard guard(2);
  for (const KeyedGolden& g : kSteadyGoldens) {
    expect_golden(g, run_steady(keyed_config(g.h, g.routing, g.pattern)));
  }
}

TEST(KeyedGolden, FaultedGroupMatchesPinnedRow) {
  JobsGuard guard(2);
  SimConfig cfg = keyed_config(2, "olm", "uniform");
  cfg.fault_spec = "r:4,r:5,r:6,r:7";  // one whole dead group
  cfg.load = 0.4;
  expect_golden(kVariantGoldens[0], run_steady(cfg));
}

TEST(KeyedGolden, OnOffSourcesMatchPinnedRow) {
  JobsGuard guard(2);
  SimConfig cfg = keyed_config(2, "par-6/2", "advg+2");
  cfg.onoff_on = 0.05;
  cfg.onoff_off = 0.05;
  cfg.load = 0.3;
  expect_golden(kVariantGoldens[1], run_steady(cfg));
}

TEST(KeyedGolden, WorkloadMatchesPinnedRow) {
  JobsGuard guard(2);
  SimConfig cfg = keyed_config(2, "rlm", "uniform");
  cfg.workload = "jobs:2:alltoall:size=1-3:reply=1|ring@0.15";
  cfg.load = 0.2;
  const SteadyResult r = run_steady(cfg);
  expect_golden(kVariantGoldens[2], r);
  // Per-job attribution: (delivered, delivered phits, avg latency,
  // accepted load) of each job.
  struct JobGolden {
    std::uint64_t delivered;
    std::uint64_t delivered_phits;
    double avg_latency;
    double accepted_load;
  };
  constexpr JobGolden kJobs[] = {
      {2469, 22864, 199.71931956257595, 0.52925925925925921},
      {751, 6184, 42.612516644474034, 0.14314814814814814},
  };
  ASSERT_EQ(r.per_job.size(), std::size(kJobs));
  for (std::size_t j = 0; j < r.per_job.size(); ++j) {
    SCOPED_TRACE(j);
    const TrafficWindow& w = r.per_job[j];
    EXPECT_EQ(w.delivered, kJobs[j].delivered);
    EXPECT_EQ(w.delivered_phits, kJobs[j].delivered_phits);
    EXPECT_EQ(w.avg_latency, kJobs[j].avg_latency);
    EXPECT_EQ(w.accepted_load, kJobs[j].accepted_load);
  }
}

}  // namespace
}  // namespace dfsim
