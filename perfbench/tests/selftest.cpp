// Self-test of the benchmark's own code: the percentile definitions and
// their sample-count rule, the metric-name grammar, decorator
// transparency (traced and plain runs give bit-identical simulated
// results to the undecorated SimulationRun, on both engines), and that
// the tracing bookkeeping stays out of the timed hook calls. Run through
// `python3 perfbench/run.py --selftest`.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/simulator.hpp"
#include "metrics/collector.hpp"
#include "runtime/parallel_for.hpp"
#include "stats.hpp"
#include "tracing.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_percentiles() {
  using perfbench::percentile;
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 5, 4, 6};
  check(percentile(ten, 50.0) == 5.0, "p50 of 1..10 is the 5th value");
  check(percentile(ten, 90.0) == 9.0, "p90 of 1..10 is the 9th value");
  check(percentile(ten, 99.0) == 10.0, "p99 of 1..10 rounds up to the max");
  check(percentile(ten, 100.0) == 10.0, "p100 is the max");
  check(percentile(ten, 1.0) == 1.0, "p1 of 1..10 is the min");
  check(percentile({42.0}, 99.0) == 42.0, "one sample is every percentile");
  check(percentile({}, 50.0) == 0.0, "empty sample reads 0");

  using perfbench::samples_beyond;
  check(samples_beyond(1000, 99.0) == 10, "p99 of 1000 has 10 beyond");
  check(samples_beyond(900, 99.0) == 9, "p99 of 900 has 9 beyond");
  check(samples_beyond(10000, 99.9) == 10, "p99.9 of 10000 has 10 beyond");
  check(samples_beyond(0, 50.0) == 0, "empty sample has nothing beyond");
  check(samples_beyond(1200, 99.0) == 12, "p99 of 1200 has 12 beyond");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"wall_s", "routing.decide_ns.par62", "sim.step_us_p99",
                         "0x", "a-b.c_d"}) {
    check(valid_metric_name(ok), std::string("accepts ") + ok);
  }
  for (const char* bad : {"", "_x", ".x", "par-6/2", "a b", "wall_s\n",
                          "x:y"}) {
    check(!valid_metric_name(bad), std::string("rejects \"") + bad + "\"");
  }
  check(valid_metric_name(std::string(64, 'a')), "accepts 64 characters");
  check(!valid_metric_name(std::string(65, 'a')), "rejects 65 characters");
}

dfsim::SimConfig tiny(const std::string& routing, const std::string& pattern) {
  dfsim::SimConfig cfg;
  cfg.h = 2;  // 72 terminals
  cfg.routing = routing;
  cfg.pattern = pattern;
  cfg.load = 0.4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  cfg.seed = 7;
  return cfg;
}

void expect_transparent(const dfsim::SimConfig& cfg, const std::string& what) {
  dfsim::SimulationRun run = dfsim::SimulationRun::steady(cfg);
  run.run_to_completion();
  const dfsim::SteadyResult plain = run.steady_result();
  const perfbench::TracedPoint traced =
      perfbench::run_traced_point(cfg, cfg.engine == "sharded");
  check(plain.delivered > 0, what + ": the run delivers packets");
  check(perfbench::same_result(plain, traced.result),
        what + ": traced results equal untraced results bit for bit");
  check(perfbench::same_result(plain, perfbench::run_plain_point(cfg)),
        what + ": plain-loop results equal untraced results bit for bit");
  // Each decorator takes its slot once per calling thread: the stepping
  // thread plus, on the sharded engine, every shard worker.
  const std::uint64_t threads =
      1 + (cfg.engine == "sharded"
               ? static_cast<std::uint64_t>(dfsim::runtime::default_jobs())
               : 0);
  check(traced.trace.slot_lookups <= 2 * threads,
        what + ": counter slots are looked up once per thread, not per call (" +
            std::to_string(traced.trace.slot_lookups) + " lookups)");
  check(traced.trace.route.decide_calls > 0,
        what + ": the routing decorator saw decisions");
  if (cfg.workload.empty()) {
    check(traced.trace.dest.calls > 0,
          what + ": the pattern decorator saw destination draws");
  }
  check(traced.trace.hooks.calls > 0, what + ": the hooks were timed");
  check(traced.trace.cycles == cfg.warmup_cycles + cfg.measure_cycles,
        what + ": one step span per cycle");
}

void test_decorators() {
  for (const char* routing :
       {"minimal", "valiant", "pb", "olm", "rlm", "par-6/2", "ugal"}) {
    expect_transparent(tiny(routing, "uniform"),
                       std::string("exact UN ") + routing);
    dfsim::SimConfig adv = tiny(routing, "advg");
    adv.pattern_offset = 2;
    expect_transparent(adv, std::string("exact ADVG+h ") + routing);
  }
  dfsim::SimConfig wh = tiny("rlm", "uniform");
  wh.flow = dfsim::FlowControl::kWormhole;
  wh.packet_phits = 80;
  wh.flit_phits = 10;
  expect_transparent(wh, "exact wormhole rlm");

  dfsim::SimConfig app = tiny("olm", "uniform");
  app.workload = "coll:alltoall:size=1-3";
  expect_transparent(app, "exact workload olm");

  // The sharded stepper calls the decorators from several workers.
  dfsim::runtime::set_default_jobs(3);
  for (const char* routing : {"olm", "pb", "valiant"}) {
    dfsim::SimConfig sh = tiny(routing, "uniform");
    sh.engine = "sharded";
    expect_transparent(sh, std::string("sharded UN ") + routing);
  }
  dfsim::SimConfig sh_app = app;
  sh_app.engine = "sharded";
  expect_transparent(sh_app, "sharded workload olm");
  dfsim::runtime::set_default_jobs(0);
}

/// Ns of one collector call timed the way the traced hooks time them,
/// with nothing else around it: the median over batches of the batch
/// mean, so a preempted call does not set it.
double untraced_collector_call_ns(int terminals, int packet_phits) {
  dfsim::Collector collector(0, terminals);
  dfsim::Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  pkt.size_phits = packet_phits;
  pkt.num_flits = 1;
  pkt.flit_phits = static_cast<std::int16_t>(packet_phits);
  constexpr int kBatch = 20;
  constexpr int kCalls = 200000;
  std::vector<double> batches;
  std::uint64_t ns = 0;
  for (int i = 0; i < kCalls; ++i) {
    const dfsim::Cycle now = static_cast<dfsim::Cycle>(i / 2 + 100);
    pkt.created = now - 40;
    pkt.injected = now - 30;
    const std::int64_t t0 = perfbench::now_ns();
    if (i % 2 == 0) {
      collector.on_generated(now, true);
    } else {
      collector.on_delivered(pkt, now);
    }
    ns += static_cast<std::uint64_t>(perfbench::now_ns() - t0);
    if ((i + 1) % kBatch == 0) {
      batches.push_back(static_cast<double>(ns) / kBatch);
      ns = 0;
    }
  }
  return perfbench::percentile(batches, 50.0);
}

// Sanitizer instrumentation slows calls made inside a running engine far
// more than the same calls in a hot loop, so the timing comparison below
// holds only in an uninstrumented build such as the benchmark's own.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kInstrumented = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kInstrumented = true;
#else
constexpr bool kInstrumented = false;
#endif
#else
constexpr bool kInstrumented = false;
#endif

void test_hook_timing() {
  // A pattern point on the exact engine: the generation hook and the
  // decorated destination draw alternate on one thread.
  dfsim::SimConfig cfg = tiny("olm", "uniform");
  cfg.load = 0.6;
  cfg.measure_cycles = 3000;
  const perfbench::TracedPoint traced = perfbench::run_traced_point(cfg, false);
  const double baseline = untraced_collector_call_ns(
      traced.trace.terminals, cfg.packet_phits);
  // Median over steps of the step's mean hook call.
  std::vector<double> per_step;
  for (const perfbench::Span& s : traced.trace.spans) {
    if (s.kind == perfbench::SpanKind::kStep && s.hook_calls > 0) {
      per_step.push_back(static_cast<double>(s.hook_ns) / s.hook_calls);
    }
  }
  const double hook = perfbench::percentile(per_step, 50.0);
  std::printf("hook timing: %.1f ns per traced hook call, %.1f ns per "
              "untraced collector call%s\n", hook, baseline,
              kInstrumented ? " (sanitizer build: not compared)" : "");
  if (kInstrumented) return;
  check(!per_step.empty() && hook <= 1.5 * baseline + 30.0,
        "a traced hook call costs about an untraced collector call (" +
            std::to_string(hook) + " ns vs " + std::to_string(baseline) +
            " ns)");
}

}  // namespace

int main() {
  test_percentiles();
  test_metric_names();
  test_decorators();
  test_hook_timing();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
