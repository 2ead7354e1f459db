// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//             --workdir DIR
//
// Untraced (--trace 0): repeats rounds of the workload until S seconds of
// rounds have passed (at least three) and records each round's host times
// and the simulated results, then runs the workload's correctness checks.
// Traced (--trace 1): one untraced round, then a plain pass and a traced
// pass that both build every point from the public factories and step it
// one Engine::step at a time, the traced one with counting decorators;
// the per-layer numbers come from the traced pass, the tracing overhead
// from the difference of the two, and both passes' simulated results
// must equal the untraced round's bit for bit. Prints one JSON document
// on stdout, which perfbench/run.py turns into the benchmark's metrics;
// scratch files (checkpoints, span dumps) go to DIR.
#include <sys/resource.h>

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/simulator.hpp"
#include "api/sweep.hpp"
#include "common/bench_json.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/seed.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace {

using namespace dfsim;
using perfbench::BenchWorkload;
using perfbench::now_ns;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

struct Usage {
  double cpu_s = 0.0;
  long invol_ctx = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.invol_ctx = ru.ru_nivcsw;
  return u;
}

// --- host context ------------------------------------------------------------

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 0;
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  f >> a >> b >> c;
  return "[" + num(a) + ", " + num(b) + ", " + num(c) + "]";
}

/// Time the hypervisor ran other guests on this machine's CPUs (the
/// "steal" column of /proc/stat, summed over CPUs), in seconds.
double steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  return v[7] / 100.0;  // USER_HZ
}

/// A fixed short CPU loop (xorshift64, 2^24 iterations); its time tracks
/// how fast this host's core ran while the benchmark did.
double calibration_s() {
  const std::int64_t t0 = now_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < (1 << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return seconds_since(t0);
}

// --- checks ------------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  std::vector<bool> point_failed;

  void fail_point(std::size_t i, const std::string& series,
                  const std::string& what) {
    point_failed[i] = true;
    failures.push_back("point " + std::to_string(i) + " (" + series +
                       "): " + what);
  }
  void fail_all(const std::string& what) {
    std::fill(point_failed.begin(), point_failed.end(), true);
    failures.push_back(what);
  }
};

/// Packets generated in the measurement window that their source
/// accepted, recovered from offered_load (every generation in the window)
/// and source_drop_rate (the share the source-queue cap refused).
double window_generations(const SimConfig& cfg, const SteadyResult& r) {
  const TopoParams tp = cfg.topo_params();
  const double generated = std::round(
      r.offered_load * static_cast<double>(cfg.measure_cycles) * tp.p * tp.a *
      tp.g / cfg.packet_phits);
  return generated - std::round(r.source_drop_rate * generated);
}

// Accepted load may exceed offered load in a window by the packets in
// flight at its edges, so the two loads are not compared. What must hold
// exactly is conservation: the packets created in the window and
// delivered in it (`delivered`) are at most the packets the window
// generated, since none is delivered twice.
void check_point(Checks& c, std::size_t i, const ExperimentPoint& pt,
                 const SteadyResult& r) {
  if (r.deadlock) c.fail_point(i, pt.series, "deadlock detected");
  if (r.delivered == 0) c.fail_point(i, pt.series, "delivered nothing");
  const double generated = window_generations(pt.cfg, r);
  if (!(static_cast<double>(r.delivered) <= generated)) {
    c.fail_point(i, pt.series,
                 "delivered " + std::to_string(r.delivered) +
                     " packets created in the window, more than the " +
                     num(generated) + " it generated");
  }
}

// --- one workload ------------------------------------------------------------

struct Round {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double cycles = 0.0;
  double hop_events = 0.0;  ///< sum over points of delivered * avg_hops
};

struct Outcome {
  std::vector<Round> rounds;
  std::vector<SteadyResult> results;  ///< first round's
  std::vector<std::uint64_t> seeds;   ///< per-point seeds the runs used
  Checks checks;
  std::string per_layer;  ///< JSON object body (traced runs)
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir;
};

SimConfig point_config(const BenchWorkload& w, std::size_t i) {
  SimConfig cfg = w.points[i].cfg;
  if (!w.direct) cfg.seed = runtime::derive_seed(cfg.seed, i);
  return cfg;
}

Cycle point_cycles(const ExperimentPoint& pt) {
  return pt.cfg.warmup_cycles + pt.cfg.measure_cycles;
}

/// Builds of every point's run per round; the round's set-up time is
/// their median, so one slow page-faulting build does not set it.
constexpr int kSetupRepeats = 5;

/// The set-up cost of one round: SimulationRun::steady for every point
/// (topology and fault set, routing tables, traffic or workload, engine),
/// built serially and discarded, kSetupRepeats times.
double measure_setup(const BenchWorkload& w) {
  std::vector<double> samples;
  for (int k = 0; k < kSetupRepeats; ++k) {
    double total = 0.0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const SimConfig cfg = point_config(w, i);
      const std::int64_t t0 = now_ns();
      SimulationRun run = SimulationRun::steady(cfg);
      total += seconds_since(t0);
    }
    samples.push_back(total);
  }
  return perfbench::percentile(samples, 50.0);
}

/// One untraced round: the set-up measurement, then the workload itself.
/// Direct workloads build their run and advance it; sweep workloads run
/// the grid through run_experiments, whose workers build each point.
Round run_round(const BenchWorkload& w, const Options& opt,
                std::vector<SteadyResult>& results) {
  Round round;
  round.setup_s = measure_setup(w);
  results.assign(w.points.size(), SteadyResult{});
  if (w.direct) {
    const std::int64_t t0 = now_ns();
    SimulationRun run = SimulationRun::steady(point_config(w, 0));
    while (run.advance(64)) {
    }
    round.wall_s = seconds_since(t0);
    round.cycles = static_cast<double>(run.now());
    results[0] = run.steady_result();
  } else {
    SweepOptions so;
    so.jobs = w.point_workers;
    if (w.checkpoint_every > 0) {
      const std::filesystem::path dir = opt.workdir / "ckpt";
      std::filesystem::create_directories(dir);
      so.checkpoint_every = w.checkpoint_every;
      so.checkpoint_path = [dir](std::size_t i) {
        return (dir / ("point" + std::to_string(i) + ".ckpt")).string();
      };
    }
    const std::int64_t t0 = now_ns();
    const std::vector<ExperimentResult> out = run_experiments(w.points, so);
    round.wall_s = seconds_since(t0);
    for (std::size_t i = 0; i < out.size(); ++i) {
      results[i] = out[i].steady;
      round.cycles += static_cast<double>(point_cycles(w.points[i]));
    }
  }
  for (const SteadyResult& r : results) {
    round.hop_events += static_cast<double>(r.delivered) * r.avg_hops;
  }
  return round;
}

struct CheckpointTimes {
  double save_s = 0.0;
  double restore_s = 0.0;
  double bytes = 0.0;
};

/// Every point: advance to mid-run, checkpoint, restore into a fresh run,
/// finish, and compare with the uninterrupted result.
CheckpointTimes checkpoint_check(const BenchWorkload& w, Outcome& o) {
  const std::size_t n = w.points.size();
  std::vector<double> save(n, 0.0), restore(n, 0.0), bytes(n, 0.0);
  std::vector<int> same(n, 0);
  std::vector<std::string> errors(n);
  runtime::parallel_for(n, w.point_workers, [&](std::size_t i) {
    try {
      const SimConfig cfg = point_config(w, i);
      SimulationRun first = SimulationRun::steady(cfg);
      first.advance(point_cycles(w.points[i]) / 2);
      std::stringstream blob;
      std::int64_t t0 = now_ns();
      first.save_checkpoint(blob);
      save[i] = seconds_since(t0);
      bytes[i] = static_cast<double>(blob.str().size());
      SimulationRun resumed = SimulationRun::steady(cfg);
      t0 = now_ns();
      resumed.restore(blob);
      restore[i] = seconds_since(t0);
      resumed.run_to_completion();
      same[i] = perfbench::same_result(resumed.steady_result(), o.results[i]);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  CheckpointTimes t;
  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) {
      o.checks.fail_point(i, w.points[i].series,
                          "checkpoint/restore threw: " + errors[i]);
    } else if (!same[i]) {
      o.checks.fail_point(i, w.points[i].series,
                          "restored run differs from the uninterrupted run");
    }
    t.save_s += save[i];
    t.restore_s += restore[i];
    t.bytes += bytes[i];
  }
  return t;
}

/// The per-layer numbers of one traced pass, as a JSON object body.
std::string per_layer_json(const BenchWorkload& w,
                           const std::vector<perfbench::TracedPoint>& traced,
                           double traced_wall_s, double plain_wall_s,
                           const Usage& u0, const Usage& u1,
                           const CheckpointTimes& ck) {
  using perfbench::SpanKind;
  std::map<SpanKind, double> build_s;
  double step_s = 0.0, decide_s = 0.0, dest_s = 0.0, hook_s = 0.0;
  double decide_calls = 0.0, dest_calls = 0.0, hook_calls = 0.0;
  double first_visits = 0.0, pure = 0.0, waits = 0.0, drop = 0.0;
  double arrive = 0.0, deliver = 0.0, alloc = 0.0, flush = 0.0, total = 0.0;
  double bytes_per_terminal = 0.0;
  int threads_peak = 0;
  std::vector<double> step_us, point_s;
  std::map<std::string, std::pair<double, double>> per_mech;  // calls, ns
  for (const perfbench::TracedPoint& tp : traced) {
    const perfbench::PointTrace& tr = tp.trace;
    for (const perfbench::Span& s : tr.spans) {
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (s.kind == SpanKind::kPoint) {
        point_s.push_back(d);
      } else if (s.kind == SpanKind::kStep) {
        step_s += d;
        step_us.push_back(d * 1e6);
      } else {
        build_s[s.kind] += d;
      }
    }
    decide_calls += static_cast<double>(tr.route.decide_calls);
    decide_s += static_cast<double>(tr.route.decide_ns) * 1e-9;
    first_visits += static_cast<double>(tr.route.first_visits);
    pure += static_cast<double>(tr.route.pure);
    waits += static_cast<double>(tr.route.waits);
    auto& m = per_mech[tr.routing];
    m.first += static_cast<double>(tr.route.decide_calls);
    m.second += static_cast<double>(tr.route.decide_ns);
    dest_calls += static_cast<double>(tr.dest.calls);
    dest_s += static_cast<double>(tr.dest.ns) * 1e-9;
    hook_calls += static_cast<double>(tr.hooks.calls);
    hook_s += static_cast<double>(tr.hooks.ns) * 1e-9;
    drop += tp.result.source_drop_rate;
    arrive += static_cast<double>(tr.phases.arrive_ns) * 1e-9;
    deliver += static_cast<double>(tr.phases.deliver_ns) * 1e-9;
    alloc += static_cast<double>(tr.phases.alloc_ns) * 1e-9;
    flush += static_cast<double>(tr.phases.flush_ns) * 1e-9;
    total += static_cast<double>(tr.phases.total_ns) * 1e-9;
    bytes_per_terminal = std::max(
        bytes_per_terminal, static_cast<double>(tr.footprint_bytes) /
                                std::max(1, tr.terminals));
    threads_peak = std::max(threads_peak, tr.threads_peak);
  }
  if (perfbench::samples_beyond(step_us.size(), 99.0) < 10) {
    throw std::logic_error(w.name + ": too few steps for a step-time p99");
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  // Point-level workers for the parallel efficiency; every thread the
  // run keeps busy for the CPU utilisation.
  const int point_workers = w.direct ? 1 : w.point_workers;
  const int workers = w.direct ? w.shard_workers : w.point_workers;
  double point_sum = 0.0;
  for (const double s : point_s) point_sum += s;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  std::vector<std::pair<std::string, double>> m = {
      {"topology.build_s", build_s[SpanKind::kTopology]},
      {"routing.build_s", build_s[SpanKind::kRouting]},
      {"routing.decide_calls", decide_calls},
      {"routing.decide_s", decide_s},
  };
  for (const auto& [key, mech] :
       std::vector<std::pair<std::string, std::string>>{
           {"olm", "olm"}, {"par62", "par-6/2"}, {"rlm", "rlm"},
           {"pb", "pb"}, {"minimal", "minimal"}, {"valiant", "valiant"}}) {
    const auto it = per_mech.find(mech);
    m.emplace_back("routing.decide_ns." + key,
                   it == per_mech.end()
                       ? 0.0
                       : ratio(it->second.second, it->second.first));
  }
  const double step_self = step_s - decide_s - dest_s - hook_s;
  m.insert(m.end(), {
      {"routing.wait_ratio", ratio(waits, decide_calls)},
      {"routing.pure_ratio", ratio(pure, first_visits)},
      {"traffic.build_s", build_s[SpanKind::kTraffic]},
      {"traffic.dest_calls", dest_calls},
      {"traffic.dest_s", dest_s},
      {"traffic.source_drop_ratio", drop / n},
      {"sim.build_s", build_s[SpanKind::kEngine]},
      {"sim.bytes_per_terminal", bytes_per_terminal},
      {"sim.step_calls", static_cast<double>(step_us.size())},
      {"sim.step_s", step_s},
      {"sim.step_self_s", step_self},
      {"sim.step_us_p50", perfbench::percentile(step_us, 50.0)},
      {"sim.step_us_p99", perfbench::percentile(step_us, 99.0)},
      {"sim.arrive_s", arrive},
      {"sim.deliver_s", deliver},
      {"sim.alloc_s", alloc},
      {"sim.flush_s", flush},
      {"sim.serial_fraction", ratio(deliver + flush, total)},
      {"metrics.hook_calls", hook_calls},
      {"metrics.hook_s", hook_s},
      {"runtime.point_s_p50", perfbench::percentile(point_s, 50.0)},
      {"runtime.point_s_max", perfbench::percentile(point_s, 100.0)},
      {"runtime.parallel_efficiency",
       ratio(point_sum, point_workers * traced_wall_s)},
      {"runtime.cpu_util", ratio(u1.cpu_s - u0.cpu_s, traced_wall_s * workers)},
      {"runtime.threads_peak", static_cast<double>(threads_peak)},
      {"runtime.invol_ctx_switches",
       static_cast<double>(u1.invol_ctx - u0.invol_ctx)},
      {"api.checkpoint_save_s", ck.save_s},
      {"api.checkpoint_bytes", ck.bytes / n},
      {"api.restore_s", ck.restore_s},
      {"trace.overhead_s", traced_wall_s - plain_wall_s},
  });
  std::string out;
  for (const auto& [name, value] : m) {
    if (!perfbench::valid_metric_name(name)) {
      throw std::logic_error("bad metric name " + name);
    }
    out += (out.empty() ? "" : ", ") + quoted(name) + ": " + num(value);
  }
  return out;
}

void write_spans(const std::filesystem::path& path,
                 const std::vector<perfbench::TracedPoint>& traced) {
  std::ofstream f(path);
  f << "point,span,parent,start_ns,end_ns,decide_calls,decide_ns,"
       "dest_calls,dest_ns,hook_calls,hook_ns\n";
  for (std::size_t i = 0; i < traced.size(); ++i) {
    for (const perfbench::Span& s : traced[i].trace.spans) {
      f << i << ',' << perfbench::span_name(s.kind) << ',' << s.parent << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.decide_calls << ','
        << s.decide_ns << ',' << s.dest_calls << ',' << s.dest_ns << ','
        << s.hook_calls << ',' << s.hook_ns << '\n';
    }
  }
}

Outcome run_workload(const BenchWorkload& w, const Options& opt) {
  Outcome o;
  o.checks.point_failed.assign(w.points.size(), false);
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    o.seeds.push_back(point_config(w, i).seed);
  }
  runtime::set_default_jobs(w.direct ? w.shard_workers : w.point_workers);

  // Untraced rounds: at least three, until `seconds` of rounds have passed
  // (one in a traced run, which only needs the reference results). Round
  // 0 warms caches and the allocator; run.py leaves its times out.
  const std::int64_t start = now_ns();
  std::vector<SteadyResult> results;
  do {
    try {
      o.rounds.push_back(run_round(w, opt, results));
    } catch (const std::exception& e) {
      o.checks.fail_all("round " + std::to_string(o.rounds.size()) +
                        " threw: " + e.what());
      return o;
    }
    if (o.results.empty()) {
      o.results = results;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!perfbench::same_result(results[i], o.results[i])) {
          o.checks.fail_point(i, w.points[i].series,
                              "round " + std::to_string(o.rounds.size() - 1) +
                                  " differs from round 0 (same seed)");
        }
      }
    }
  } while (!opt.trace &&
           (o.rounds.size() < 3 || seconds_since(start) < opt.seconds));

  for (std::size_t i = 0; i < w.points.size(); ++i) {
    check_point(o.checks, i, w.points[i], o.results[i]);
  }
  for (const std::size_t win : w.winners) {
    for (const std::size_t lose : w.losers) {
      if (!(o.results[win].accepted_load > o.results[lose].accepted_load)) {
        o.checks.fail_point(
            win, w.points[win].series,
            "accepts " + num(o.results[win].accepted_load) +
                " at saturated ADVG+h, not more than " +
                w.points[lose].series + " (" +
                num(o.results[lose].accepted_load) + ")");
      }
    }
  }
  CheckpointTimes ck;
  if (w.checkpoint_every > 0) ck = checkpoint_check(w, o);
  if (!opt.trace) return o;

  // Plain pass, the baseline of the tracing overhead: the traced pass's
  // loop without decorators, spans or checkpoints.
  const std::size_t n = w.points.size();
  const int pass_workers = w.direct ? 1 : w.point_workers;
  std::vector<SteadyResult> plain(n);
  std::vector<std::string> plain_errors(n);
  std::int64_t t0 = now_ns();
  runtime::parallel_for(n, pass_workers, [&](std::size_t i) {
    try {
      plain[i] = perfbench::run_plain_point(point_config(w, i));
    } catch (const std::exception& e) {
      plain_errors[i] = e.what();
    }
  });
  const double plain_wall = seconds_since(t0);

  // Traced pass.
  std::vector<perfbench::TracedPoint> traced(n);
  std::vector<std::string> errors(n);
  const Usage u0 = usage_now();
  t0 = now_ns();
  runtime::parallel_for(n, pass_workers, [&](std::size_t i) {
    try {
      traced[i] = perfbench::run_traced_point(point_config(w, i), w.direct);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  const double traced_wall = seconds_since(t0);
  const Usage u1 = usage_now();
  for (std::size_t i = 0; i < n; ++i) {
    if (!plain_errors[i].empty()) {
      o.checks.fail_point(i, w.points[i].series,
                          "plain run threw: " + plain_errors[i]);
    } else if (!perfbench::same_result(plain[i], o.results[i])) {
      o.checks.fail_point(i, w.points[i].series,
                          "plain-loop results differ from untraced results");
    }
    if (!errors[i].empty()) {
      o.checks.fail_point(i, w.points[i].series,
                          "traced run threw: " + errors[i]);
    } else if (!perfbench::same_result(traced[i].result, o.results[i])) {
      o.checks.fail_point(i, w.points[i].series,
                          "traced results differ from untraced results");
    }
  }
  o.per_layer =
      per_layer_json(w, traced, traced_wall, plain_wall, u0, u1, ck);
  write_spans(opt.workdir / ("spans_" + w.name + ".csv"), traced);
  return o;
}

std::string outcome_json(const BenchWorkload& w, const Options& opt,
                         const Outcome& o) {
  std::ostringstream j;
  j << "{\"workload\": " << quoted(w.name) << ", \"seed\": " << opt.seed
    << ", \"trace\": " << (opt.trace ? 1 : 0)
    << ", \"jobs\": " << (w.direct ? w.shard_workers : w.point_workers)
    << ", \"points\": " << w.points.size();
  std::size_t failed = 0;
  for (const bool f : o.checks.point_failed) failed += f ? 1 : 0;
  j << ", \"failed_points\": " << failed << ", \"failures\": [";
  for (std::size_t i = 0; i < o.checks.failures.size(); ++i) {
    j << (i ? ", " : "") << quoted(o.checks.failures[i]);
  }
  j << "], \"rounds\": [";
  for (std::size_t i = 0; i < o.rounds.size(); ++i) {
    const Round& r = o.rounds[i];
    j << (i ? ", " : "") << "{\"wall_s\": " << num(r.wall_s)
      << ", \"setup_s\": " << num(r.setup_s) << ", \"cycles\": "
      << num(r.cycles) << ", \"hop_events\": " << num(r.hop_events) << "}";
  }
  j << "], \"results\": [";
  for (std::size_t i = 0; i < o.results.size(); ++i) {
    const SteadyResult& r = o.results[i];
    j << (i ? ", " : "") << "{\"series\": " << quoted(w.points[i].series)
      << ", \"seed\": " << o.seeds[i]
      << ", \"offered_load\": " << num(r.offered_load)
      << ", \"accepted_load\": " << num(r.accepted_load)
      << ", \"avg_latency\": " << num(r.avg_latency)
      << ", \"p99_latency\": " << num(r.p99_latency)
      << ", \"avg_hops\": " << num(r.avg_hops)
      << ", \"delivered\": " << r.delivered
      << ", \"source_drop_rate\": " << num(r.source_drop_rate)
      << ", \"deadlock\": " << (r.deadlock ? "true" : "false") << "}";
  }
  j << "], \"per_layer\": {" << o.per_layer << "}}";
  return j.str();
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::filesystem::path out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else {
      throw std::invalid_argument("unknown option " + a);
    }
  }
  if (opt.workload.empty() || opt.workdir.empty()) {
    throw std::invalid_argument("--workload and --workdir are required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    std::filesystem::create_directories(opt.workdir);
    std::vector<std::string> names;
    if (opt.workload == "all") {
      names = perfbench::workload_names();
    } else {
      names.push_back(opt.workload);
    }
    const double calib0 = calibration_s();
    const double steal0 = steal_s();
    const std::string load0 = loadavg();
    std::vector<std::string> docs;
    for (const std::string& name : names) {
      const BenchWorkload w = perfbench::make_bench_workload(name, opt.seed);
      std::cerr << "perfbench: " << name << " (" << w.points.size()
                << " points, seed " << opt.seed << ")\n";
      docs.push_back(outcome_json(w, opt, run_workload(w, opt)));
    }
    const Usage u = usage_now();
    std::cout << "{\"host\": {\"nproc\": " << nproc()
              << ", \"loadavg_start\": " << load0
              << ", \"loadavg_end\": " << loadavg()
              << ", \"calibration_s_start\": " << num(calib0)
              << ", \"calibration_s_end\": " << num(calibration_s())
              << ", \"invol_ctx_switches\": " << u.invol_ctx
              << ", \"steal_s\": " << num(steal_s() - steal0)
              << "}, \"peak_rss_mb\": "
              << num(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0))
              << ", \"workloads\": [";
    for (std::size_t i = 0; i < docs.size(); ++i) {
      std::cout << (i ? ", " : "") << docs[i];
    }
    std::cout << "]}\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
