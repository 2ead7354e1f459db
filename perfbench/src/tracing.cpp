#include "tracing.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "metrics/collector.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "traffic/workload.hpp"

namespace perfbench {

using namespace dfsim;

RouteCounters& RouteCounters::operator+=(const RouteCounters& o) {
  decide_calls += o.decide_calls;
  decide_ns += o.decide_ns;
  first_visits += o.first_visits;
  pure += o.pure;
  waits += o.waits;
  return *this;
}

CallCounters& CallCounters::operator+=(const CallCounters& o) {
  calls += o.calls;
  ns += o.ns;
  return *this;
}

std::optional<RouteChoice> TracingRouting::decide(RoutingContext& ctx) {
  const std::int64_t t0 = now_ns();
  std::optional<RouteChoice> choice = inner_->decide(ctx);
  const std::int64_t t1 = now_ns();
  RouteCounters& c = counters_.local();
  ++c.decide_calls;
  c.decide_ns += static_cast<std::uint64_t>(t1 - t0);
  if (!choice) ++c.waits;
  return choice;
}

std::optional<RouteChoice> TracingRouting::decide_fresh(
    RoutingContext& ctx, std::optional<Hop>* pure_hop) {
  const std::int64_t t0 = now_ns();
  std::optional<RouteChoice> choice = inner_->decide_fresh(ctx, pure_hop);
  const std::int64_t t1 = now_ns();
  RouteCounters& c = counters_.local();
  ++c.decide_calls;
  ++c.first_visits;
  c.decide_ns += static_cast<std::uint64_t>(t1 - t0);
  if (*pure_hop) {
    ++c.pure;
  } else if (!choice) {
    ++c.waits;
  }
  return choice;
}

NodeId TracingPattern::dest(NodeId src, Rng& rng) {
  const std::int64_t t0 = now_ns();
  const NodeId d = inner_->dest(src, rng);
  const std::int64_t t1 = now_ns();
  CallCounters& c = counters_.local();
  ++c.calls;
  c.ns += static_cast<std::uint64_t>(t1 - t0);
  return d;
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPoint: return "point";
    case SpanKind::kValidate: return "api.validate";
    case SpanKind::kTopology: return "topology.build";
    case SpanKind::kRouting: return "routing.build";
    case SpanKind::kTraffic: return "traffic.build";
    case SpanKind::kEngine: return "sim.build";
    case SpanKind::kStep: return "sim.step";
  }
  return "?";
}

int current_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return 0;
}

namespace {

/// Times one factory call as a child span of the point span.
template <class Fn>
auto timed(std::vector<Span>& spans, SpanKind kind, Fn&& fn) {
  Span s;
  s.kind = kind;
  s.parent = 0;
  s.start_ns = now_ns();
  auto out = fn();
  s.end_ns = now_ns();
  spans.push_back(s);
  return out;
}

InjectionProcess bernoulli(const SimConfig& cfg) {
  InjectionProcess inj;
  inj.mode = InjectionProcess::Mode::kBernoulli;
  inj.load = cfg.load;
  inj.onoff_on = cfg.onoff_on;
  inj.onoff_off = cfg.onoff_off;
  return inj;
}

/// Builds one steady point from the public factories in the order
/// SimulationRun::steady does and steps it through warmup + measure.
/// Traced: the routing and the pattern are decorated, the hooks and every
/// step are timed, and spans are recorded into `out.trace`. Plain: the
/// same loop with none of that.
void run_point(const SimConfig& cfg, bool traced, bool shard_profile,
               TracedPoint& out) {
  PointTrace& tr = out.trace;
  tr.routing = cfg.routing;
  std::vector<Span>& spans = tr.spans;
  if (traced) {
    spans.reserve(static_cast<std::size_t>(cfg.warmup_cycles +
                                           cfg.measure_cycles) + 8);
  }
  Span point;
  point.kind = SpanKind::kPoint;
  point.start_ns = now_ns();
  spans.push_back(point);

  timed(spans, SpanKind::kValidate, [&] {
    cfg.validate();
    return 0;
  });
  const DragonflyTopology topo =
      timed(spans, SpanKind::kTopology, [&] { return cfg.make_topology(); });
  std::unique_ptr<RoutingAlgorithm> routing =
      timed(spans, SpanKind::kRouting, [&] {
        return make_routing(cfg.routing, topo, cfg.routing_params());
      });
  TracingRouting* traced_routing = nullptr;
  if (traced) {
    auto decorated = std::make_unique<TracingRouting>(std::move(routing));
    traced_routing = decorated.get();
    routing = std::move(decorated);
  }
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TrafficPattern> pattern;
  TracingPattern* traced_pattern = nullptr;
  timed(spans, SpanKind::kTraffic, [&] {
    pattern = make_pattern(topo, cfg.pattern, cfg.pattern_offset,
                           cfg.global_fraction);
    if (traced) {
      auto decorated = std::make_unique<TracingPattern>(std::move(pattern));
      traced_pattern = decorated.get();
      pattern = std::move(decorated);
    }
    if (!cfg.workload.empty()) workload = make_workload(&topo, cfg.workload);
    return 0;
  });
  Collector collector(cfg.warmup_cycles, topo.num_terminals());
  // Both engines call the hooks only at serial points of a step, so one
  // plain counter serves every thread.
  CallCounters hooks;
  std::unique_ptr<Engine> engine = timed(spans, SpanKind::kEngine, [&] {
    EngineConfig ec = cfg.engine_config(*routing);
    ec.profile = traced && shard_profile;
    // A workload takes over the destination draws; it is handed to the
    // engine itself, so workload points trace steps and hooks only.
    TrafficPattern& draws = workload != nullptr
                                ? static_cast<TrafficPattern&>(*workload)
                                : *pattern;
    auto eng = std::make_unique<Engine>(topo, ec, *routing, draws,
                                        bernoulli(cfg));
    if (traced) {
      eng->set_delivery_hook([&](const Packet& pkt, Cycle now) {
        const std::int64_t t0 = now_ns();
        collector.on_delivered(pkt, now);
        const std::int64_t t1 = now_ns();
        ++hooks.calls;
        hooks.ns += static_cast<std::uint64_t>(t1 - t0);
      });
      eng->set_generation_hook([&](Cycle now, bool accepted) {
        const std::int64_t t0 = now_ns();
        collector.on_generated(now, accepted);
        const std::int64_t t1 = now_ns();
        ++hooks.calls;
        hooks.ns += static_cast<std::uint64_t>(t1 - t0);
      });
    } else {
      eng->set_delivery_hook([&](const Packet& pkt, Cycle now) {
        collector.on_delivered(pkt, now);
      });
      eng->set_generation_hook([&](Cycle now, bool accepted) {
        collector.on_generated(now, accepted);
      });
    }
    if (workload != nullptr) {
      eng->set_workload(workload.get());
      const std::vector<double> loads = workload->terminal_loads(cfg.load);
      if (!loads.empty()) eng->set_terminal_loads(loads);
      collector.set_job_map(workload->job_of_terminal(),
                            workload->num_jobs());
      if (workload->is_trace()) eng->set_offered_load(0.0);
    }
    return eng;
  });

  const Cycle end = cfg.warmup_cycles + cfg.measure_cycles;
  if (traced) {
    // Warmup + measure, one span per step with its children aggregated.
    RouteCounters route_before = traced_routing->totals();
    CallCounters dest_before = traced_pattern->totals();
    CallCounters hooks_before = hooks;
    tr.threads_peak = current_threads();
    while (engine->now() < end) {
      Span s;
      s.kind = SpanKind::kStep;
      s.parent = 0;
      s.start_ns = now_ns();
      const bool alive = engine->step();
      s.end_ns = now_ns();
      const RouteCounters route_after = traced_routing->totals();
      const CallCounters dest_after = traced_pattern->totals();
      s.decide_calls = static_cast<std::uint32_t>(route_after.decide_calls -
                                                  route_before.decide_calls);
      s.decide_ns = route_after.decide_ns - route_before.decide_ns;
      s.dest_calls =
          static_cast<std::uint32_t>(dest_after.calls - dest_before.calls);
      s.dest_ns = dest_after.ns - dest_before.ns;
      s.hook_calls =
          static_cast<std::uint32_t>(hooks.calls - hooks_before.calls);
      s.hook_ns = hooks.ns - hooks_before.ns;
      route_before = route_after;
      dest_before = dest_after;
      hooks_before = hooks;
      spans.push_back(s);
      if ((engine->now() & 255) == 1) {
        tr.threads_peak = std::max(tr.threads_peak, current_threads());
      }
      if (!alive) break;
    }
    tr.route = traced_routing->totals();
    tr.dest = traced_pattern->totals();
    tr.hooks = hooks;
    tr.slot_lookups =
        traced_routing->slot_lookups() + traced_pattern->slot_lookups();
    tr.phases = engine->phase_profile();
  } else {
    while (engine->now() < end && engine->step()) {
    }
  }
  tr.cycles = engine->now();
  tr.footprint_bytes = engine->footprint_bytes();
  tr.terminals = topo.num_terminals();

  SteadyResult& r = out.result;
  r.avg_latency = collector.avg_latency();
  r.p99_latency = collector.p99_latency();
  r.accepted_load = collector.accepted_load(engine->now());
  r.offered_load = collector.offered_load(engine->now(), cfg.packet_phits);
  r.source_drop_rate = collector.drop_rate();
  r.avg_hops = collector.avg_hops();
  r.delivered = collector.delivered_packets();
  r.dead_destination_drops = engine->dead_destination_drops();
  r.deadlock = engine->deadlock_detected();
  if (collector.num_jobs() > 0) {
    r.per_job = collector.job_totals(cfg.warmup_cycles, engine->now());
  }
  engine.reset();
  spans[0].end_ns = now_ns();
}

}  // namespace

TracedPoint run_traced_point(const SimConfig& cfg, bool shard_profile) {
  TracedPoint out;
  run_point(cfg, true, shard_profile, out);
  return out;
}

SteadyResult run_plain_point(const SimConfig& cfg) {
  TracedPoint out;
  run_point(cfg, false, false, out);
  return out.result;
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_window(const TrafficWindow& a, const TrafficWindow& b) {
  return a.start == b.start && a.end == b.end && a.delivered == b.delivered &&
         a.delivered_phits == b.delivered_phits &&
         a.generated == b.generated && a.dropped == b.dropped &&
         same_bits(a.avg_latency, b.avg_latency) &&
         same_bits(a.accepted_load, b.accepted_load) &&
         same_bits(a.offered_load, b.offered_load) &&
         same_bits(a.drop_rate, b.drop_rate);
}

}  // namespace

bool same_result(const SteadyResult& a, const SteadyResult& b) {
  if (!(same_bits(a.avg_latency, b.avg_latency) &&
        same_bits(a.p99_latency, b.p99_latency) &&
        same_bits(a.accepted_load, b.accepted_load) &&
        same_bits(a.offered_load, b.offered_load) &&
        same_bits(a.source_drop_rate, b.source_drop_rate) &&
        same_bits(a.avg_hops, b.avg_hops) && a.delivered == b.delivered &&
        a.dead_destination_drops == b.dead_destination_drops &&
        a.deadlock == b.deadlock && a.per_job.size() == b.per_job.size())) {
    return false;
  }
  for (std::size_t j = 0; j < a.per_job.size(); ++j) {
    if (!same_window(a.per_job[j], b.per_job[j])) return false;
  }
  return true;
}

}  // namespace perfbench
