// google-benchmark micro measurements of the simulator substrate:
// cycle cost at several scales/loads, routing-decision machinery,
// topology arithmetic and the parity-sign table construction.
//
// Wall-clock of the whole run is appended to BENCH_sweep.json via
// BenchReport, so the perf trajectory of the engine hot path is recorded
// alongside the figure benches from PR to PR.
#include <benchmark/benchmark.h>

#include "api/config.hpp"
#include "bench_util.hpp"
#include "routing/factory.hpp"
#include "routing/parity_sign.hpp"
#include "sim/engine.hpp"
#include "topology/dragonfly_topology.hpp"
#include "traffic/pattern.hpp"

namespace {

using namespace dfsim;

// One engine cycle under OLM and uniform traffic after a 2000-cycle warm
// up; range(0) = h, range(1) = load in percent.
void run_engine_cycles(benchmark::State& state, const EngineConfig& ec) {
  const int h = static_cast<int>(state.range(0));
  const double load = static_cast<double>(state.range(1)) / 100.0;
  const DragonflyTopology topo(h);
  auto routing = make_routing("olm", topo, {});
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = load;
  Engine engine(topo, ec, *routing, pattern, inj);
  engine.run_until(2000);  // warm the network to steady occupancy
  for (auto _ : state) {
    engine.step();
  }
  state.counters["terminals"] = topo.num_terminals();
  state.counters["phits/cycle"] = benchmark::Counter(
      static_cast<double>(engine.delivered_phits()),
      benchmark::Counter::kIsRate);
}

void BM_EngineCycle(benchmark::State& state) {
  run_engine_cycles(state, EngineConfig{});
}
BENCHMARK(BM_EngineCycle)
    ->Args({2, 30})
    ->Args({3, 5})  // low load: most routers idle, the scan masks skip them
    ->Args({3, 30})
    ->Args({3, 80})
    ->Args({4, 50})
    ->Unit(benchmark::kMicrosecond);

// The keyed (sharded) stepper on one worker: one shard per group, keyed
// RNG streams, per-shard fused flit arrival + allocation.
void BM_EngineCycleKeyed(benchmark::State& state) {
  EngineConfig ec;
  ec.sharded = true;
  ec.shard_jobs = 1;
  run_engine_cycles(state, ec);
}
BENCHMARK(BM_EngineCycleKeyed)
    ->Args({3, 30})
    ->Args({6, 30})
    ->Unit(benchmark::kMicrosecond);

void BM_ParitySignTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    LocalRouteRestriction r(RestrictionPolicy::kParitySign);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParitySignTableBuild);

void BM_AllowedIntermediates(benchmark::State& state) {
  const LocalRouteRestriction r(RestrictionPolicy::kParitySign);
  const int group = static_cast<int>(state.range(0));
  int i = 0;
  for (auto _ : state) {
    auto v = r.allowed_intermediates(i % group, (i + 1) % group, group);
    benchmark::DoNotOptimize(v);
    ++i;
  }
}
BENCHMARK(BM_AllowedIntermediates)->Arg(8)->Arg(16);

void BM_TopologyGateway(benchmark::State& state) {
  const DragonflyTopology topo(8);
  GroupId g = 0;
  for (auto _ : state) {
    const GroupId target = (g + 7) % topo.num_groups();
    benchmark::DoNotOptimize(topo.gateway_router(g, target));
    benchmark::DoNotOptimize(topo.gateway_port(g, target));
    g = (g + 1) % topo.num_groups();
  }
}
BENCHMARK(BM_TopologyGateway);

void BM_RemoteEndpoint(benchmark::State& state) {
  const DragonflyTopology topo(8);
  RouterId r = 0;
  PortId p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.remote_endpoint(r, p));
    p = (p + 1) % topo.first_terminal_port();
    if (p == 0) r = (r + 1) % topo.num_routers();
  }
}
BENCHMARK(BM_RemoteEndpoint);

}  // namespace

int main(int argc, char** argv) {
  dfsim::bench::BenchReport report("micro_sim");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
