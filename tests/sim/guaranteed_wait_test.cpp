// Guaranteed-wait sleeps (RoutingContext::wait_port) must be invisible in
// the results. An engine whose mechanism never reports a guaranteed wait
// retries every blocked head every cycle. It must reach the same state,
// bit for bit, as one that lets such heads sleep, under both RNG regimes,
// while the sleeping one calls decide() fewer times.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "topology/dragonfly_topology.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

/// Forwards every call to a factory-built mechanism, counts decisions,
/// and (report_waits = false) hides every guaranteed-wait signal.
class WaitFilter final : public RoutingAlgorithm {
 public:
  WaitFilter(std::unique_ptr<RoutingAlgorithm> inner, bool report_waits)
      : inner_(std::move(inner)), report_waits_(report_waits) {}

  std::optional<RouteChoice> decide(RoutingContext& ctx) override {
    return filter(ctx, inner_->decide(ctx));
  }
  std::optional<RouteChoice> decide_fresh(
      RoutingContext& ctx, std::optional<Hop>* pure_hop) override {
    return filter(ctx, inner_->decide_fresh(ctx, pure_hop));
  }
  std::optional<Hop> pure_minimal_hop(const RoutingContext& ctx) override {
    return inner_->pure_minimal_hop(ctx);
  }
  void per_cycle(Engine& engine) override { inner_->per_cycle(engine); }
  void on_hop(const Engine& engine, Packet& packet, const RouteChoice& choice,
              RouterId router) override {
    inner_->on_hop(engine, packet, choice, router);
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void restore_state(std::istream& is) override { inner_->restore_state(is); }
  int min_local_vcs() const override { return inner_->min_local_vcs(); }
  int min_global_vcs() const override { return inner_->min_global_vcs(); }
  bool supports_wormhole() const override {
    return inner_->supports_wormhole();
  }
  std::string name() const override { return inner_->name(); }

  std::uint64_t calls = 0;
  std::uint64_t waits = 0;  ///< nullopt decisions that reported a wait

 private:
  std::optional<RouteChoice> filter(RoutingContext& ctx,
                                    std::optional<RouteChoice> choice) {
    ++calls;
    if (!choice && ctx.wait_port != kInvalid) ++waits;
    if (!report_waits_) ctx.wait_port = kInvalid;
    return choice;
  }

  std::unique_ptr<RoutingAlgorithm> inner_;
  bool report_waits_;
};

struct Outcome {
  std::string checkpoint;  ///< full dynamic state (derived caches excluded)
  std::uint64_t calls = 0;
  std::uint64_t waits = 0;
};

Outcome run(const std::string& routing, const std::string& pattern,
            double load, bool sharded, bool report_waits) {
  const DragonflyTopology topo(3);
  WaitFilter filter(make_routing(routing, topo, {}), report_waits);
  const std::unique_ptr<TrafficPattern> pat =
      make_pattern(topo, pattern, 1, 0.0);
  EngineConfig ec;
  ec.local_vcs = filter.min_local_vcs();
  ec.global_vcs = filter.min_global_vcs();
  ec.sharded = sharded;
  ec.shard_jobs = 1;  // the filter's counters are not thread-safe
  ec.seed = 5;
  InjectionProcess inj;
  inj.load = load;
  Engine engine(topo, ec, filter, *pat, inj);
  engine.run_until(1500);
  EXPECT_FALSE(engine.deadlock_detected());
  EXPECT_GT(engine.delivered_packets(), 0u);
  std::ostringstream os;
  engine.save_checkpoint(os);
  return {os.str(), filter.calls, filter.waits};
}

void expect_sleeps_are_invisible(const std::string& routing,
                                 const std::string& pattern, double load,
                                 bool sharded) {
  SCOPED_TRACE(routing + " " + pattern + (sharded ? " keyed" : " exact"));
  const Outcome retry = run(routing, pattern, load, sharded, false);
  const Outcome sleep = run(routing, pattern, load, sharded, true);
  // (Not EXPECT_EQ: a mismatch would print megabytes of binary.)
  EXPECT_TRUE(retry.checkpoint == sleep.checkpoint)
      << "the engine states differ after 1500 cycles";
  EXPECT_GT(sleep.waits, 0u);
#ifdef NDEBUG
  EXPECT_LT(sleep.calls, retry.calls);
#else
  // Builds with asserts re-run every skipped retry as a debug oracle
  // (Engine::check_guaranteed_wait), through this same filter.
  EXPECT_EQ(sleep.calls, retry.calls);
#endif
}

TEST(GuaranteedWait, KeyedSleepsAreInvisible) {
  expect_sleeps_are_invisible("olm", "uniform", 0.5, true);
  expect_sleeps_are_invisible("par-6/2", "advg+3", 0.35, true);
  expect_sleeps_are_invisible("rlm", "uniform", 0.5, true);
}

TEST(GuaranteedWait, ExactSleepsAreInvisible) {
  expect_sleeps_are_invisible("olm", "uniform", 0.5, false);
  expect_sleeps_are_invisible("par-6/2", "advg+3", 0.35, false);
  expect_sleeps_are_invisible("rlm", "uniform", 0.5, false);
}

}  // namespace
}  // namespace dfsim
