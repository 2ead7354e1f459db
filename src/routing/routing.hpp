// The routing-mechanism interface. The engine re-evaluates `decide` every
// cycle for every head flit until the flit wins switch allocation, which
// implements the paper's on-the-fly (in-transit) adaptivity: "the routing
// decision can be revisited on each hop".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "routing/route_util.hpp"
#include "sim/packet.hpp"

namespace dfsim {

class Engine;

/// A concrete output selection for the current cycle, plus the route-state
/// side effects to apply if (and only if) the hop actually wins allocation.
struct RouteChoice {
  PortId port = kInvalid;
  VcId vc = 0;

  /// This hop commits the packet to a Valiant path via `inter_group`
  /// (global misrouting, decided in the source group).
  bool commit_valiant = false;
  GroupId inter_group = kInvalid;

  /// This hop is an OFAR-style local misroute (counts against the one
  /// local misroute allowed per group).
  bool local_misroute = false;
};

/// Everything a mechanism may inspect when deciding: the engine exposes
/// output usability (link free + credits + VC allocation) and downstream
/// occupancy, which is the credit-count information real routers have.
struct RoutingContext {
  Engine& engine;
  RouterId router;
  PortId in_port;
  VcId in_vc;
  Packet& packet;
  /// The head flit under decision (the front of (in_port, in_vc)); saves
  /// mechanisms the buffer lookup on the hottest path in the simulator.
  const Flit& flit;
  /// The stream every decide() draw must come from. Exact mode passes the
  /// engine's global stream (draw order = ascending VC index, the seed
  /// contract); sharded mode passes a counter-based stream keyed by
  /// (seed, cycle, vc index) so results are worker-count independent.
  Rng& rng;
  /// Out: decide() sets this when it returns nullopt and no retry,
  /// whatever it draws, can return anything else before output
  /// `wait_port` becomes usable or a flit departs on it. Example: the
  /// minimal VC sits at full credits (occupancy 0), so no misroute
  /// candidate can pass the trigger's `occupancy < threshold * 0`. The
  /// engine then sleeps the head while `wait_port`'s link is still
  /// serializing an earlier flit, since neither can happen before the
  /// link frees. Left at kInvalid otherwise.
  PortId wait_port = kInvalid;
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  /// Pick this cycle's output for the head flit, or nullopt to wait.
  /// Implementations must only return choices that are usable this cycle.
  virtual std::optional<RouteChoice> decide(RoutingContext& ctx) = 0;

  /// Purity declaration for the decision-retry fast path. If — for the
  /// packet's CURRENT RouteState at router `ctx.router`, and for ANY
  /// engine state — decide() is exactly "return the minimal hop iff it is
  /// usable, else wait", with no RNG draw and no side effects, return
  /// that minimal hop; otherwise nullopt. The engine caches the answer in
  /// the packet (RouteState only changes when a hop is taken) and runs
  /// the usability check itself on every retry cycle, skipping the full
  /// decide() call. Mechanisms whose decision may misroute, bias, or
  /// draw randomness at this (packet, router) must return nullopt; the
  /// default keeps every decision on the slow path.
  virtual std::optional<Hop> pure_minimal_hop(const RoutingContext& /*ctx*/) {
    return std::nullopt;
  }

  /// Fused first-visit entry point: semantically pure_minimal_hop()
  /// followed — when the verdict is impure — by decide(), but overridable
  /// as one pass so the purity gates and the minimal-route resolution are
  /// not computed twice on the hottest path. Writes the purity verdict to
  /// *pure_hop. When the verdict is engaged (pure) the return value is
  /// ignored: the engine caches the hop and runs the usability check
  /// itself, exactly as with pure_minimal_hop. Overrides must keep the
  /// verdict and any RNG draws bit-identical to the two-call sequence.
  virtual std::optional<RouteChoice> decide_fresh(
      RoutingContext& ctx, std::optional<Hop>* pure_hop) {
    *pure_hop = pure_minimal_hop(ctx);
    if (*pure_hop) return std::nullopt;  // engine nominates via the verdict
    return decide(ctx);
  }

  /// Invoked once per simulated cycle before allocation; mechanisms with
  /// distributed state (Piggybacking's broadcast) refresh it here.
  virtual void per_cycle(Engine& /*engine*/) {}

  /// Invoked when a head flit actually departs on `choice`, after the
  /// engine applied the generic RouteState bookkeeping. Mechanisms add
  /// their own (e.g. OLM asserts its escape invariant here).
  virtual void on_hop(const Engine& /*engine*/, Packet& /*packet*/,
                      const RouteChoice& /*choice*/, RouterId /*router*/) {}

  /// Checkpoint hooks, called from Engine::save_checkpoint / restore.
  /// Mechanisms with mutable cross-cycle state (Piggybacking's published
  /// occupancy tables) serialize it here so a resumed run replays
  /// bit-identically; the default covers the stateless majority. The two
  /// must read/write the same byte count (the engine frames the section).
  virtual void save_state(std::ostream& /*os*/) const {}
  virtual void restore_state(std::istream& /*is*/) {}

  /// Resource demands; the engine config is validated against these.
  virtual int min_local_vcs() const = 0;
  virtual int min_global_vcs() const = 0;
  virtual bool supports_wormhole() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace dfsim
