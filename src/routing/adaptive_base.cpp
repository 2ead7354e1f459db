#include "routing/adaptive_base.hpp"

#include <cassert>

#include "sim/engine.hpp"

namespace dfsim {

AdaptiveBase::AdaptiveBase(const DragonflyTopology& topo,
                           const AdaptiveParams& params)
    : topo_(topo), params_(params), trigger_(params.threshold) {}

Hop AdaptiveBase::minimal_hop(const RoutingContext& ctx) const {
  // Resolve the (memoized) port first so only the VC discipline of the
  // needed port class pays its virtual call.
  const MinPortCache mc = minimal_port(topo_, ctx.router, ctx.packet);
  switch (static_cast<PortClass>(mc.cls)) {
    case PortClass::kTerminal:
      return {mc.port, 0};
    case PortClass::kGlobal:
      return {mc.port, minimal_global_vc(ctx)};
    case PortClass::kLocal:
      break;
  }
  return {mc.port, minimal_local_vc(ctx)};
}

bool AdaptiveBase::commit_hop_allowed(const RoutingContext&, RouterId) const {
  return true;
}

bool AdaptiveBase::direct_commit_allowed(const RoutingContext&) const {
  return true;
}

// Mirror of the rs-only gates guarding collect_global_candidates /
// collect_local_candidates. While neither collection is reachable, decide()
// reduces to "minimal hop iff usable" with no RNG draw, which the engine
// may then evaluate itself on every retry cycle. Any drift between these
// gates and the collectors' own early returns breaks seed reproducibility,
// so keep the two in lockstep.
bool AdaptiveBase::decision_is_pure(const RoutingContext& ctx) const {
  const RouteState& rs = ctx.packet.rs;
  if (ctx.router == rs.dst_router) return true;
  // Global misrouting reachable (source group, before any global hop)?
  if (!rs.valiant && rs.global_hops == 0 && rs.local_hops_group <= 1 &&
      topo_.num_groups() >= 3) {
    return false;
  }
  // Local misrouting reachable (samples draw RNG even when no candidate
  // survives the VC filter)?
  const GroupId g = topo_.group_of_router(ctx.router);
  const bool heading_out = rs.valiant && rs.global_hops == 0;
  const bool at_dst_group = g == rs.dst_group && !heading_out;
  const bool at_inter_group =
      rs.valiant && rs.global_hops == 1 && g != rs.dst_group;
  if ((at_dst_group || at_inter_group) && rs.local_mis_group == 0 &&
      rs.local_hops_group == 0 && topo_.routers_per_group() >= 3) {
    const RouterId target = at_dst_group
                                ? rs.dst_router
                                : topo_.gateway_router(g, rs.dst_group);
    if (target != ctx.router) return false;
  }
  return true;
}

std::optional<Hop> AdaptiveBase::pure_minimal_hop(const RoutingContext& ctx) {
  if (!decision_is_pure(ctx)) return std::nullopt;
  return minimal_hop(ctx);
}

// First visit of a head at this router: gates and minimal route in one
// pass. Verdict and draws are bit-identical to pure_minimal_hop() +
// decide() — decide_impure is the tail of decide() after its own
// minimal_hop resolve.
std::optional<RouteChoice> AdaptiveBase::decide_fresh(
    RoutingContext& ctx, std::optional<Hop>* pure_hop) {
  const Hop min = minimal_hop(ctx);
  if (decision_is_pure(ctx)) {
    *pure_hop = min;
    return std::nullopt;  // the engine nominates via the cached verdict
  }
  *pure_hop = std::nullopt;
  return decide_impure(ctx, min);
}

std::optional<RouteChoice> AdaptiveBase::decide(RoutingContext& ctx) {
  return decide_impure(ctx, minimal_hop(ctx));
}

std::optional<RouteChoice> AdaptiveBase::decide_impure(RoutingContext& ctx,
                                                       const Hop& min) {
  Engine& eng = ctx.engine;
  const Flit& flit = ctx.flit;

  if (eng.output_usable(ctx.router, min.port, min.vc, flit)) {
    RouteChoice choice;
    choice.port = min.port;
    choice.vc = min.vc;
    return choice;
  }
  // A blocked ejection port has no non-minimal alternative. (The memo is
  // hot: minimal_hop just resolved it.)
  if (static_cast<PortClass>(ctx.packet.min_cache.cls) ==
      PortClass::kTerminal) {
    ctx.wait_port = min.port;
    return std::nullopt;
  }

  // A minimal VC at full credits admits no candidate (occupancy < θ·0 is
  // never true), and only a departure on the minimal port can lower its
  // credits. The candidates are still collected: their draws come from
  // the caller's stream either way.
  const double min_occ =
      eng.output_occupancy(ctx.router, min.port, min.vc);
  if (min_occ == 0.0) ctx.wait_port = min.port;

  static thread_local std::vector<RouteChoice> candidates;
  static thread_local std::vector<RouteChoice> eligible;
  candidates.clear();
  collect_global_candidates(ctx, candidates);
  collect_local_candidates(ctx, candidates);
  if (candidates.empty()) return std::nullopt;

  // Branchless compaction: write every candidate and advance the cursor
  // by the verdict, instead of a hard-to-predict keep/skip branch per
  // candidate (the usable/trigger mix is close to 50/50 under congestion
  // — exactly where this loop is hottest). The verdict itself stays
  // short-circuiting: a candidate blocked at the link-busy check never
  // touches its output VC's cache line for the occupancy. Order is
  // preserved and the loop draws no RNG, so the single uniform() below
  // sees the same eligible sequence as the branching loop did.
  eligible.resize(candidates.size());
  std::size_t m = 0;
  for (const RouteChoice& c : candidates) {
    const bool ok =
        eng.output_usable(ctx.router, c.port, c.vc, flit) &&
        trigger_.allows(eng.output_occupancy(ctx.router, c.port, c.vc),
                        min_occ);
    eligible[m] = c;
    m += ok ? 1 : 0;
  }
  if (m == 0) return std::nullopt;
  return eligible[ctx.rng.uniform(m)];
}

void AdaptiveBase::collect_global_candidates(RoutingContext& ctx,
                                             std::vector<RouteChoice>& out) {
  const RouteState& rs = ctx.packet.rs;
  // Global misrouting happens in the source group only, before any global
  // hop, at the source router or right after the first minimal local hop.
  if (rs.valiant || rs.global_hops != 0) return;
  if (rs.local_hops_group > 1) return;
  if (ctx.router == rs.dst_router) return;  // same-router traffic

  const GroupId g = topo_.group_of_router(ctx.router);
  const int num_groups = topo_.num_groups();
  if (num_groups < 3) return;

  if (rs.local_hops_group == 0) {
    // At the source router: misroute through this router's OWN global
    // ports (paper Fig. 3 route a commits straight onto gVC1). This keeps
    // lVC1 free for minimal first hops and spends only the bandwidth the
    // router actually owns.
    const int rl = topo_.local_index(ctx.router);
    const VcId global_vc = minimal_global_vc(ctx);  // invariant across ports
    for (int k = 0; k < topo_.num_global_ports(); ++k) {
      const PortId port = topo_.first_global_port() + k;
      const int slot = topo_.global_link_of(rl, port);
      // Unwired slots (unbalanced shapes) and dead slots (degraded
      // networks) are not candidates.
      if (!topo_.global_slot_alive(g, slot)) continue;
      RouteChoice c;
      c.commit_valiant = true;
      c.inter_group = topo_.global_link_dest(g, slot);
      if (c.inter_group == rs.dst_group) continue;
      c.port = port;
      c.vc = global_vc;
      out.push_back(c);
    }
    return;
  }

  // After the first local hop: PAR-style revert to Valiant via a sampled
  // gateway elsewhere in the group (paper Fig. 3 routes b/c) or this
  // router's own ports. For intra-group traffic that first hop can have
  // been a *misroute* onto a high VC (OFAR-style, destination == source
  // group), from which a direct global departure may be unable to start
  // the mechanism's escape ladder — direct_commit_allowed() drops those
  // candidates (the sampled draws below are consumed either way, so the
  // RNG sequence only diverges where an unsafe candidate existed).
  Rng& rng = ctx.rng;
  const bool direct_ok = direct_commit_allowed(ctx);
  const VcId global_vc =
      direct_ok ? minimal_global_vc(ctx) : 0;  // invariant across samples
  const VcId commit_vc = commit_local_vc(ctx);
  for (int s = 0; s < params_.global_candidates; ++s) {
    auto x = static_cast<GroupId>(
        rng.uniform(static_cast<std::uint64_t>(num_groups)));
    if (x == g || x == rs.dst_group) continue;
    // Degraded networks: a sampled group whose every link from here died
    // has no gateway to commit through (the sample still consumed its RNG
    // draw, keeping the draw sequence fault-independent).
    if (topo_.faulted() && !topo_.groups_linked(g, x)) continue;

    RouteChoice c;
    c.commit_valiant = true;
    c.inter_group = x;
    const RouterId gw = topo_.gateway_router(g, x);
    if (gw == ctx.router) {
      if (!direct_ok) continue;
      c.port = topo_.gateway_port(g, x);
      c.vc = global_vc;
    } else {
      if (!commit_hop_allowed(ctx, gw)) continue;
      // The connectivity invariant keeps source->gateway local links of
      // canonical routes alive; guard anyway for engines driven on
      // unvalidated fault sets.
      if (topo_.faulted() && !topo_.local_link_alive(ctx.router, gw)) {
        continue;
      }
      c.port = topo_.local_port_to(topo_.local_index(ctx.router),
                                   topo_.local_index(gw));
      c.vc = commit_vc;
    }
    out.push_back(c);
  }
}

void AdaptiveBase::collect_local_candidates(RoutingContext& ctx,
                                            std::vector<RouteChoice>& out) {
  const RouteState& rs = ctx.packet.rs;
  if (ctx.router == rs.dst_router) return;

  const GroupId g = topo_.group_of_router(ctx.router);
  // Local misrouting is allowed in the intermediate and destination
  // supernodes (OFAR-style), one per group, and only before the group's
  // minimal local hop was taken.
  const bool heading_out = rs.valiant && rs.global_hops == 0;
  const bool at_dst_group = g == rs.dst_group && !heading_out;
  const bool at_inter_group =
      rs.valiant && rs.global_hops == 1 && g != rs.dst_group;
  if (!at_dst_group && !at_inter_group) return;
  if (rs.local_mis_group > 0 || rs.local_hops_group > 0) return;

  const RouterId target = at_dst_group
                              ? rs.dst_router
                              : topo_.gateway_router(g, rs.dst_group);
  if (target == ctx.router) {
    // Already at the in-group target (gateway); the blocked output is the
    // global link and a local detour would need a third local hop later.
    return;
  }
  const int group_size = topo_.routers_per_group();
  if (group_size < 3) return;

  Rng& rng = ctx.rng;
  const int my_local = topo_.local_index(ctx.router);
  const int target_local = topo_.local_index(target);
  for (int s = 0; s < params_.local_candidates; ++s) {
    const auto k = static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(group_size)));
    if (k == my_local || k == target_local) continue;
    // Degraded networks: both legs of the detour (here -> k -> target)
    // must be alive; a dead k fails both checks via its dead ports.
    if (topo_.faulted() &&
        (!topo_.local_link_alive(ctx.router, topo_.router_id(g, k)) ||
         !topo_.local_link_alive(topo_.router_id(g, k), target))) {
      continue;
    }

    static thread_local std::vector<VcId> vc_scratch;
    vc_scratch.clear();
    local_misroute_vcs(ctx, topo_.router_id(g, k),
                       topo_.router_id(g, target_local), vc_scratch);
    for (const VcId vc : vc_scratch) {
      RouteChoice c;
      c.local_misroute = true;
      c.port = topo_.local_port_to(my_local, k);
      c.vc = vc;
      out.push_back(c);
    }
  }
}

}  // namespace dfsim
