// The cycle stepper. Routers are partitioned into shards: shard s owns
// routers [s*a, (s+1)*a) and their terminals, AND its own
// flit/credit/delivery timing wheels — every event addressed to a router
// in s lives in s's rings. A cycle runs as
//
//   1. per shard — drain this cycle's slot of the shard's own credit ring
//                  (credit bookkeeping, own routers only)
//   2. serial    — packet deliveries (per-shard delivery rings, ascending
//                  shard order) + RoutingAlgorithm::per_cycle + trace rows
//   3. per shard — drain this cycle's slot of the shard's own flit ring,
//                  then allocation over the shard's routers, then
//                  generation and injection over its terminals, both
//                  ascending; same-shard future events go straight into
//                  the shard's own rings, only cross-shard events
//                  (global-link flits and their credits) are staged in a
//                  per-source-shard outbox
//   4. serial    — replay the outboxes and hooks, materialize injections,
//                  reduce counters, in ascending shard order
//
// Flit arrivals ride in phase 3, in the same per-shard pass as the
// shard's allocation, so the VC, arena and packet lines they touch are
// still in cache when the shard's routers decide. Nothing in phase 2
// reads what a flit arrival writes (input VCs, scan masks, injection
// reservations): deliveries and trace rows touch the packet pool and the
// source queues, and per_cycle reads output credits, which phase 1 has
// already applied. So moving the flit drain past phase 2 changes no
// simulated bit.
//
// One stepper, two RNG regimes (EngineConfig::sharded, resolved at the
// three draw sites by draw_rng and the generation coin):
//
//   exact — one shard spans every router (a = the router count), the
//           phases run on the calling thread, and every draw comes from
//           the one shared cursor rng_. The phase order above is then
//           credits, deliveries, per_cycle, trace, flits, allocation over
//           all routers ascending, injection over all terminals
//           ascending, materialization in ascending terminal order, and
//           no event crosses an outbox — the serial order whose RNG
//           draws, pool ids and ring-slot orders the exact-mode goldens
//           (bit_identity_test, burst_golden_test) pin.
//   keyed — one shard per group (a = routers per group) stepped by a
//           worker team with per-phase barriers; every draw comes from a
//           counter-based stream keyed by (seed, cycle, entity). The
//           partition is a pure function of the topology, the per-shard
//           phases touch only owner-shard state, and each shard's ring
//           contents are a pure function of its deterministic staging
//           order plus the ascending-shard outbox replay. Event order
//           *within* one ring slot is arrival-bookkeeping-neutral (at most
//           one flit per input port per cycle — upstream links serialize —
//           and credit application commutes), so results are
//           bit-identical across jobs=1..N. They are NOT bit-compatible
//           with exact mode, whose single shared cursor implies a
//           different draw sequence. keyed_golden_test pins keyed
//           results across versions.
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>

#include "common/env.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/worker_team.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

namespace {

// Process-wide profile accumulator (see accumulated_phase_profile()).
std::mutex g_profile_mu;
Engine::PhaseProfile g_profile_total;

void accumulate_profile(const Engine::PhaseProfile& p) {
  std::lock_guard<std::mutex> lock(g_profile_mu);
  g_profile_total.steps += p.steps;
  g_profile_total.arrive_ns += p.arrive_ns;
  g_profile_total.deliver_ns += p.deliver_ns;
  g_profile_total.alloc_ns += p.alloc_ns;
  g_profile_total.flush_ns += p.flush_ns;
  g_profile_total.total_ns += p.total_ns;
}

std::uint64_t profile_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Engine::PhaseProfile accumulated_phase_profile() {
  std::lock_guard<std::mutex> lock(g_profile_mu);
  return g_profile_total;
}

// Defined here (not in engine.cpp) so the unique_ptr<WorkerTeam> member
// destroys against the complete type.
Engine::~Engine() {
  if (profile_ && profile_data_.steps > 0) {
    accumulate_profile(profile_data_);
  }
}

void Engine::init_shards() {
  profile_ = cfg_.profile || env_flag("DF_PROFILE");
  routers_per_shard_ =
      cfg_.sharded ? topo_.routers_per_group() : topo_.num_routers();
  const int num_shards = topo_.num_routers() / routers_per_shard_;
  shards_.resize(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.first_router = s * routers_per_shard_;
    sh.end_router = (s + 1) * routers_per_shard_;
    sh.first_terminal = sh.first_router * terminals_per_router_;
    sh.end_terminal = sh.end_router * terminals_per_router_;
    sh.scratch.out_first_nom.assign(static_cast<size_t>(ports_), -1);
    sh.flit_ring.reset(ring_size_);
    sh.credit_ring.reset(ring_size_);
    sh.delivery_ring.reset(ring_size_);
  }
  // shard_jobs <= 0 resolves through the runtime's one thread budget: the
  // whole budget for a point run on its own, this thread's share of it
  // for a point run by a parallel grid's worker. Exact mode's one shard
  // always steps on the calling thread.
  if (num_shards == 1) return;
  const int workers =
      std::min(runtime::resolve_jobs(cfg_.shard_jobs), num_shards);
  if (workers > 1) {
    shard_team_ = std::make_unique<runtime::WorkerTeam>(workers);
  }
}

// The per-worker body of one parallel phase. Static block assignment:
// worker w owns shards [w*n/W, (w+1)*n/W) in both phases of every cycle,
// so a shard's state stays in the same worker's cache. The phases touch
// disjoint state, so the assignment affects only locality, never results.
void Engine::shard_worker(int w) {
  void (Engine::*phase)(Shard&) = shard_phase_;
  const std::size_t n = shards_.size();
  const auto W = static_cast<std::size_t>(shard_team_->size());
  const auto uw = static_cast<std::size_t>(w);
  const std::size_t lo = n * uw / W;
  const std::size_t hi = n * (uw + 1) / W;
  for (std::size_t i = lo; i < hi; ++i) (this->*phase)(shards_[i]);
}

void Engine::run_shards(void (Engine::*phase)(Shard&)) {
  if (!shard_team_) {
    for (Shard& s : shards_) (this->*phase)(s);
    return;
  }
  shard_phase_ = phase;
  shard_team_->run([this](int w) { shard_worker(w); });
}

bool Engine::step() {
  if (deadlock_) return false;
  return profile_ ? step_impl<true>() : step_impl<false>();
}

template <bool kProfile>
bool Engine::step_impl() {
  // Timestamps are taken at the phase boundaries, so the four phase
  // counters tile the step exactly: arrive + deliver + alloc + flush ==
  // total by construction. The untimed instantiation contains no clock
  // reads at all.
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  if constexpr (kProfile) t0 = profile_now_ns();

  // This step's keyed-stream prefixes (draw_rng and the generation coin).
  const std::uint64_t cycle_key =
      mix64(cfg_.seed, static_cast<std::uint64_t>(now_));
  stream_key_[kStreamRoute] = mix64(cycle_key, kStreamRoute);
  stream_key_[kStreamInject] = mix64(cycle_key, kStreamInject);

  // Phase 1 (per shard): credit bookkeeping straight off each shard's own
  // credit ring.
  run_shards(&Engine::arrive_credits_shard);
  if constexpr (kProfile) t1 = profile_now_ns();

  // Phase 2 (serial): deliveries (pool release + user hook) in ascending
  // shard order, then the routing mechanism's global per-cycle work.
  // Ejection happens at the destination router, so a delivery's ring and
  // its packet's last hop share a shard: ascending-shard drain order is a
  // fixed function of the partition, and so is the pool free-list
  // sequence (hence future packet ids).
  const std::size_t slot = ring_slot(now_);
  for (Shard& s : shards_) {
    s.delivery_ring.drain(slot, [&](PacketId id) { deliver(id); });
  }
  routing_.per_cycle(*this);
  // Trace rows feed after routing bookkeeping, before allocation and
  // injection see them.
  if (workload_trace_) feed_trace();
  if constexpr (kProfile) t2 = profile_now_ns();

  // Phase 3 (per shard): flit arrivals, switch allocation + injection.
  // Same-shard future events are scheduled directly; cross-shard ones land
  // in the outbox.
  run_shards(&Engine::allocate_and_inject_shard);
  if constexpr (kProfile) t3 = profile_now_ns();

  // Phase 4 (serial): apply the staged cross-shard effects in ascending
  // shard order.
  for (Shard& s : shards_) flush_shard(s);

  if (pool_.in_use() > 0 && now_ - last_progress_ > cfg_.watchdog_cycles) {
    deadlock_ = true;
  }
  ++now_;

  if constexpr (kProfile) {
    t4 = profile_now_ns();
    ++profile_data_.steps;
    profile_data_.arrive_ns += t1 - t0;
    profile_data_.deliver_ns += t2 - t1;
    profile_data_.alloc_ns += t3 - t2;
    profile_data_.flush_ns += t4 - t3;
    profile_data_.total_ns += t4 - t0;
  }
  return !deadlock_;
}

// Credit application commutes, so the order of a slot's credits (with
// several shards: same-shard events before replayed cross-shard ones) is
// immaterial.
void Engine::arrive_credits_shard(Shard& s) {
  s.credit_ring.drain_prefetch(
      ring_slot(now_),
      [&](const CreditEvent& ev) {
        __builtin_prefetch(&out_vcs_[vc_index(ev.router, ev.port, ev.vc)]);
      },
      [&](const CreditEvent& ev) {
        const std::size_t ovidx = vc_index(ev.router, ev.port, ev.vc);
        OutputVc& ovc = out_vcs_[ovidx];
        ovc.credits_phits += ev.phits;
        assert(ovc.credits_phits <= port_capacity(ev.port));
        wake_waiters(ovidx);  // waiter chains never leave the router
      });
}

// Flit arrival bookkeeping is order-invariant within a slot too: the
// upstream link's serialization means at most one flit per input port per
// cycle. The prefetch pass also pulls in each flit's packet, which the
// allocation right after this drain reads for every fresh head.
void Engine::arrive_flits(Shard& s) {
  s.flit_ring.drain_prefetch(
      ring_slot(now_),
      [&](const FlitEvent& ev) {
        __builtin_prefetch(&in_vcs_[vc_index(ev.router, ev.port, ev.vc)]);
        __builtin_prefetch(&pool_[ev.flit.packet]);
      },
      [&](const FlitEvent& ev) {
        const std::size_t vidx = vc_index(ev.router, ev.port, ev.vc);
        InputVc& ivc = in_vcs_[vidx];
        if (ivc.fifo.empty()) {
          ++nonempty_vcs_[static_cast<size_t>(ev.router)];
          ivc.head_since = now_;
          head_hop_[vidx] = kHeadUnknown;  // this flit becomes the head
          const std::size_t pidx = port_index(ev.router, ev.port);
          std::uint32_t& scan = in_scan_[pidx];
          if ((scan >> 16) == 0) set_occupied(ev.router, ev.port);
          scan |= 1u << (16 + ev.vc);
          port_wake_[pidx] = 0;  // a fresh head makes the port actionable
        }
        ivc.fifo.push_back(ev.flit);
        ivc.occupancy_phits += ev.flit.size_phits;
        if (pclass(ev.port) == PortClass::kTerminal) {
          const NodeId t = ev.router * terminals_per_router_ +
                           (ev.port - first_terminal_port_);
          terminals_[static_cast<size_t>(t)].inflight_phits -=
              ev.flit.size_phits;
        }
        assert(ivc.occupancy_phits <= port_capacity(ev.port));
      });
}

void Engine::allocate_and_inject_shard(Shard& s) {
  arrive_flits(s);

  // Routers in ascending id order: in exact mode routing mechanisms draw
  // from the shared cursor inside decide(), so order is part of the
  // contract.
  for (RouterId r = s.first_router; r < s.end_router; ++r) {
    if (nonempty_vcs_[static_cast<size_t>(r)] > 0) allocate_router(r, s);
  }

  // Terminals draw generation randomness in strict ascending order, one
  // coin per live terminal, each followed by that terminal's injection
  // attempt (and so its destination draw).
  const bool draws = injection_.mode == InjectionProcess::Mode::kBernoulli &&
                     (gen_probability_ > 0.0 || has_terminal_loads_);
  if (draws && !onoff_) {
    // Plain Bernoulli. Exact mode flips rng_.bernoulli. Keyed mode's coin
    // for terminal t is a single mix64 of the hoisted per-cycle stream key
    // against a fixed threshold — no keyed Rng is built unless the
    // terminal reaches its destination draw (try_inject_shard derives the
    // stream lazily; its xoshiro reseed decorrelates the stream from the
    // raw coin value). Still a pure function of (seed, cycle, terminal),
    // hence exactly as jobs-invariant as a full per-terminal stream.
    const std::uint64_t kcd = stream_key_[kStreamInject];
    const bool always = gen_probability_ >= 1.0;
    const std::uint64_t threshold =
        always ? ~0ULL
               : static_cast<std::uint64_t>(
                     gen_probability_ * 18446744073709551616.0 /* 2^64 */);
    for (NodeId t = s.first_terminal; t < s.end_terminal; ++t) {
      if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(t)]) {
        continue;
      }
      const auto ti = static_cast<std::size_t>(t);
      TerminalState& ts = terminals_[ti];
      bool generate = false;
      if (cfg_.sharded) {
        // Per-terminal workload loads swap in each terminal's own
        // threshold; an all-ones threshold means "always generate" in
        // either case, so the uniform-load coin is bit-for-bit unchanged.
        const std::uint64_t th =
            has_terminal_loads_ ? terminal_gen_threshold_[ti] : threshold;
        generate =
            th == ~0ULL || mix64(kcd, static_cast<std::uint64_t>(t)) < th;
      } else {
        generate = rng_.bernoulli(has_terminal_loads_ ? terminal_gen_prob_[ti]
                                                      : gen_probability_);
      }
      if (generate) {
        const bool accepted =
            ts.pending_created.size() <
            static_cast<std::size_t>(cfg_.source_queue_cap);
        if (accepted) ts.pending_created.push_back(now_);
        if (on_generated_) s.gen_accepted.push_back(accepted ? 1 : 0);
      } else if (!terminal_has_work(t, ts)) {
        continue;  // nothing generated, nothing queued: no attempt
      }
      try_inject_shard(t, ts, nullptr, s);
    }
    return;
  }
  if (draws) {
    // Markov ON/OFF sources, in a fixed per-terminal draw order: chain
    // step (one draw), generation at the duty-compensated rate while ON (a
    // second draw), then (inside try_inject_shard) the destination draw —
    // all from the terminal's keyed stream, or from the shared cursor in
    // exact mode.
    for (NodeId t = s.first_terminal; t < s.end_terminal; ++t) {
      if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(t)]) {
        continue;
      }
      TerminalState& ts = terminals_[static_cast<size_t>(t)];
      Rng& trng = draw_rng(s, kStreamInject, static_cast<std::uint64_t>(t));
      std::uint8_t& on = onoff_state_[static_cast<size_t>(t)];
      if (on != 0) {
        if (trng.bernoulli(injection_.onoff_off)) on = 0;
      } else if (trng.bernoulli(injection_.onoff_on)) {
        on = 1;  // transitions apply immediately: an ON entry can generate
      }
      const bool generate = on != 0 && trng.bernoulli(gen_probability_on_);
      if (generate) {
        const bool accepted =
            ts.pending_created.size() <
            static_cast<std::size_t>(cfg_.source_queue_cap);
        if (accepted) ts.pending_created.push_back(now_);
        if (on_generated_) s.gen_accepted.push_back(accepted ? 1 : 0);
      }
      try_inject_shard(t, ts, &trng, s);
    }
    return;
  }

  // No generation randomness (burst mode, zero load, or scripted
  // destinations only): look at terminals with queued work. Nothing has
  // been drawn for the terminal yet, so try_inject_shard picks its stream
  // lazily — only if the attempt survives to the destination draw.
  for (NodeId t = s.first_terminal; t < s.end_terminal; ++t) {
    TerminalState& ts = terminals_[static_cast<size_t>(t)];
    if (!terminal_has_work(t, ts)) continue;
    try_inject_shard(t, ts, nullptr, s);
  }
}

// One injection attempt, restricted to owner-shard state: the packet
// itself (a pool allocation, hence cross-shard) is staged and materialized
// at the flush in ascending terminal order, but the source-side
// bookkeeping — queue pop, destination draw, inflight/link accounting —
// happens here so later capacity checks see it.
void Engine::try_inject_shard(NodeId t, TerminalState& ts, Rng* rng,
                              Shard& s) {
  if (!terminal_has_work(t, ts)) return;
  if (ts.link_busy_until > now_) return;

  const RouterId r = topo_.router_of_terminal(t);
  const PortId port = topo_.terminal_port(t);
  const InputVc& ivc = in_vcs_[vc_index(r, port, 0)];
  if (ivc.occupancy_phits + ts.inflight_phits + cfg_.packet_phits >
      injection_buf_phits_) {
    return;
  }

  Cycle created = 0;
  NodeId dst = kInvalid;
  std::uint8_t flags = 0;
  const auto ti = static_cast<std::size_t>(t);
  if (has_forced_dst_ && !forced_dst_[ti].empty()) {
    // Forced packets (scripted injections, workload replies, message
    // bodies, trace rows) carry their own creation time and flags and go
    // ahead of the Bernoulli backlog. Terminal t's queues belong to this
    // shard alone, so the per-shard pop is race-free.
    created = forced_created_[ti].front();
    forced_created_[ti].pop_front();
    dst = forced_dst_[ti].front();
    forced_dst_[ti].pop_front();
    flags = forced_flags_[ti].front();
    forced_flags_[ti].pop_front();
  } else {
    if (!ts.pending_created.empty()) {
      created = ts.pending_created.front();
      ts.pending_created.pop_front();
    } else {
      assert(ts.burst_remaining > 0);
      --ts.burst_remaining;
    }
    if (rng == nullptr) {
      // No generation draw preceded this attempt, so a keyed stream is
      // still at its origin: deriving it here, at its first actual draw,
      // is draw-for-draw identical to deriving it up front.
      rng = &draw_rng(s, kStreamInject, static_cast<std::uint64_t>(t));
    }
    dst = pattern_->dest(t, *rng);
    if (workload_ != nullptr) {
      // Multi-packet messages: the size draw comes from the same stream
      // as the destination (in keyed mode a pure function of
      // (seed, cycle, terminal) — hence jobs-invariant). Body packets
      // queue as forced entries behind this head (own-terminal push:
      // race-free); their generation hook replays from the staging
      // buffer at the serial flush.
      const int extra = workload_->message_packets(t, *rng) - 1;
      for (int k = 0; k < extra; ++k) {
        const bool accepted =
            push_forced(t, dst, created, kPacketFlagNoReply);
        if (on_generated_) s.gen_accepted.push_back(accepted ? 1 : 0);
      }
    }
  }
  assert(dst != t && dst >= 0 && dst < topo_.num_terminals());

  // A packet addressed to a terminal on a dead router can never be
  // delivered; it is dropped at the source (counted, so accepted-load
  // analysis can separate fault losses from congestion).
  if (has_dead_terminals_ && terminal_dead_[static_cast<size_t>(dst)]) {
    ++s.dead_dst_drops;
    return;
  }

  ts.inflight_phits += cfg_.packet_phits;
  ts.link_busy_until = now_ + static_cast<Cycle>(cfg_.packet_phits);
  s.injections.push_back({t, dst, created, flags});
  s.progressed = true;
}

void Engine::flush_shard(Shard& s) {
  if (s.deadlock) deadlock_ = true;
  s.deadlock = false;

  // User hooks replay in staging order (allocation order within the
  // shard), ascending shard — a deterministic serialization.
  if (on_hop_) {
    for (const HopRecord& h : s.hops) {
      // Hopped packets are alive at least until their staged delivery
      // fires, which is strictly in the future.
      on_hop_(pool_[h.packet], h.choice, h.router);
    }
    s.hops.clear();
  }
  if (on_generated_) {
    for (const std::uint8_t accepted : s.gen_accepted) {
      on_generated_(now_, accepted != 0);
    }
    s.gen_accepted.clear();
  }

  // Cross-shard events, replayed in staging order. Events bound for
  // different destination shards land in disjoint rings, so one outbox
  // per source shard replayed here is slot-for-slot identical to a
  // per-(source, destination) split replayed in ascending (src, dst).
  for (const StagedCredit& c : s.outbox_credits) {
    assert(c.at > now_ && c.at - now_ < ring_size_);
    shards_[shard_of(c.ev.router)].credit_ring.push(ring_slot(c.at), c.ev);
  }
  s.outbox_credits.clear();
  for (const StagedFlit& f : s.outbox_flits) {
    assert(f.at > now_ && f.at - now_ < ring_size_);
    shards_[shard_of(f.ev.router)].flit_ring.push(ring_slot(f.at), f.ev);
  }
  s.outbox_flits.clear();

  for (const StagedInjection& inj : s.injections) {
    const PacketId id = pool_.alloc();
    Packet& pkt = pool_[id];
    pkt.src = inj.terminal;
    pkt.dst = inj.dst;
    pkt.size_phits = cfg_.packet_phits;
    pkt.num_flits = static_cast<std::int16_t>(flits_per_packet_);
    pkt.flit_phits = static_cast<std::int16_t>(flit_phits_);
    pkt.created = inj.created;
    pkt.injected = now_;
    pkt.flags = inj.flags;
    pkt.rs.dst_router = topo_.router_of_terminal(inj.dst);
    pkt.rs.dst_group = topo_.group_of_terminal(inj.dst);
    pkt.rs.src_group = topo_.group_of_terminal(inj.terminal);

    // The source terminal's router is in this very shard, so injection
    // flits go straight into s's own wheel (the flush is serial; nothing
    // is draining it).
    const RouterId r = topo_.router_of_terminal(inj.terminal);
    const PortId port = topo_.terminal_port(inj.terminal);
    for (int k = 0; k < flits_per_packet_; ++k) {
      Flit flit;
      flit.packet = id;
      flit.index = static_cast<std::int16_t>(k);
      flit.size_phits = static_cast<std::int16_t>(flit_phits_);
      flit.head = (k == 0);
      flit.tail = (k == flits_per_packet_ - 1);
      const Cycle at = now_ + static_cast<Cycle>((k + 1) * flit_phits_);
      s.flit_ring.push(ring_slot(at), {r, port, 0, flit});
    }
  }
  s.injections.clear();

  for (int c = 0; c < 3; ++c) {
    phits_sent_[c] += s.phits_sent[c];
    s.phits_sent[c] = 0;
  }
  dead_dst_drops_ += s.dead_dst_drops;
  s.dead_dst_drops = 0;
  if (s.progressed) last_progress_ = now_;
  s.progressed = false;
}

}  // namespace dfsim
