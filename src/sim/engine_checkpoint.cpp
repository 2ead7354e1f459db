// Engine checkpoint/restart: serialize the flat engine state so a run
// killed at cycle C resumes bit-identically (exact-mode determinism).
//
// What is saved: the clock, the RNG cursor, every input-VC FIFO, credits
// and wormhole bindings, switch round-robin pointers, the packet pool
// (slot contents and free-list order — future alloc() ids must replay),
// per-terminal source queues / burst budgets / ON/OFF chains, the timing
// wheels' in-flight events (v5: a shard count, then one wheel triple per
// shard — one shard in exact mode, one per group in keyed mode), delivery
// counters, the routing mechanism's cross-cycle state, and (v4) the
// workload layer: per-packet flag bytes, the forced-injection
// (created, dst, flags) queues, per-terminal offered loads and the trace
// replay cursor.
//
// What is deliberately NOT saved, because rebuilding it is decision- and
// RNG-neutral: the retry-suppression caches (vc_sleep_until_, waiter
// lists, head_hop_ verdicts) — a woken head redoes a usability check that
// fails identically; pure verdicts are recomputed by pure_minimal_hop,
// which is RNG-free by contract — the per-packet minimal-port memos, and
// the occupied-port and nonempty-VC counts (recomputed from the FIFOs).
//
// The stream is untrusted: restore range-checks every index it will later
// use to address engine state and throws a pointed std::runtime_error
// ("checkpoint corrupt: ...") instead of indexing out of bounds.
#include <bit>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"
#include "sim/engine.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

namespace {

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("checkpoint corrupt: " + what);
}

constexpr char kMagic[8] = {'D', 'F', 'E', 'N', 'G', 'C', 'K', '\n'};
constexpr std::uint64_t kEndSentinel = 0xdf51aced0c0ffee1ULL;

void write_flit(std::ostream& os, const Flit& f) {
  ser::write_i32(os, f.packet);
  ser::write_i32(os, f.index);
  ser::write_i32(os, f.size_phits);
  ser::write_u8(os, f.head ? 1 : 0);
  ser::write_u8(os, f.tail ? 1 : 0);
}

Flit read_flit(std::istream& is) {
  Flit f;
  f.packet = ser::read_i32(is, "flit packet id");
  f.index = static_cast<std::int16_t>(ser::read_i32(is, "flit index"));
  f.size_phits =
      static_cast<std::int16_t>(ser::read_i32(is, "flit size"));
  f.head = ser::read_u8(is, "flit head flag") != 0;
  f.tail = ser::read_u8(is, "flit tail flag") != 0;
  return f;
}

void write_packet(std::ostream& os, const Packet& p) {
  ser::write_i32(os, p.src);
  ser::write_i32(os, p.dst);
  ser::write_i32(os, p.size_phits);
  ser::write_i32(os, p.num_flits);
  ser::write_i32(os, p.flit_phits);
  ser::write_u64(os, p.created);
  ser::write_u64(os, p.injected);
  const RouteState& rs = p.rs;
  ser::write_i32(os, rs.dst_router);
  ser::write_i32(os, rs.dst_group);
  ser::write_i32(os, rs.src_group);
  ser::write_i32(os, rs.inter_group);
  ser::write_u8(os, rs.valiant ? 1 : 0);
  ser::write_i32(os, rs.global_hops);
  ser::write_i32(os, rs.local_hops_group);
  ser::write_i32(os, rs.local_mis_group);
  ser::write_i32(os, rs.local_hops_total);
  ser::write_i32(os, rs.total_hops);
  ser::write_i32(os, rs.prev_local_idx);
  ser::write_i32(os, rs.last_local_vc);
  ser::write_u8(os, p.flags);
  // min_cache is a pure memo: recomputed on first use after restore.
}

Packet read_packet(std::istream& is) {
  Packet p;
  p.src = ser::read_i32(is, "packet src");
  p.dst = ser::read_i32(is, "packet dst");
  p.size_phits = ser::read_i32(is, "packet size");
  p.num_flits =
      static_cast<std::int16_t>(ser::read_i32(is, "packet flit count"));
  p.flit_phits =
      static_cast<std::int16_t>(ser::read_i32(is, "packet flit size"));
  p.created = ser::read_u64(is, "packet created cycle");
  p.injected = ser::read_u64(is, "packet injected cycle");
  RouteState& rs = p.rs;
  rs.dst_router = ser::read_i32(is, "route dst router");
  rs.dst_group = ser::read_i32(is, "route dst group");
  rs.src_group = ser::read_i32(is, "route src group");
  rs.inter_group = ser::read_i32(is, "route inter group");
  rs.valiant = ser::read_u8(is, "route valiant flag") != 0;
  rs.global_hops =
      static_cast<std::int8_t>(ser::read_i32(is, "route global hops"));
  rs.local_hops_group =
      static_cast<std::int8_t>(ser::read_i32(is, "route local hops"));
  rs.local_mis_group =
      static_cast<std::int8_t>(ser::read_i32(is, "route local misroutes"));
  rs.local_hops_total =
      static_cast<std::int8_t>(ser::read_i32(is, "route local hops total"));
  rs.total_hops =
      static_cast<std::int8_t>(ser::read_i32(is, "route total hops"));
  rs.prev_local_idx =
      static_cast<std::int8_t>(ser::read_i32(is, "route prev local idx"));
  rs.last_local_vc =
      static_cast<std::int8_t>(ser::read_i32(is, "route last local vc"));
  p.flags = ser::read_u8(is, "packet flags");
  return p;
}

}  // namespace

void Engine::save_checkpoint(std::ostream& os) const {
  // --- versioned, shape-checked header ----------------------------------
  ser::write_bytes(os, kMagic, sizeof(kMagic));
  ser::write_u32(os, kCheckpointVersion);
  ser::write_u64(os, static_cast<std::uint64_t>(topo_.num_routers()));
  ser::write_u64(os, static_cast<std::uint64_t>(topo_.num_terminals()));
  ser::write_u64(os, static_cast<std::uint64_t>(ports_));
  ser::write_u64(os, static_cast<std::uint64_t>(vc_stride_));
  ser::write_u64(os, static_cast<std::uint64_t>(flit_phits_));
  ser::write_u64(os, static_cast<std::uint64_t>(flits_per_packet_));
  ser::write_u64(os, ring_size_);
  ser::write_u8(os, static_cast<std::uint8_t>(cfg_.flow));
  ser::write_u8(os, onoff_ ? 1 : 0);
  // v2: engine mode. The two RNG regimes draw different streams, so
  // resuming a sharded run under exact (or vice versa) would silently fork
  // the trajectory.
  ser::write_u8(os, cfg_.sharded ? 1 : 0);
  ser::write_string(os, routing_.name());

  // --- clock, RNG, counters ---------------------------------------------
  ser::write_u64(os, now_);
  ser::write_u64(os, last_progress_);
  ser::write_u8(os, deadlock_ ? 1 : 0);
  std::uint64_t rng_state[Rng::kStateWords];
  rng_.save_state(rng_state);
  for (const auto w : rng_state) ser::write_u64(os, w);
  ser::write_f64(os, injection_.load);
  ser::write_u64(os, delivered_packets_);
  ser::write_u64(os, delivered_phits_);
  for (const auto s : phits_sent_) ser::write_u64(os, s);
  ser::write_u64(os, dead_dst_drops_);

  // --- packet pool (slot layout + free-list order) ----------------------
  ser::write_u64(os, pool_.capacity());
  ser::write_u64(os, pool_.free_list().size());
  for (const PacketId id : pool_.free_list()) ser::write_i32(os, id);
  std::vector<std::uint8_t> live(pool_.capacity(), 1);
  for (const PacketId id : pool_.free_list()) {
    live[static_cast<std::size_t>(id)] = 0;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i]) write_packet(os, pool_[static_cast<PacketId>(i)]);
  }

  // --- router state: input/output VCs, per-port scan state --------------
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    for (PortId p = 0; p < ports_; ++p) {
      for (VcId v = 0; v < vc_count(p); ++v) {
        const InputVc& ivc = in_vcs_[vc_index(r, p, v)];
        ser::write_u32(os, static_cast<std::uint32_t>(ivc.fifo.size()));
        // FixedRing exposes only the front; visit by draining a copy.
        FixedRing<Flit> walk = ivc.fifo;
        while (!walk.empty()) {
          write_flit(os, walk.front());
          walk.pop_front();
        }
        ser::write_i32(os, ivc.occupancy_phits);
        ser::write_i32(os, ivc.bound_out_port);
        ser::write_i32(os, ivc.bound_out_vc);
        ser::write_u64(os, ivc.head_since);
        const OutputVc& ovc = out_vcs_[vc_index(r, p, v)];
        ser::write_i32(os, ovc.credits_phits);
        ser::write_i32(os, ovc.bound_packet);
      }
      ser::write_u64(os, out_busy_until_[port_index(r, p)]);
      ser::write_u32(os, in_scan_[port_index(r, p)]);
      ser::write_u32(os, out_rr_[port_index(r, p)]);
    }
  }

  // --- terminal injection state -----------------------------------------
  for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
    const TerminalState& ts = terminals_[static_cast<std::size_t>(t)];
    ser::write_u64(os, ts.pending_created.size());
    ts.pending_created.for_each(
        [&](const Cycle c) { ser::write_u64(os, c); });
    if (has_forced_dst_) {
      // v4: forced entries are (created, dst, flags) triples; the three
      // parallel queues always hold the same count, serialized
      // queue-major.
      const auto ti = static_cast<std::size_t>(t);
      const auto& fd = forced_dst_[ti];
      ser::write_u64(os, fd.size());
      fd.for_each([&](const NodeId d) { ser::write_i32(os, d); });
      forced_created_[ti].for_each(
          [&](const Cycle c) { ser::write_u64(os, c); });
      forced_flags_[ti].for_each(
          [&](const std::uint8_t f) { ser::write_u8(os, f); });
    } else {
      ser::write_u64(os, 0);
    }
    ser::write_u64(os, ts.burst_remaining);
    ser::write_u64(os, ts.link_busy_until);
    ser::write_i32(os, ts.inflight_phits);
  }
  if (onoff_) {
    for (const std::uint8_t s : onoff_state_) ser::write_u8(os, s);
  }

  // --- workload state (v4) ----------------------------------------------
  ser::write_u8(os, has_terminal_loads_ ? 1 : 0);
  if (has_terminal_loads_) {
    for (const double p : terminal_gen_prob_) ser::write_f64(os, p);
  }
  ser::write_u8(os, workload_ != nullptr ? 1 : 0);
  ser::write_u64(os, workload_ != nullptr ? workload_->cursor() : 0);

  // --- timing wheels -----------------------------------------------------
  // v5: a shard count, then one wheel triple per shard, shard-major (exact
  // mode writes a count of 1).
  ser::write_u64(os, shards_.size());
  for (const Shard& s : shards_) {
    const SlabEventRing<FlitEvent>& fr = s.flit_ring;
    const SlabEventRing<CreditEvent>& cr = s.credit_ring;
    const SlabEventRing<PacketId>& dr = s.delivery_ring;
    for (std::size_t slot = 0; slot < ring_size_; ++slot) {
      ser::write_u32(os, static_cast<std::uint32_t>(fr.slot_size(slot)));
      fr.visit(slot, [&](const FlitEvent& ev) {
        ser::write_i32(os, ev.router);
        ser::write_i32(os, ev.port);
        ser::write_i32(os, ev.vc);
        write_flit(os, ev.flit);
      });
      ser::write_u32(os, static_cast<std::uint32_t>(cr.slot_size(slot)));
      cr.visit(slot, [&](const CreditEvent& ev) {
        ser::write_i32(os, ev.router);
        ser::write_i32(os, ev.port);
        ser::write_i32(os, ev.vc);
        ser::write_i32(os, ev.phits);
      });
      ser::write_u32(os, static_cast<std::uint32_t>(dr.slot_size(slot)));
      dr.visit(slot, [&](const PacketId id) { ser::write_i32(os, id); });
    }
  }

  // --- routing mechanism state ------------------------------------------
  routing_.save_state(os);
  ser::write_u64(os, kEndSentinel);
}

void Engine::restore(std::istream& is) {
  if (now_ != 0 || pool_.in_use() != 0) {
    throw std::logic_error(
        "Engine::restore requires a freshly-constructed engine (same "
        "config as the checkpointed run)");
  }

  // --- header ------------------------------------------------------------
  char magic[8];
  ser::read_bytes(is, magic, sizeof(magic), "checkpoint magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(
        "not a dfsim engine checkpoint (bad magic bytes)");
  }
  const std::uint32_t version = ser::read_u32(is, "checkpoint version");
  if (version == 2) {
    // The one predecessor anyone may still hold files from gets a pointed
    // message: v3 moved the sharded engine's in-flight events into
    // per-shard timing wheels, so a v2 stream cannot be decoded here.
    throw std::runtime_error(
        "checkpoint format version 2 is not supported by this build "
        "(version 3 stores the sharded engine's in-flight events in "
        "per-shard timing wheels; re-run the checkpointed experiment to "
        "produce a v3 checkpoint)");
  }
  if (version == 3) {
    throw std::runtime_error(
        "checkpoint format version 3 is not supported by this build "
        "(version 4 adds workload state: per-packet flag bytes, the "
        "forced-injection queues' creation times and flags, per-terminal "
        "offered loads and the trace replay cursor; re-run the "
        "checkpointed experiment to produce a v4 checkpoint)");
  }
  if (version == 4) {
    throw std::runtime_error(
        "checkpoint format version 4 is not supported by this build "
        "(version 5 stores the timing wheels as a shard count followed by "
        "one wheel triple per shard, and exact-mode runs now write one "
        "shard where version 4 wrote the global wheels; re-run the "
        "checkpointed experiment to produce a v5 checkpoint)");
  }
  if (version != kCheckpointVersion) {
    throw std::runtime_error(
        "checkpoint format version " + std::to_string(version) +
        " is not supported by this build (expected " +
        std::to_string(kCheckpointVersion) + ")");
  }
  ser::expect_u64(is, static_cast<std::uint64_t>(topo_.num_routers()),
                  "router count");
  ser::expect_u64(is, static_cast<std::uint64_t>(topo_.num_terminals()),
                  "terminal count");
  ser::expect_u64(is, static_cast<std::uint64_t>(ports_),
                  "ports per router");
  ser::expect_u64(is, static_cast<std::uint64_t>(vc_stride_), "VC stride");
  ser::expect_u64(is, static_cast<std::uint64_t>(flit_phits_),
                  "flit phits");
  ser::expect_u64(is, static_cast<std::uint64_t>(flits_per_packet_),
                  "flits per packet");
  ser::expect_u64(is, ring_size_, "timing-wheel size");
  const std::uint8_t flow = ser::read_u8(is, "flow control");
  if (flow != static_cast<std::uint8_t>(cfg_.flow)) {
    throw std::runtime_error(
        "checkpoint mismatch: flow-control discipline differs from this "
        "configuration");
  }
  const std::uint8_t onoff = ser::read_u8(is, "onoff flag");
  if ((onoff != 0) != onoff_) {
    throw std::runtime_error(
        "checkpoint mismatch: Markov ON/OFF injection differs from this "
        "configuration");
  }
  const std::uint8_t sharded = ser::read_u8(is, "engine mode");
  if ((sharded != 0) != cfg_.sharded) {
    throw std::runtime_error(
        std::string("checkpoint mismatch: the run was checkpointed under "
                    "the ") +
        (sharded != 0 ? "sharded" : "exact") +
        " engine but this configuration uses the " +
        (cfg_.sharded ? "sharded" : "exact") +
        " engine (the two draw different RNG streams; set engine= to "
        "match)");
  }
  const std::string routing_name = ser::read_string(is, "routing name");
  if (routing_name != routing_.name()) {
    throw std::runtime_error(
        "checkpoint mismatch: routing mechanism is \"" + routing_name +
        "\" in the checkpoint but \"" + routing_.name() +
        "\" in this configuration");
  }

  // --- clock, RNG, counters ---------------------------------------------
  now_ = ser::read_u64(is, "cycle clock");
  last_progress_ = ser::read_u64(is, "last progress cycle");
  deadlock_ = ser::read_u8(is, "deadlock flag") != 0;
  std::uint64_t rng_state[Rng::kStateWords];
  for (auto& w : rng_state) w = ser::read_u64(is, "rng state");
  rng_.set_state(rng_state);
  // Re-derives gen_probability_ (and the ON/OFF duty compensation) with
  // the same arithmetic the original run used — bit-identical draws.
  set_offered_load(ser::read_f64(is, "offered load"));
  delivered_packets_ = ser::read_u64(is, "delivered packets");
  delivered_phits_ = ser::read_u64(is, "delivered phits");
  for (auto& s : phits_sent_) s = ser::read_u64(is, "phits sent");
  dead_dst_drops_ = ser::read_u64(is, "dead destination drops");

  // --- packet pool -------------------------------------------------------
  const std::uint64_t slot_count = ser::read_u64(is, "pool slot count");
  const std::uint64_t free_count = ser::read_u64(is, "pool free count");
  if (free_count > slot_count) {
    corrupt("packet-pool free list larger than the pool");
  }
  std::vector<PacketId> free_list(static_cast<std::size_t>(free_count));
  for (auto& id : free_list) {
    id = ser::read_i32(is, "pool free id");
    if (id < 0 || static_cast<std::uint64_t>(id) >= slot_count) {
      corrupt("packet-pool free id out of range");
    }
  }
  std::vector<std::uint8_t> live(static_cast<std::size_t>(slot_count), 1);
  for (const PacketId id : free_list) {
    if (live[static_cast<std::size_t>(id)] == 0) {
      corrupt("packet-pool free id listed twice");
    }
    live[static_cast<std::size_t>(id)] = 0;
  }
  pool_.restore(static_cast<std::size_t>(slot_count), std::move(free_list));
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i]) pool_[static_cast<PacketId>(i)] = read_packet(is);
  }
  // Every packet id read below indexes the pool: it must name a live slot.
  const auto expect_live = [&](PacketId id, const char* what) {
    if (id < 0 || static_cast<std::size_t>(id) >= live.size() ||
        live[static_cast<std::size_t>(id)] == 0) {
      corrupt(std::string(what) + " names packet " + std::to_string(id) +
              ", not a live pool slot");
    }
  };
  // (port, vc) must address an existing VC of one router.
  const auto expect_vc = [&](std::int32_t port, std::int32_t vc,
                             const char* what) {
    if (port < 0 || port >= ports_) {
      corrupt(std::string(what) + " port " + std::to_string(port) +
              " out of range (routers have " + std::to_string(ports_) +
              " ports)");
    }
    if (vc < 0 || vc >= vc_count(port)) {
      corrupt(std::string(what) + " VC " + std::to_string(vc) +
              " out of range (port " + std::to_string(port) + " has " +
              std::to_string(vc_count(port)) + " VCs)");
    }
  };

  // --- router state ------------------------------------------------------
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    for (PortId p = 0; p < ports_; ++p) {
      std::uint32_t nonempty_mask = 0;
      for (VcId v = 0; v < vc_count(p); ++v) {
        const std::size_t vidx = vc_index(r, p, v);
        InputVc& ivc = in_vcs_[vidx];
        const std::uint32_t nflits = ser::read_u32(is, "input VC depth");
        if (nflits > static_cast<std::uint32_t>(ivc.fifo.capacity())) {
          corrupt("input VC holds more flits than its buffer capacity");
        }
        for (std::uint32_t k = 0; k < nflits; ++k) {
          const Flit flit = read_flit(is);
          expect_live(flit.packet, "an input-VC flit");
          ivc.fifo.push_back(flit);
        }
        if (nflits > 0) nonempty_mask |= 1u << v;
        ivc.occupancy_phits = ser::read_i32(is, "input VC occupancy");
        const std::int32_t bport = ser::read_i32(is, "VC bound port");
        const std::int32_t bvc = ser::read_i32(is, "VC bound vc");
        if (bport != InputVc::kInvalid16 || bvc != InputVc::kInvalid16) {
          expect_vc(bport, bvc, "input-VC binding");
        }
        ivc.bound_out_port = static_cast<std::int16_t>(bport);
        ivc.bound_out_vc = static_cast<std::int16_t>(bvc);
        ivc.head_since = ser::read_u64(is, "VC head since");
        OutputVc& ovc = out_vcs_[vidx];
        ovc.credits_phits = ser::read_i32(is, "output VC credits");
        ovc.bound_packet = ser::read_i32(is, "output VC bound packet");
      }
      const std::size_t pidx = port_index(r, p);
      out_busy_until_[pidx] = ser::read_u64(is, "port busy-until");
      const std::uint32_t scan = ser::read_u32(is, "port scan word");
      if ((scan & 0xffffu) >= static_cast<std::uint32_t>(vc_count(p))) {
        corrupt("input-port RR pointer " + std::to_string(scan & 0xffffu) +
                " out of range (port " + std::to_string(p) + " has " +
                std::to_string(vc_count(p)) + " VCs)");
      }
      if ((scan >> 16) != nonempty_mask) {
        corrupt("input-port nonempty-VC mask disagrees with the VC FIFOs "
                "(router " + std::to_string(r) + ", port " +
                std::to_string(p) + ")");
      }
      in_scan_[pidx] = scan;
      const std::uint32_t rr = ser::read_u32(is, "port RR pointer");
      if (rr >= static_cast<std::uint32_t>(ports_)) {
        corrupt("output-port RR pointer " + std::to_string(rr) +
                " out of range (routers have " + std::to_string(ports_) +
                " ports)");
      }
      out_rr_[pidx] = static_cast<std::uint16_t>(rr);
    }
  }

  // --- terminals ---------------------------------------------------------
  forced_dst_.clear();
  forced_created_.clear();
  forced_flags_.clear();
  has_forced_dst_ = false;
  const auto cap = static_cast<std::uint64_t>(cfg_.source_queue_cap);
  for (NodeId t = 0; t < topo_.num_terminals(); ++t) {
    TerminalState& ts = terminals_[static_cast<std::size_t>(t)];
    ts.pending_created = {};
    const std::uint64_t npending = ser::read_u64(is, "source queue depth");
    if (npending > cap) {
      corrupt("source queue depth " + std::to_string(npending) +
              " exceeds source_queue_cap " + std::to_string(cap));
    }
    for (std::uint64_t k = 0; k < npending; ++k) {
      ts.pending_created.push_back(ser::read_u64(is, "source queue entry"));
    }
    const std::uint64_t nforced = ser::read_u64(is, "forced dst depth");
    if (nforced > cap) {
      corrupt("forced queue depth " + std::to_string(nforced) +
              " exceeds source_queue_cap " + std::to_string(cap));
    }
    if (nforced > 0 && !has_forced_dst_) {
      const auto n = static_cast<std::size_t>(topo_.num_terminals());
      forced_dst_.resize(n);
      forced_created_.resize(n);
      forced_flags_.resize(n);
      has_forced_dst_ = true;
    }
    const auto ti = static_cast<std::size_t>(t);
    for (std::uint64_t k = 0; k < nforced; ++k) {
      const NodeId dst = ser::read_i32(is, "forced dst entry");
      if (dst < 0 || dst >= topo_.num_terminals() || dst == t) {
        corrupt("forced destination " + std::to_string(dst) +
                " of terminal " + std::to_string(t) +
                " is out of range or the source itself");
      }
      forced_dst_[ti].push_back(dst);
    }
    for (std::uint64_t k = 0; k < nforced; ++k) {
      forced_created_[ti].push_back(
          ser::read_u64(is, "forced created entry"));
    }
    for (std::uint64_t k = 0; k < nforced; ++k) {
      forced_flags_[ti].push_back(ser::read_u8(is, "forced flags entry"));
    }
    ts.burst_remaining = ser::read_u64(is, "burst budget");
    ts.link_busy_until = ser::read_u64(is, "terminal link busy");
    ts.inflight_phits = ser::read_i32(is, "terminal inflight phits");
  }
  if (onoff_) {
    for (auto& s : onoff_state_) s = ser::read_u8(is, "onoff chain state");
  }

  // --- workload state (v4) ----------------------------------------------
  if (ser::read_u8(is, "terminal loads flag") != 0) {
    // The stream carries terminal_gen_prob_ — the per-terminal generation
    // PROBABILITIES, already divided by packet_phits. Assign them
    // directly; routing through set_terminal_loads() would divide again.
    const auto n = static_cast<std::size_t>(topo_.num_terminals());
    terminal_gen_prob_.resize(n);
    terminal_gen_threshold_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double p = ser::read_f64(is, "terminal load");
      terminal_gen_prob_[i] = p;
      terminal_gen_threshold_[i] =
          p >= 1.0 ? ~0ULL
                   : static_cast<std::uint64_t>(p * 18446744073709551616.0);
    }
    has_terminal_loads_ = true;
  } else {
    set_terminal_loads({});
  }
  const bool had_workload = ser::read_u8(is, "workload flag") != 0;
  if (had_workload != (workload_ != nullptr)) {
    throw std::runtime_error(
        std::string("checkpoint mismatch: the run was checkpointed ") +
        (had_workload ? "with" : "without") +
        " a workload but this configuration runs " +
        (workload_ != nullptr ? "with" : "without") +
        " one (set workload= to match)");
  }
  const std::uint64_t trace_cursor = ser::read_u64(is, "trace cursor");
  if (workload_ != nullptr) {
    workload_->set_cursor(trace_cursor);
    // Re-establish the eager queue allocation set_workload() guarantees:
    // keyed mode pushes message bodies from a parallel phase and must
    // never race a lazy resize.
    if (!has_forced_dst_) {
      const auto n = static_cast<std::size_t>(topo_.num_terminals());
      forced_dst_.resize(n);
      forced_created_.resize(n);
      forced_flags_.resize(n);
      has_forced_dst_ = true;
    }
  }

  // --- timing wheels -----------------------------------------------------
  ser::expect_u64(is, shards_.size(), "shard count");
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = shards_[si];
    // An event must address a router of the shard whose wheel holds it:
    // the per-shard phases touch owner-shard state only.
    const auto expect_owned = [&](RouterId r, const char* what) {
      if (r < s.first_router || r >= s.end_router) {
        corrupt(std::string(what) + " router " + std::to_string(r) +
                " outside shard " + std::to_string(si) + " (routers [" +
                std::to_string(s.first_router) + ", " +
                std::to_string(s.end_router) + "))");
      }
    };
    s.flit_ring.reset(ring_size_);
    s.credit_ring.reset(ring_size_);
    s.delivery_ring.reset(ring_size_);
    for (std::size_t slot = 0; slot < ring_size_; ++slot) {
      const std::uint32_t nf = ser::read_u32(is, "flit event count");
      for (std::uint32_t k = 0; k < nf; ++k) {
        FlitEvent ev;
        ev.router = ser::read_i32(is, "flit event router");
        ev.port = ser::read_i32(is, "flit event port");
        ev.vc = ser::read_i32(is, "flit event vc");
        ev.flit = read_flit(is);
        expect_owned(ev.router, "flit event");
        expect_vc(ev.port, ev.vc, "flit event");
        expect_live(ev.flit.packet, "flit event");
        s.flit_ring.push(slot, ev);
      }
      const std::uint32_t nc = ser::read_u32(is, "credit event count");
      for (std::uint32_t k = 0; k < nc; ++k) {
        CreditEvent ev;
        ev.router = ser::read_i32(is, "credit event router");
        ev.port = ser::read_i32(is, "credit event port");
        ev.vc = ser::read_i32(is, "credit event vc");
        ev.phits = ser::read_i32(is, "credit event phits");
        expect_owned(ev.router, "credit event");
        expect_vc(ev.port, ev.vc, "credit event");
        s.credit_ring.push(slot, ev);
      }
      const std::uint32_t nd = ser::read_u32(is, "delivery event count");
      for (std::uint32_t k = 0; k < nd; ++k) {
        const PacketId id = ser::read_i32(is, "delivery event id");
        expect_live(id, "delivery event");
        s.delivery_ring.push(slot, id);
      }
    }
  }

  // --- routing mechanism state + end sentinel ----------------------------
  routing_.restore_state(is);
  if (ser::read_u64(is, "end sentinel") != kEndSentinel) {
    throw std::runtime_error(
        "checkpoint corrupt: end sentinel mismatch (the stream is "
        "misaligned or was written by an incompatible routing mechanism)");
  }

  // --- rebuild the derived state -----------------------------------------
  // Retry-suppression caches restart cold: waking a provably-blocked head
  // redoes a usability check that fails identically and draws nothing, so
  // this is bit-identical to carrying the caches over.
  std::fill(vc_sleep_until_.begin(), vc_sleep_until_.end(), 0);
  std::fill(port_wake_.begin(), port_wake_.end(), 0);
  std::fill(head_hop_.begin(), head_hop_.end(), kHeadUnknown);
  std::fill(ovc_waiter_head_.begin(), ovc_waiter_head_.end(), -1);
  std::fill(vc_waiter_next_.begin(), vc_waiter_next_.end(), kNotWaiting);

  // Scan state: the occupied-port bitmasks and nonempty-VC counts follow
  // from the (validated) FIFOs.
  std::fill(occupied_ports_.begin(), occupied_ports_.end(), 0);
  std::fill(nonempty_vcs_.begin(), nonempty_vcs_.end(), 0);
  for (RouterId r = 0; r < topo_.num_routers(); ++r) {
    for (PortId p = 0; p < ports_; ++p) {
      const std::uint32_t mask = in_scan_[port_index(r, p)] >> 16;
      if (mask != 0) set_occupied(r, p);
      nonempty_vcs_[static_cast<std::size_t>(r)] += std::popcount(mask);
    }
  }
}

}  // namespace dfsim
