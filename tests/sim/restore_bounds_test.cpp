// Engine::restore treats the checkpoint stream as untrusted: every index it
// will later use to address engine state — event routers, ports and VCs,
// packet ids, forced destinations, VC bindings, RR pointers, queue depths —
// must be range-checked, and a corrupt value must raise a pointed
// std::runtime_error instead of an out-of-bounds access or a cross-shard
// write. Each case below saves a real mid-run checkpoint, overwrites one
// field in place, and expects that error.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "topology/dragonfly_topology.hpp"
#include "traffic/factory.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

/// One engine with everything it references kept alive.
struct Rig {
  explicit Rig(bool sharded) : topo(2) {
    routing = make_routing("olm", topo, RoutingParams{});
    pattern = make_pattern_spec(topo, "un");
    EngineConfig ec;
    ec.sharded = sharded;
    ec.shard_jobs = 1;
    ec.seed = 5;
    InjectionProcess inj;
    inj.load = 0.4;
    engine = std::make_unique<Engine>(topo, ec, *routing, *pattern, inj);
  }
  DragonflyTopology topo;
  std::unique_ptr<RoutingAlgorithm> routing;
  std::unique_ptr<TrafficPattern> pattern;
  std::unique_ptr<Engine> engine;
};

/// Byte offsets of one instance of every range-checked field, found by
/// walking the stream in the order Engine::save_checkpoint writes it
/// (src/sim/engine_checkpoint.cpp). npos = no instance in this stream.
struct Fields {
  static constexpr std::size_t npos = std::string::npos;
  std::uint64_t slot_count = 0;
  std::int32_t free_id = -1;  ///< one free pool slot, -1 if none
  std::size_t fifo_flit_packet = npos;
  std::size_t bound_port = npos;  ///< router 0, port 0, VC 0
  std::size_t bound_vc = npos;
  std::size_t scan = npos;  ///< a port holding a nonempty VC
  std::int32_t scan_vcs = 0;
  std::size_t out_rr = npos;
  std::size_t source_depth = npos;  ///< terminal 0
  std::size_t forced_depth = npos;  ///< first terminal with forced entries
  std::size_t forced_dst = npos;
  NodeId forced_src = -1;
  std::size_t flit_router = npos;  ///< first flit event of shard 0
  std::size_t flit_port = npos;
  std::size_t flit_vc = npos;
  std::size_t flit_packet = npos;
  std::int32_t flit_port_value = -1;
  std::size_t credit_router = npos;
  std::size_t credit_port = npos;
  std::size_t credit_vc = npos;
  std::size_t delivery_id = npos;
  std::uint64_t shards = 0;
};

class Walker {
 public:
  explicit Walker(const std::string& b) : b_(b) {}
  std::size_t pos() const { return pos_; }
  void skip(std::size_t n) { pos_ += n; }
  std::uint64_t u64() { return le(8); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::int32_t i32() { return static_cast<std::int32_t>(le(4)); }
  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }

 private:
  std::uint64_t le(std::size_t n) {
    if (pos_ + n > b_.size()) {
      throw std::out_of_range("walker ran past the checkpoint");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto byte = static_cast<unsigned char>(b_[pos_ + i]);
      v |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    pos_ += n;
    return v;
  }
  const std::string& b_;
  std::size_t pos_ = 0;
};

constexpr std::size_t kFlitBytes = 3 * 4 + 2;  // 3 i32, 2 u8
constexpr std::size_t kPacketBytes = 5 * 4 + 2 * 8 + 4 * 4 + 1 + 7 * 4 + 1;

Fields walk(const std::string& bytes, const Engine& e) {
  const DragonflyTopology& topo = e.topology();
  Fields f;
  Walker w(bytes);
  w.skip(8);  // magic
  EXPECT_EQ(w.u32(), Engine::kCheckpointVersion);
  w.skip(6 * 8);
  const std::uint64_t ring_size = w.u64();
  w.skip(1);  // flow control
  const bool onoff = w.u8() != 0;
  w.skip(1);          // engine mode
  w.skip(w.u64());    // routing name
  w.skip(8 + 8 + 1);  // clock, last progress, deadlock flag
  w.skip(Rng::kStateWords * 8);
  w.skip(8 + 8 + 8 + 3 * 8 + 8);  // load, delivered x2, phits sent, drops
  f.slot_count = w.u64();
  const std::uint64_t free_count = w.u64();
  for (std::uint64_t k = 0; k < free_count; ++k) {
    const std::int32_t id = w.i32();
    if (k == 0) f.free_id = id;
  }
  w.skip((f.slot_count - free_count) * kPacketBytes);

  const int ports = topo.ports_per_router();
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    for (PortId p = 0; p < ports; ++p) {
      bool nonempty = false;
      for (VcId v = 0; v < e.vc_count(p); ++v) {
        const std::uint32_t n = w.u32();
        if (n > 0) {
          nonempty = true;
          if (f.fifo_flit_packet == Fields::npos) f.fifo_flit_packet = w.pos();
        }
        w.skip(n * kFlitBytes);
        w.skip(4);  // occupancy
        if (r == 0 && p == 0 && v == 0) {
          f.bound_port = w.pos();
          f.bound_vc = w.pos() + 4;
        }
        w.skip(4 + 4 + 8 + 4 + 4);  // binding, head_since, credits, owner
      }
      w.skip(8);  // busy-until
      if (nonempty && f.scan == Fields::npos) {
        f.scan = w.pos();
        f.scan_vcs = e.vc_count(p);
      }
      w.skip(4);
      if (f.out_rr == Fields::npos) f.out_rr = w.pos();
      w.skip(4);
    }
  }

  for (NodeId t = 0; t < topo.num_terminals(); ++t) {
    if (t == 0) f.source_depth = w.pos();
    w.skip(w.u64() * 8);
    const std::size_t depth_at = w.pos();
    const std::uint64_t nforced = w.u64();
    if (nforced > 0 && f.forced_depth == Fields::npos) {
      f.forced_depth = depth_at;
      f.forced_dst = w.pos();
      f.forced_src = t;
    }
    w.skip(nforced * (4 + 8 + 1));
    w.skip(8 + 8 + 4);  // burst budget, link busy, inflight
  }
  if (onoff) w.skip(static_cast<std::size_t>(topo.num_terminals()));
  if (w.u8() != 0) w.skip(static_cast<std::size_t>(topo.num_terminals()) * 8);
  w.skip(1 + 8);  // workload flag, trace cursor

  f.shards = w.u64();
  for (std::uint64_t s = 0; s < f.shards; ++s) {
    for (std::uint64_t slot = 0; slot < ring_size; ++slot) {
      const std::uint32_t nf = w.u32();
      for (std::uint32_t k = 0; k < nf; ++k) {
        if (s == 0 && f.flit_router == Fields::npos) {
          f.flit_router = w.pos();
          f.flit_port = w.pos() + 4;
          f.flit_vc = w.pos() + 8;
          f.flit_packet = w.pos() + 12;
          w.skip(4);
          f.flit_port_value = w.i32();
          w.skip(4 + kFlitBytes);
        } else {
          w.skip(12 + kFlitBytes);
        }
      }
      const std::uint32_t nc = w.u32();
      for (std::uint32_t k = 0; k < nc; ++k) {
        if (f.credit_router == Fields::npos) {
          f.credit_router = w.pos();
          f.credit_port = w.pos() + 4;
          f.credit_vc = w.pos() + 8;
        }
        w.skip(16);
      }
      const std::uint32_t nd = w.u32();
      for (std::uint32_t k = 0; k < nd; ++k) {
        if (f.delivery_id == Fields::npos) f.delivery_id = w.pos();
        w.skip(4);
      }
    }
  }
  return f;
}

void put_le(std::string& b, std::size_t at, std::uint64_t v, int n) {
  ASSERT_NE(at, Fields::npos);
  ASSERT_LE(at + static_cast<std::size_t>(n), b.size());
  for (int i = 0; i < n; ++i) {
    b[at + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
  }
}

/// A mid-run checkpoint with flits buffered, events on the wheels and a
/// forced queue holding two entries.
std::string checkpoint(bool sharded) {
  Rig rig(sharded);
  for (int i = 0; i < 300; ++i) rig.engine->step();
  const NodeId src = 3;
  rig.engine->inject_for_test(src, 17, rig.engine->now());
  rig.engine->inject_for_test(src, 29, rig.engine->now());
  std::stringstream ss;
  rig.engine->save_checkpoint(ss);
  return ss.str();
}

void expect_rejected(bool sharded, const std::string& bytes,
                     const std::string& needle) {
  Rig rig(sharded);
  std::istringstream is(bytes);
  try {
    rig.engine->restore(is);
    FAIL() << "restore accepted a corrupt checkpoint (wanted: " << needle
           << ")";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkpoint corrupt"), std::string::npos) << msg;
    EXPECT_NE(msg.find(needle), std::string::npos) << msg;
  }
}

class RestoreBounds : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = checkpoint(false);
    Rig rig(false);
    f_ = walk(bytes_, *rig.engine);
    ports_ = rig.topo.ports_per_router();
    routers_ = rig.topo.num_routers();
    terminals_ = rig.topo.num_terminals();
    vcs_of_flit_port_ = f_.flit_port_value >= 0
                            ? rig.engine->vc_count(f_.flit_port_value)
                            : 0;
    vcs_port0_ = rig.engine->vc_count(0);
  }

  /// `bytes_` with an n-byte little-endian field at `at` set to `v`.
  std::string with(std::size_t at, std::uint64_t v, int n) const {
    std::string b = bytes_;
    put_le(b, at, v, n);
    return b;
  }
  std::string with_i32(std::size_t at, std::int32_t v) const {
    return with(at, static_cast<std::uint32_t>(v), 4);
  }

  std::string bytes_;
  Fields f_;
  int ports_ = 0;
  int routers_ = 0;
  int terminals_ = 0;
  int vcs_of_flit_port_ = 0;
  int vcs_port0_ = 0;
};

TEST_F(RestoreBounds, WalkerFindsEveryFieldAndTheStreamRoundTrips) {
  EXPECT_EQ(f_.shards, 1u);  // exact mode: one shard
  EXPECT_NE(f_.fifo_flit_packet, Fields::npos);
  EXPECT_NE(f_.scan, Fields::npos);
  EXPECT_NE(f_.forced_dst, Fields::npos);
  EXPECT_EQ(f_.forced_src, 3);
  EXPECT_NE(f_.flit_router, Fields::npos);
  EXPECT_NE(f_.credit_router, Fields::npos);
  EXPECT_NE(f_.delivery_id, Fields::npos);
  Rig rig(false);
  std::istringstream is(bytes_);
  EXPECT_NO_THROW(rig.engine->restore(is));
}

TEST_F(RestoreBounds, WheelFlitEventFields) {
  expect_rejected(false, with_i32(f_.flit_router, routers_),
                  "flit event router");
  expect_rejected(false, with_i32(f_.flit_router, -1), "flit event router");
  expect_rejected(false, with_i32(f_.flit_port, ports_), "flit event port");
  expect_rejected(false, with_i32(f_.flit_port, -3), "flit event port");
  expect_rejected(false, with_i32(f_.flit_vc, vcs_of_flit_port_),
                  "flit event VC");
  expect_rejected(false,
                  with_i32(f_.flit_packet,
                           static_cast<std::int32_t>(f_.slot_count)),
                  "flit event names packet");
}

TEST_F(RestoreBounds, WheelCreditEventFields) {
  expect_rejected(false, with_i32(f_.credit_router, routers_ + 7),
                  "credit event router");
  expect_rejected(false, with_i32(f_.credit_port, ports_), "credit event port");
  expect_rejected(false, with_i32(f_.credit_vc, 16), "credit event VC");
}

TEST_F(RestoreBounds, DeliveryAndFifoPacketIdsNameLiveSlots) {
  const auto past_end = static_cast<std::int32_t>(f_.slot_count);
  expect_rejected(false, with_i32(f_.delivery_id, past_end),
                  "delivery event names packet");
  expect_rejected(false, with_i32(f_.delivery_id, -2),
                  "delivery event names packet");
  expect_rejected(false, with_i32(f_.fifo_flit_packet, past_end),
                  "input-VC flit names packet");
  if (f_.free_id >= 0) {  // a released slot is in range but not live
    expect_rejected(false, with_i32(f_.delivery_id, f_.free_id),
                    "delivery event names packet");
    expect_rejected(false, with_i32(f_.fifo_flit_packet, f_.free_id),
                    "input-VC flit names packet");
  }
}

TEST_F(RestoreBounds, ForcedDestinations) {
  expect_rejected(false, with_i32(f_.forced_dst, terminals_),
                  "forced destination");
  expect_rejected(false, with_i32(f_.forced_dst, -1), "forced destination");
  expect_rejected(false, with_i32(f_.forced_dst, f_.forced_src),
                  "forced destination");
}

TEST_F(RestoreBounds, VcBinding) {
  expect_rejected(false, with_i32(f_.bound_port, ports_),
                  "input-VC binding port");
  std::string b = with_i32(f_.bound_port, 0);
  put_le(b, f_.bound_vc, static_cast<std::uint32_t>(vcs_port0_), 4);
  expect_rejected(false, b, "input-VC binding VC");
}

TEST_F(RestoreBounds, InputScanWord) {
  Walker w(bytes_);
  w.skip(f_.scan);
  const std::uint32_t scan = w.u32();
  const std::uint32_t bad_rr =
      (scan & 0xffff0000u) | static_cast<std::uint32_t>(f_.scan_vcs);
  expect_rejected(false, with(f_.scan, bad_rr, 4), "input-port RR pointer");
  expect_rejected(false, with(f_.scan, scan & 0xffffu, 4), "nonempty-VC mask");
}

TEST_F(RestoreBounds, OutputRrPointer) {
  expect_rejected(false, with(f_.out_rr, static_cast<std::uint32_t>(ports_), 4),
                  "output-port RR pointer");
}

TEST_F(RestoreBounds, QueueDepthsAtMostTheSourceCap) {
  const std::uint64_t over = EngineConfig{}.source_queue_cap + 1;
  expect_rejected(false, with(f_.source_depth, over, 8), "source queue depth");
  expect_rejected(false, with(f_.forced_depth, over, 8), "forced queue depth");
}

TEST(RestoreBoundsKeyed, WheelEventMustBelongToItsShard) {
  // Keyed mode: shard 0's wheel holding an event for another group's
  // router would let shard 0's worker write shard 1's state.
  const std::string bytes = checkpoint(true);
  Rig rig(true);
  const Fields f = walk(bytes, *rig.engine);
  ASSERT_EQ(f.shards, static_cast<std::uint64_t>(rig.topo.num_groups()));
  ASSERT_NE(f.flit_router, Fields::npos);
  std::string b = bytes;
  put_le(b, f.flit_router,
         static_cast<std::uint32_t>(rig.topo.routers_per_group()), 4);
  expect_rejected(true, b, "outside shard 0");
}

}  // namespace
}  // namespace dfsim
