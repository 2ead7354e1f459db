// The benchmark's tracing layer. Everything here sits OUTSIDE the
// simulator: forwarding decorators around the routing algorithm and the
// traffic pattern count and time the calls the engine makes into them,
// and a traced point runner builds each engine from the same public
// factories SimulationRun uses (SimConfig::make_topology, make_routing,
// make_pattern / make_workload, Engine) and drives it one Engine::step at
// a time, recording spans.
//
// The decorators forward every virtual (decide, decide_fresh,
// pure_minimal_hop, per_cycle, on_hop, save_state / restore_state and the
// resource queries), so fast paths and RNG draws are unchanged and a
// traced run's simulated results equal an untraced run's bit for bit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/config.hpp"
#include "api/simulator.hpp"
#include "routing/routing.hpp"
#include "traffic/pattern.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counters of one decorator with one slot per calling thread, so the
/// sharded stepper's workers never contend on a shared counter. A thread
/// finds its slot through a one-entry thread-local cache keyed by the
/// owner's unique id; sum() is read between Engine::step calls, after the
/// step's barrier has ordered every worker's writes before the read.
///
/// The cache has one entry per counter type and thread, so a thread that
/// alternates between two live instances of the same type would take the
/// locked slow path on every call. A traced point therefore keeps exactly
/// one instance per type; lookups() counts the slow paths so the
/// self-test can hold it to that.
template <class C>
class PerThread {
 public:
  PerThread() = default;
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  C& local() {
    struct Cache {
      std::uint64_t owner = 0;
      C* slot = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner != id_) {
      cache.slot = &slot_for(std::this_thread::get_id());
      cache.owner = id_;
    }
    return *cache.slot;
  }

  C sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    C total;
    for (const auto& [tid, slot] : slots_) total += *slot;
    return total;
  }

  /// Slow-path slot lookups so far (cache misses).
  std::uint64_t lookups() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lookups_;
  }

 private:
  static std::uint64_t next_id();

  C& slot_for(std::thread::id tid) {
    std::lock_guard<std::mutex> lock(mu_);
    ++lookups_;
    std::unique_ptr<C>& slot = slots_[tid];
    if (!slot) slot = std::make_unique<C>();
    return *slot;
  }

  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<C>> slots_;  // guarded by mu_
  std::uint64_t lookups_ = 0;                             // guarded by mu_
};

template <class C>
std::uint64_t PerThread<C>::next_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct alignas(64) RouteCounters {
  std::uint64_t decide_calls = 0;  ///< decide + decide_fresh
  std::uint64_t decide_ns = 0;
  std::uint64_t first_visits = 0;  ///< decide_fresh calls
  std::uint64_t pure = 0;          ///< first visits with a pure verdict
  std::uint64_t waits = 0;         ///< impure decisions that returned "wait"
  RouteCounters& operator+=(const RouteCounters& o);
};

struct alignas(64) CallCounters {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  CallCounters& operator+=(const CallCounters& o);
};

/// Counting, timing forwarder around a routing mechanism.
class TracingRouting final : public dfsim::RoutingAlgorithm {
 public:
  explicit TracingRouting(std::unique_ptr<dfsim::RoutingAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::optional<dfsim::RouteChoice> decide(
      dfsim::RoutingContext& ctx) override;
  std::optional<dfsim::Hop> pure_minimal_hop(
      const dfsim::RoutingContext& ctx) override {
    return inner_->pure_minimal_hop(ctx);
  }
  std::optional<dfsim::RouteChoice> decide_fresh(
      dfsim::RoutingContext& ctx, std::optional<dfsim::Hop>* pure_hop) override;
  void per_cycle(dfsim::Engine& engine) override { inner_->per_cycle(engine); }
  void on_hop(const dfsim::Engine& engine, dfsim::Packet& packet,
              const dfsim::RouteChoice& choice,
              dfsim::RouterId router) override {
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

  RouteCounters totals() const { return counters_.sum(); }
  std::uint64_t slot_lookups() const { return counters_.lookups(); }

 private:
  std::unique_ptr<dfsim::RoutingAlgorithm> inner_;
  PerThread<RouteCounters> counters_;
};

/// Counting, timing forwarder around a traffic pattern.
class TracingPattern final : public dfsim::TrafficPattern {
 public:
  explicit TracingPattern(std::unique_ptr<dfsim::TrafficPattern> inner)
      : inner_(std::move(inner)) {}

  dfsim::NodeId dest(dfsim::NodeId src, dfsim::Rng& rng) override;
  std::string name() const override { return inner_->name(); }

  CallCounters totals() const { return counters_.sum(); }
  std::uint64_t slot_lookups() const { return counters_.lookups(); }

 private:
  std::unique_ptr<dfsim::TrafficPattern> inner_;
  PerThread<CallCounters> counters_;
};

// --- spans -----------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kPoint,
  kValidate,
  kTopology,
  kRouting,
  kTraffic,
  kEngine,
  kStep,
};
const char* span_name(SpanKind kind);

/// One timed interval. Step spans carry their children's aggregated
/// counts and ns (decide, dest, hooks); no span is recorded per decide.
/// `parent` is the index of the enclosing point span within the same
/// point's span list (-1 for a point span).
struct Span {
  SpanKind kind = SpanKind::kPoint;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t decide_calls = 0;
  std::uint32_t dest_calls = 0;
  std::uint32_t hook_calls = 0;
  std::uint64_t decide_ns = 0;
  std::uint64_t dest_ns = 0;
  std::uint64_t hook_ns = 0;
};

/// Everything one traced point produced.
struct PointTrace {
  std::string routing;  ///< mechanism name, as the registry spells it
  std::vector<Span> spans;
  RouteCounters route;
  CallCounters dest;
  CallCounters hooks;
  dfsim::Engine::PhaseProfile phases;  ///< sharded stepper only
  std::size_t footprint_bytes = 0;
  int terminals = 0;
  std::uint64_t cycles = 0;
  int threads_peak = 0;  ///< sampled /proc/self/status Threads
  /// Counter-slot cache misses of the two decorators (see PerThread).
  std::uint64_t slot_lookups = 0;
};

struct TracedPoint {
  dfsim::SteadyResult result;
  PointTrace trace;
};

/// Build one steady point from the public factories, decorated, and step
/// it through warmup + measure, recording spans. `shard_profile` turns on
/// the sharded stepper's PhaseProfile (results are unaffected).
TracedPoint run_traced_point(const dfsim::SimConfig& cfg, bool shard_profile);

/// The same construction and stepping loop as run_traced_point, with no
/// decorators, spans, timed hooks or phase profile: the baseline that
/// trace.overhead_s is measured against.
dfsim::SteadyResult run_plain_point(const dfsim::SimConfig& cfg);

/// Bitwise equality of two steady results, per-job windows included.
bool same_result(const dfsim::SteadyResult& a, const dfsim::SteadyResult& b);

/// Live thread count of this process (/proc/self/status), 0 if unknown.
int current_threads();

}  // namespace perfbench
