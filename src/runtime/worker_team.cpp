#include "runtime/worker_team.hpp"

#include <algorithm>
#include <utility>

#include "runtime/parallel_for.hpp"

namespace dfsim::runtime {

namespace {

/// Spawned team threads alive in the process, over every team.
std::atomic<int> g_spawned{0};
/// Budget share of the team this thread currently works for; 0 = none.
thread_local int t_share = 0;

/// Spinning only pays when every live team thread owns a core. Read once
/// per wait, so a team created or destroyed meanwhile takes effect at the
/// next barrier.
int spin_budget() {
  const unsigned cores = std::thread::hardware_concurrency();
  const auto live = static_cast<unsigned>(WorkerTeam::live_threads());
  return cores != 0 && live <= cores ? 4096 : 0;
}

/// Polls `a` until done(value) holds, then returns that value: spins up to
/// spin_budget() times, then parks on the futex. atomic::wait re-checks
/// the value under the futex, so a notify that lands between the load and
/// the wait is never lost.
template <typename T, typename Done>
T await(const std::atomic<T>& a, Done done) {
  const int budget = spin_budget();
  for (int spins = 0;; ++spins) {
    const T v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
    if (spins >= budget) a.wait(v, std::memory_order_acquire);
  }
}

}  // namespace

WorkerTeam::WorkerTeam(int workers)
    : workers_(std::max(1, workers)),
      share_(std::max(1, resolve_jobs(0) / workers_)) {
  g_spawned.fetch_add(workers_ - 1, std::memory_order_relaxed);
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerTeam::~WorkerTeam() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
  g_spawned.fetch_sub(workers_ - 1, std::memory_order_relaxed);
}

int WorkerTeam::budget_share() { return t_share; }

int WorkerTeam::live_threads() {
  return g_spawned.load(std::memory_order_relaxed) + 1;
}

void WorkerTeam::run(const std::function<void(int)>& fn) {
  fn_ = &fn;
  const int outer_share = std::exchange(t_share, share_);
  if (workers_ > 1) {
    pending_.store(workers_ - 1, std::memory_order_relaxed);
    // The release bump publishes the caller's pre-run() writes (and the
    // pending count) to every worker whose acquire poll observes it.
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }
  invoke(0);
  if (workers_ > 1) await(pending_, [](int p) { return p == 0; });
  t_share = outer_share;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void WorkerTeam::invoke(int index) {
  try {
    (*fn_)(index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_) error_ = std::current_exception();
  }
}

void WorkerTeam::worker_loop(int index) {
  t_share = share_;
  std::uint64_t served = 0;
  for (;;) {
    served = await(epoch_, [served](std::uint64_t e) { return e != served; });
    if (stop_.load(std::memory_order_acquire)) return;
    invoke(index);
    // Release so the caller's acquire poll of pending_ sees this
    // worker's writes; the last arrival wakes a parked caller.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_all();
    }
  }
}

}  // namespace dfsim::runtime
