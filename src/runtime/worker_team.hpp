// WorkerTeam: the one threading primitive under the runtime. Point grids
// (parallel_for), manifest claim workers and the sharded engine's
// per-cycle phases all run on it, and all draw on one thread budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dfsim::runtime {

/// Persistent worker team parked on an epoch/pending phase barrier. The
/// sharded engine runs two parallel regions per simulated cycle on one
/// team, so the hot path has no queue and no mutex: run() bumps an epoch
/// counter (the "go" edge), every worker executes the callback once with
/// its worker index, and the last arrival releases the caller.
///
/// Waiters spin briefly before parking on a futex (C++20
/// std::atomic::wait), but only while the process's live team threads fit
/// on the cores; oversubscribed, a spinning waiter would steal the
/// quantum of the worker it waits for, so it parks at once.
///
/// Thread budget: every worker of a team of W, the caller included, gets
/// a 1/W share of the budget the team was created under, and
/// resolve_jobs(jobs <= 0) on a worker resolves to that share. A sharded
/// point run inside a parallel grid therefore gets the budget left over
/// by the grid instead of a whole one of its own.
///
/// Memory ordering: everything the caller wrote before run() is visible
/// to the workers (release bump / acquire poll of the epoch), and
/// everything the workers wrote is visible to the caller when run()
/// returns (release decrement / acquire poll of the pending count).
class WorkerTeam {
 public:
  /// A team of `workers` (minimum 1): spawns `workers - 1` threads, the
  /// caller of run() being worker 0. Size it with resolve_jobs.
  explicit WorkerTeam(int workers);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// Executes fn(w) for every w in [0, size()) and returns when all are
  /// done. The first exception any fn(w) throws is rethrown here, after
  /// the barrier. Not reentrant: one region at a time.
  void run(const std::function<void(int)>& fn);

  int size() const { return workers_; }

  /// This thread's share of the budget while it works for a team, 0 on
  /// a thread that is not a team worker.
  static int budget_share();

  /// Threads that may be running team work right now: every spawned
  /// worker, plus the one thread that started the outermost team.
  static int live_threads();

 private:
  void worker_loop(int index);
  void invoke(int index);

  const std::function<void(int)>* fn_ = nullptr;
  /// The barrier's sense: workers wait for the epoch to move past the
  /// value they last served. 64-bit, so it never wraps in practice.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< first throw of the current run()
  int workers_;
  int share_;  ///< budget share of each worker
  /// Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace dfsim::runtime
