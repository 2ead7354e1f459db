// WorkerTeam, the one threading primitive under the runtime: the barrier
// contract, exception propagation, the nested thread budget and the park
// path. These suites (with parallel_sweep_test) are what the tsan CI job
// runs alongside the sharded stepper and the manifest claim team.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/worker_team.hpp"

namespace dfsim::runtime {
namespace {

/// Pins the process default for one test and restores auto afterwards.
struct JobsGuard {
  explicit JobsGuard(int jobs) { set_default_jobs(jobs); }
  ~JobsGuard() { set_default_jobs(0); }
};

TEST(WorkerTeamTest, EveryWorkerIndexRunsOncePerRound) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> hits(kWorkers);
  WorkerTeam team(kWorkers);
  ASSERT_EQ(team.size(), kWorkers);
  for (int r = 0; r < kRounds; ++r) {
    team.run([&hits](int w) { hits[static_cast<std::size_t>(w)]++; });
    // run() returning IS the barrier: every index must have fired in the
    // round just closed, none twice.
    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_EQ(hits[static_cast<std::size_t>(w)].load(), r + 1)
          << "worker " << w << " round " << r;
    }
  }
}

TEST(WorkerTeamTest, RunSeparatesPhases) {
  // One team serving different regions in sequence: every worker of
  // phase 2 must observe everything phase 1 wrote.
  WorkerTeam team(3);
  std::atomic<int> phase1{0};
  team.run([&phase1](int) { phase1++; });
  ASSERT_EQ(phase1.load(), 3);
  std::atomic<bool> phase2_saw_phase1{true};
  team.run([&](int) {
    if (phase1.load() != 3) phase2_saw_phase1 = false;
  });
  EXPECT_TRUE(phase2_saw_phase1.load());
}

TEST(WorkerTeamTest, HandoffPublishesPlainWritesBothWays) {
  // The documented contract: the caller's pre-run() writes are visible
  // to every worker, and every worker's writes are visible to the caller
  // when run() returns — with PLAIN (non-atomic) variables, exactly how
  // the sharded engine hands its state arrays across phases. A missed
  // release/acquire edge trips tsan and these checks both.
  constexpr int kWorkers = 3;
  std::vector<std::uint64_t> cells(kWorkers, 0);  // plain, not atomic
  std::uint64_t round = 0;                        // plain, caller-owned
  std::atomic<bool> ok{true};
  WorkerTeam team(kWorkers);
  for (round = 0; round < 500; ++round) {
    // Reads the caller's `round` store; writes only this worker's cell.
    team.run([&](int w) { cells[static_cast<std::size_t>(w)] = round + 1; });
    for (int w = 0; w < kWorkers; ++w) {
      if (cells[static_cast<std::size_t>(w)] != round + 1) ok = false;
    }
  }
  EXPECT_TRUE(ok.load());
}

TEST(WorkerTeamTest, SingleWorkerRunsInlineAndClampsToOne) {
  for (const int requested : {1, 0, -3}) {
    WorkerTeam team(requested);
    EXPECT_EQ(team.size(), 1);
    int ran = 0;
    const auto caller = std::this_thread::get_id();
    team.run([&](int w) {
      EXPECT_EQ(w, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++ran;
    });
    team.run([&](int) { ++ran; });
    EXPECT_EQ(ran, 2);
  }
}

TEST(WorkerTeamTest, RethrowsFirstExceptionAfterTheBarrier) {
  constexpr int kWorkers = 4;
  WorkerTeam team(kWorkers);
  std::atomic<int> ran{0};
  const auto worker_throws = [&ran](int w) {
    ran++;
    if (w == 2) throw std::runtime_error("boom");
  };
  EXPECT_THROW(team.run(worker_throws), std::runtime_error);
  // Every worker finished before run() rethrew, and the team is reusable.
  EXPECT_EQ(ran.load(), kWorkers);
  team.run([&ran](int) { ran++; });
  EXPECT_EQ(ran.load(), 2 * kWorkers);
  // The caller's own throw also waits for the others.
  const auto caller_throws = [&ran](int w) {
    if (w == 0) throw std::logic_error("caller");
    ran++;
  };
  EXPECT_THROW(team.run(caller_throws), std::logic_error);
  EXPECT_EQ(ran.load(), 3 * kWorkers - 1);
}

TEST(WorkerTeamTest, NestedTeamsSplitOneBudget) {
  const JobsGuard jobs(4);
  EXPECT_EQ(WorkerTeam::budget_share(), 0);
  EXPECT_EQ(resolve_jobs(0), 4);
  for (const int outer : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE(outer);
    WorkerTeam team(outer);
    std::vector<int> inner(static_cast<std::size_t>(outer), -1);
    std::vector<int> pinned(static_cast<std::size_t>(outer), -1);
    team.run([&](int w) {
      inner[static_cast<std::size_t>(w)] = resolve_jobs(0);
      pinned[static_cast<std::size_t>(w)] = resolve_jobs(2);
    });
    for (int w = 0; w < outer; ++w) {
      // Points first: each worker keeps max(1, budget / team size) ...
      EXPECT_EQ(inner[static_cast<std::size_t>(w)], std::max(1, 4 / outer));
      // ... and an explicit request still wins.
      EXPECT_EQ(pinned[static_cast<std::size_t>(w)], 2);
    }
  }
  // Outside every team the caller has the whole budget back.
  EXPECT_EQ(WorkerTeam::budget_share(), 0);
  EXPECT_EQ(resolve_jobs(0), 4);
}

TEST(WorkerTeamTest, OversubscribedTeamParksAndStillCompletes) {
  // More live team threads than cores: every waiter takes the futex park
  // path at once — the slow edge where lost-wakeup bugs live. Hammer it.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int workers = static_cast<int>(cores) + 2;
  std::atomic<int> ran{0};
  WorkerTeam team(workers);
  EXPECT_GT(WorkerTeam::live_threads(), static_cast<int>(cores));
  for (int r = 0; r < 300; ++r) team.run([&ran](int) { ran++; });
  EXPECT_EQ(ran.load(), workers * 300);
}

TEST(WorkerTeamTest, LiveThreadsCountsSpawnedWorkers) {
  const int before = WorkerTeam::live_threads();
  {
    WorkerTeam team(3);
    EXPECT_EQ(WorkerTeam::live_threads(), before + 2);
  }
  EXPECT_EQ(WorkerTeam::live_threads(), before);
}

}  // namespace
}  // namespace dfsim::runtime
