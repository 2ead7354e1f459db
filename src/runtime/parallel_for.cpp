#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/env.hpp"
#include "runtime/worker_team.hpp"

namespace dfsim::runtime {

namespace {
std::atomic<int> g_default_jobs{0};  // 0 = auto

int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}
}  // namespace

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs > 0 ? jobs : 0, std::memory_order_relaxed);
}

int default_jobs() {
  const int set = g_default_jobs.load(std::memory_order_relaxed);
  if (set > 0) return set;
  const int env = env_jobs();
  if (env > 0) return env;
  return hardware_jobs();
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const int share = WorkerTeam::budget_share();
  return share > 0 ? share : default_jobs();
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const int workers = std::min<int>(resolve_jobs(jobs),
                                    static_cast<int>(std::min<std::size_t>(
                                        n, 1u << 16)));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Workers claim contiguous chunks off one cursor. Over-shard 4x so slow
  // points (high load, adversarial patterns) don't leave the other
  // workers idle at the tail of the grid.
  const std::size_t chunks = std::min(n, static_cast<std::size_t>(workers) * 4);
  std::atomic<std::size_t> cursor{0};
  WorkerTeam team(workers);
  team.run([&](int) {
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
        body(i);
      }
    }
  });
}

}  // namespace dfsim::runtime
