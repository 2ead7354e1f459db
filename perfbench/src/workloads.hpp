// The benchmark's workloads: generated experiment grids, one per name.
// Every config is built here from the workload name and the seed; the
// program under test receives nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/sweep.hpp"

namespace perfbench {

struct BenchWorkload {
  std::string name;
  std::vector<dfsim::ExperimentPoint> points;
  /// true: the single point is driven directly through
  /// SimulationRun::advance; false: the grid runs through run_experiments.
  bool direct = false;
  int point_workers = 1;  ///< run_experiments jobs
  int shard_workers = 1;  ///< sharded-engine workers (direct points)
  dfsim::Cycle checkpoint_every = 0;  ///< periodic checkpoints; 0 = off
  /// The paper's ordering at saturated ADVG+h: every point in `winners`
  /// must accept more load than every point in `losers`.
  std::vector<std::size_t> winners;
  std::vector<std::size_t> losers;
};

/// The workload names, in documentation order.
const std::vector<std::string>& workload_names();

/// Build a workload. Throws std::invalid_argument on an unknown name.
BenchWorkload make_bench_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
