// Order statistics and metric-name rules shared by the measuring program
// and its self-test.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the samples are <= it (rank ceil(pct/100 * n), 1-based,
/// clamped to [1, n]). Returns 0 for an empty sample. `pct` in (0, 100].
double percentile(std::vector<double> samples, double pct);

/// Samples strictly above the nearest-rank `pct` percentile position:
/// n - rank. The benchmark reports a percentile only when this is >= 10.
std::size_t samples_beyond(std::size_t n, double pct);

/// Metric names: 1 to 64 characters from letters, digits, '_', '.' and
/// '-', starting with a letter or a digit.
bool valid_metric_name(const std::string& name);

}  // namespace perfbench
