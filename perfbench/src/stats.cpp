#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double pct) {
  // The epsilon keeps decimal percentiles (99.9) from rounding one rank up.
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

}  // namespace

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  return n - nearest_rank(n, pct);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
