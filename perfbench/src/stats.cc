#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n sorted samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

TailChoice ChooseTail(size_t n, size_t min_beyond) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0};
  TailChoice choice;
  choice.beyond = n == 0 ? 0 : n - NearestRank(n, 50.0);
  if (n == 0) return choice;
  for (double p : kLadder) {
    const size_t beyond = n - NearestRank(n, p);
    if (beyond >= min_beyond) {
      choice.percentile = p;
      choice.beyond = beyond;
      return choice;
    }
  }
  return choice;
}

bool GuaranteeRateOk(size_t trials, size_t misses, double confidence) {
  const double n = static_cast<double>(trials);
  const double miss_p = 1.0 - confidence;
  const double allowed =
      n * miss_p + 3.0 * std::sqrt(n * miss_p * (1.0 - miss_p));
  return static_cast<double>(misses) <= std::max(1.0, allowed);
}

}  // namespace perfbench
