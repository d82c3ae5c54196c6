#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// Summary statistics the benchmark reports: medians, the tail percentile
/// with at least ten samples beyond it, and the binomial allowance for
/// statistical guarantees that may legitimately miss.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).
double Median(std::vector<double> values);

/// The tail percentile reported for `n` samples: the highest rung of
/// {50, 75, 90, 95, 99, 99.9, 99.99} whose nearest rank leaves at least
/// `min_beyond` samples above it. With too few samples for any rung it is
/// 50 and `beyond` says how many samples the median leaves above it.
struct TailChoice {
  double percentile = 50.0;
  size_t beyond = 0;  ///< samples ranked above the reported one
};
TailChoice ChooseTail(size_t n, size_t min_beyond = 10);

/// True when `misses` out of `trials` is consistent with a guarantee that
/// holds with probability `confidence`: at most the expected miss count
/// plus three binomial standard deviations, and never less than one miss.
bool GuaranteeRateOk(size_t trials, size_t misses, double confidence);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
