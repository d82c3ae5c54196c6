#ifndef TASTI_UTIL_STATS_H_
#define TASTI_UTIL_STATS_H_

/// \file stats.h
/// Streaming statistics and concentration bounds.
///
/// These primitives back the query processing algorithms: the
/// empirical-Bernstein stopping rule used by BlazeIt-style aggregation and
/// the confidence intervals used by SUPG-style selection.

#include <cstddef>
#include <vector>

namespace tasti {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations added so far.
  size_t count() const { return n_; }

  /// Sample mean; 0 when empty.
  double mean() const { return n_ > 0 ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;

  /// Square root of variance().
  double stddev() const;

  double min() const { return min_; }
  double max() const { return max_; }

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStats& other);

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming covariance/correlation between two aligned series.
class RunningCovariance {
 public:
  /// Adds one paired observation.
  void Add(double x, double y);

  size_t count() const { return n_; }
  double mean_x() const { return mean_x_; }
  double mean_y() const { return mean_y_; }
  double variance_x() const;
  double variance_y() const;
  double covariance() const;

  /// Pearson correlation; 0 if either series is constant.
  double correlation() const;

 private:
  size_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2x_ = 0.0;
  double m2y_ = 0.0;
  double cxy_ = 0.0;
};

/// Half-width of an empirical-Bernstein confidence interval at level
/// 1 - delta for n samples with the given empirical variance and value
/// range `range` (max - min of the support). Mnih, Szepesvari, Audibert
/// (2008), the bound used by BlazeIt's EBS stopping rule.
double EmpiricalBernsteinHalfWidth(double sample_variance, double range, size_t n,
                                   double delta);

/// Exact mean of a vector; 0 when empty.
double Mean(const std::vector<double>& v);

/// Unbiased sample variance of a vector; 0 with fewer than two elements.
double Variance(const std::vector<double>& v);

/// Pearson correlation of two aligned vectors; 0 on degenerate input.
double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y);

/// p-th quantile (linear interpolation) of a vector; p in [0, 1].
double Quantile(std::vector<double> v, double p);

}  // namespace tasti

#endif  // TASTI_UTIL_STATS_H_
