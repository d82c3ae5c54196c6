#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace tasti {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningCovariance::Add(double x, double y) {
  ++n_;
  const double dx = x - mean_x_;
  mean_x_ += dx / static_cast<double>(n_);
  m2x_ += dx * (x - mean_x_);
  const double dy = y - mean_y_;
  mean_y_ += dy / static_cast<double>(n_);
  m2y_ += dy * (y - mean_y_);
  // Note: uses updated mean_y_ and pre-update dx convention of the
  // single-pass co-moment recurrence.
  cxy_ += dx * (y - mean_y_);
}

double RunningCovariance::variance_x() const {
  return n_ < 2 ? 0.0 : m2x_ / static_cast<double>(n_ - 1);
}
double RunningCovariance::variance_y() const {
  return n_ < 2 ? 0.0 : m2y_ / static_cast<double>(n_ - 1);
}
double RunningCovariance::covariance() const {
  return n_ < 2 ? 0.0 : cxy_ / static_cast<double>(n_ - 1);
}

double RunningCovariance::correlation() const {
  const double vx = variance_x();
  const double vy = variance_y();
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return covariance() / std::sqrt(vx * vy);
}

double EmpiricalBernsteinHalfWidth(double sample_variance, double range, size_t n,
                                   double delta) {
  TASTI_CHECK(n > 0, "EmpiricalBernsteinHalfWidth requires n > 0");
  TASTI_CHECK(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  const double nd = static_cast<double>(n);
  const double log_term = std::log(3.0 / delta);
  const double var = std::max(sample_variance, 0.0);
  return std::sqrt(2.0 * var * log_term / nd) + 3.0 * range * log_term / nd;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double m2 = 0.0;
  for (double x : v) m2 += (x - m) * (x - m);
  return m2 / static_cast<double>(v.size() - 1);
}

double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  RunningCovariance cov;
  for (size_t i = 0; i < x.size(); ++i) cov.Add(x[i], y[i]);
  return cov.correlation();
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  TASTI_CHECK(p >= 0.0 && p <= 1.0, "Quantile p must be in [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace tasti
