#include "nn/random_projection.h"

#include <cmath>

#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::nn {

RandomProjection::RandomProjection(size_t in_dim, size_t out_dim, uint64_t seed)
    : in_dim_(in_dim), out_dim_(out_dim), weight_(in_dim, out_dim), bias_(1, out_dim) {
  TASTI_CHECK(in_dim > 0 && out_dim > 0, "RandomProjection dims must be positive");
  Rng rng(seed);
  const float scale = 1.0f / std::sqrt(static_cast<float>(in_dim));
  for (size_t i = 0; i < weight_.size(); ++i) {
    weight_.data()[i] = static_cast<float>(rng.Normal()) * scale;
  }
  for (size_t i = 0; i < bias_.size(); ++i) {
    bias_.data()[i] = static_cast<float>(rng.Normal()) * 0.1f;
  }
}

Matrix RandomProjection::Apply(const Matrix& input) const {
  TASTI_CHECK(input.cols() == in_dim_, "RandomProjection input width mismatch");
  Matrix out;
  Gemm(input, weight_, &out);
  // The bias and tanh are elementwise, so splitting rows across the pool
  // leaves every output bit-identical to the serial loop.
  const float* b = bias_.Row(0);
  ParallelFor(0, out.rows(), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* row = out.Row(r);
      for (size_t c = 0; c < out_dim_; ++c) row[c] = std::tanh(row[c] + b[c]);
    }
  });
  return out;
}

}  // namespace tasti::nn
