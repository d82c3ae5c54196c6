#include "nn/layers.h"

#include <cmath>
#include <utility>

#include "util/status.h"

namespace tasti::nn {

Linear::Linear(size_t in_dim, size_t out_dim, Rng* rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(in_dim, out_dim),
      bias_(1, out_dim) {
  TASTI_CHECK(in_dim > 0 && out_dim > 0, "Linear dims must be positive");
  TASTI_CHECK(rng != nullptr, "Linear requires an RNG");
  // He-uniform initialization, appropriate for ReLU networks.
  const float limit = std::sqrt(6.0f / static_cast<float>(in_dim));
  for (size_t i = 0; i < weight_.value.size(); ++i) {
    weight_.value.data()[i] = static_cast<float>(rng->Uniform(-limit, limit));
  }
  bias_.value.Fill(0.0f);
}

Matrix Linear::Forward(const Matrix& input) {
  TASTI_CHECK(input.cols() == in_dim_, "Linear input width mismatch");
  cached_input_ = input;
  Matrix out;
  Gemm(input, weight_.value, &out);
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    const float* b = bias_.value.Row(0);
    for (size_t c = 0; c < out_dim_; ++c) row[c] += b[c];
  }
  return out;
}

void Linear::AccumulateParamGrads(const Matrix& grad_output) {
  TASTI_CHECK(grad_output.rows() == cached_input_.rows(),
              "Linear backward batch mismatch");
  // dW += X^T G
  GemmATAccum(cached_input_, grad_output, &weight_.grad);
  // db += column sums of G
  for (size_t r = 0; r < grad_output.rows(); ++r) {
    const float* g = grad_output.Row(r);
    float* b = bias_.grad.Row(0);
    for (size_t c = 0; c < out_dim_; ++c) b[c] += g[c];
  }
}

void Linear::KeepCachedRows(const std::vector<size_t>& rows) {
  cached_input_ = cached_input_.GatherRows(rows);
}

Matrix Linear::Backward(const Matrix& grad_output) {
  AccumulateParamGrads(grad_output);
  // dX = G W^T
  Matrix grad_input;
  GemmBT(grad_output, weight_.value, &grad_input);
  return grad_input;
}

Matrix ReLU::Forward(const Matrix& input) {
  Matrix out = input;
  // Select, not a conditional store: the branch mispredicts on half of
  // all activations and blocks vectorization. Same values, -0 and NaN
  // included.
  float* y = out.data();
  for (size_t i = 0; i < out.size(); ++i) y[i] = y[i] < 0.0f ? 0.0f : y[i];
  cached_output_ = out;
  return out;
}

void ReLU::KeepCachedRows(const std::vector<size_t>& rows) {
  cached_output_ = cached_output_.GatherRows(rows);
}

Matrix ReLU::Backward(const Matrix& grad_output) {
  TASTI_CHECK(grad_output.rows() == cached_output_.rows() &&
                  grad_output.cols() == cached_output_.cols(),
              "ReLU backward shape mismatch");
  Matrix grad_input = grad_output;
  const float* y = cached_output_.data();
  float* g = grad_input.data();
  for (size_t i = 0; i < grad_input.size(); ++i) g[i] = y[i] <= 0.0f ? 0.0f : g[i];
  return grad_input;
}

Matrix Tanh::Forward(const Matrix& input) {
  Matrix out = input;
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
  cached_output_ = out;
  return out;
}

void Tanh::KeepCachedRows(const std::vector<size_t>& rows) {
  cached_output_ = cached_output_.GatherRows(rows);
}

Matrix Tanh::Backward(const Matrix& grad_output) {
  TASTI_CHECK(grad_output.rows() == cached_output_.rows() &&
                  grad_output.cols() == cached_output_.cols(),
              "Tanh backward shape mismatch");
  Matrix grad_input = grad_output;
  for (size_t i = 0; i < grad_input.size(); ++i) {
    const float y = cached_output_.data()[i];
    grad_input.data()[i] *= (1.0f - y * y);
  }
  return grad_input;
}

Matrix L2Normalize::Forward(const Matrix& input) {
  Matrix out = input;
  cached_norms_.assign(input.rows(), 0.0f);
  for (size_t r = 0; r < input.rows(); ++r) {
    const float* x = input.Row(r);
    float norm2 = 0.0f;
    for (size_t c = 0; c < input.cols(); ++c) norm2 += x[c] * x[c];
    const float norm = std::max(std::sqrt(norm2), eps_);
    cached_norms_[r] = norm;
    float* y = out.Row(r);
    for (size_t c = 0; c < input.cols(); ++c) y[c] = x[c] / norm;
  }
  cached_output_ = out;
  return out;
}

void L2Normalize::KeepCachedRows(const std::vector<size_t>& rows) {
  cached_output_ = cached_output_.GatherRows(rows);
  std::vector<float> norms(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) norms[i] = cached_norms_[rows[i]];
  cached_norms_ = std::move(norms);
}

Matrix L2Normalize::Backward(const Matrix& grad_output) {
  TASTI_CHECK(grad_output.rows() == cached_output_.rows() &&
                  grad_output.cols() == cached_output_.cols(),
              "L2Normalize backward shape mismatch");
  // For y = x / ||x||: dL/dx = (g - y (y . g)) / ||x||.
  Matrix grad_input = grad_output;
  for (size_t r = 0; r < grad_output.rows(); ++r) {
    const float* g = grad_output.Row(r);
    const float* y = cached_output_.Row(r);
    float dot = 0.0f;
    for (size_t c = 0; c < grad_output.cols(); ++c) dot += g[c] * y[c];
    float* gi = grad_input.Row(r);
    const float inv_norm = 1.0f / cached_norms_[r];
    for (size_t c = 0; c < grad_output.cols(); ++c) {
      gi[c] = (g[c] - y[c] * dot) * inv_norm;
    }
  }
  return grad_input;
}

}  // namespace tasti::nn
