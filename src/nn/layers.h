#ifndef TASTI_NN_LAYERS_H_
#define TASTI_NN_LAYERS_H_

/// \file layers.h
/// Differentiable layers with manual backpropagation.
///
/// The embedding DNN is a small MLP, so the layer zoo is deliberately tiny:
/// Linear, ReLU, Tanh, and row-wise L2 normalization (common as the final
/// layer of triplet-trained embedding networks). Each layer caches its
/// forward activations; Backward must be called with the most recent
/// forward's batch, or with the rows KeepCachedRows narrowed it to.

#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.h"
#include "util/random.h"

namespace tasti::nn {

/// A trainable parameter: a value matrix plus its gradient accumulator.
struct Parameter {
  Matrix value;
  Matrix grad;

  Parameter() = default;
  Parameter(size_t rows, size_t cols) : value(rows, cols), grad(rows, cols) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class for layers. Forward caches whatever Backward needs.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a batch (rows = examples).
  virtual Matrix Forward(const Matrix& input) = 0;

  /// Given dLoss/dOutput for the most recent Forward batch, accumulates
  /// parameter gradients and returns dLoss/dInput.
  virtual Matrix Backward(const Matrix& grad_output) = 0;

  /// Backward without dLoss/dInput: only accumulates parameter gradients
  /// (nothing for activations). For a network's first layer, whose input
  /// gradient nobody reads.
  virtual void AccumulateParamGrads(const Matrix&) {}

  /// Narrows the forward caches to the given rows of the most recent
  /// Forward batch, in that order, as if Forward had run on only those rows.
  virtual void KeepCachedRows(const std::vector<size_t>& rows) = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<Parameter*> Params() { return {}; }

  /// Layer name for serialization and debugging.
  virtual std::string Name() const = 0;

  /// Output width given an input width.
  virtual size_t OutputDim(size_t input_dim) const = 0;
};

/// Fully connected layer: Y = X W + b.
class Linear : public Layer {
 public:
  /// Initializes with He-uniform weights drawn from `rng`.
  Linear(size_t in_dim, size_t out_dim, Rng* rng);

  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  void AccumulateParamGrads(const Matrix& grad_output) override;
  void KeepCachedRows(const std::vector<size_t>& rows) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::string Name() const override { return "Linear"; }
  size_t OutputDim(size_t) const override { return out_dim_; }

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  Parameter weight_;  // in_dim x out_dim
  Parameter bias_;    // 1 x out_dim
  Matrix cached_input_;
};

/// Rectified linear activation.
class ReLU : public Layer {
 public:
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  void KeepCachedRows(const std::vector<size_t>& rows) override;
  std::string Name() const override { return "ReLU"; }
  size_t OutputDim(size_t input_dim) const override { return input_dim; }

 private:
  Matrix cached_output_;
};

/// Hyperbolic tangent activation.
class Tanh : public Layer {
 public:
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  void KeepCachedRows(const std::vector<size_t>& rows) override;
  std::string Name() const override { return "Tanh"; }
  size_t OutputDim(size_t input_dim) const override { return input_dim; }

 private:
  Matrix cached_output_;
};

/// Row-wise L2 normalization: y = x / max(||x||, eps).
class L2Normalize : public Layer {
 public:
  explicit L2Normalize(float eps = 1e-8f) : eps_(eps) {}

  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  void KeepCachedRows(const std::vector<size_t>& rows) override;
  std::string Name() const override { return "L2Normalize"; }
  size_t OutputDim(size_t input_dim) const override { return input_dim; }

 private:
  float eps_;
  Matrix cached_output_;
  std::vector<float> cached_norms_;
};

}  // namespace tasti::nn

#endif  // TASTI_NN_LAYERS_H_
