#ifndef TASTI_NN_MLP_H_
#define TASTI_NN_MLP_H_

/// \file mlp.h
/// The embedding DNN: a sequential multilayer perceptron.
///
/// This stands in for the paper's ResNet-18 / BERT / audio-ResNet embedding
/// networks at laptop scale: the optimization problem (triplet metric
/// learning over record features) is identical, only the backbone capacity
/// differs.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/random.h"
#include "util/status.h"

namespace tasti::nn {

/// A sequential stack of layers with a shared forward/backward interface.
class Mlp {
 public:
  Mlp() = default;

  // Movable but not copyable (layers own parameter state).
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;
  Mlp(const Mlp&) = delete;
  Mlp& operator=(const Mlp&) = delete;

  /// Appends a layer. Layers are applied in insertion order.
  void Append(std::unique_ptr<Layer> layer);

  /// Runs a batch forward through every layer, caching activations.
  Matrix Forward(const Matrix& input);

  /// Backpropagates dLoss/dOutput through the cached forward pass,
  /// accumulating parameter gradients. The first layer's input gradient is
  /// never computed: nothing reads it.
  void Backward(const Matrix& grad_output);

  /// Narrows every layer's forward caches to the given rows of the most
  /// recent Forward batch; a following Backward then takes dLoss/dOutput
  /// for those rows only and accumulates the same gradients as a Forward
  /// on just those rows would have left.
  void KeepCachedRows(const std::vector<size_t>& rows);

  /// Runs a batch forward without touching training caches. Safe to call
  /// concurrently from multiple threads on a const model.
  Matrix Infer(const Matrix& input) const;

  /// All trainable parameters across layers.
  std::vector<Parameter*> Params();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  size_t num_layers() const { return layers_.size(); }

  /// Calls `fn` on every layer in order (used by serialization).
  void VisitLayers(const std::function<void(const Layer&)>& fn) const {
    for (const auto& layer : layers_) fn(*layer);
  }

  /// Deep-copies the architecture and weights.
  Mlp Clone() const;

  /// Standard embedding architecture used throughout the library:
  /// Linear(in, hidden) + ReLU + Linear(hidden, out) + L2Normalize.
  static Mlp MakeEmbeddingNet(size_t in_dim, size_t hidden_dim, size_t out_dim,
                              Rng* rng);

  /// Regression/classification head used by the per-query proxy baseline:
  /// Linear(in, hidden) + ReLU + Linear(hidden, 1).
  static Mlp MakeProxyNet(size_t in_dim, size_t hidden_dim, Rng* rng);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace tasti::nn

#endif  // TASTI_NN_MLP_H_
