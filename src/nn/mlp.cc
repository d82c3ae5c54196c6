#include "nn/mlp.h"

#include <cmath>

namespace tasti::nn {

void Mlp::Append(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

Matrix Mlp::Forward(const Matrix& input) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

void Mlp::Backward(const Matrix& grad_output) {
  if (layers_.empty()) return;
  Matrix g = grad_output;
  for (size_t l = layers_.size() - 1; l > 0; --l) g = layers_[l]->Backward(g);
  layers_[0]->AccumulateParamGrads(g);
}

void Mlp::KeepCachedRows(const std::vector<size_t>& rows) {
  for (auto& layer : layers_) layer->KeepCachedRows(rows);
}

namespace {
// Stateless re-implementation of each layer's forward pass, used for
// thread-safe inference (Layer::Forward mutates caches).
Matrix InferLayer(const Layer& layer, const Matrix& input) {
  const std::string name = layer.Name();
  if (name == "Linear") {
    const auto& lin = static_cast<const Linear&>(layer);
    Matrix out;
    Gemm(input, const_cast<Linear&>(lin).weight().value, &out);
    const float* b = const_cast<Linear&>(lin).bias().value.Row(0);
    for (size_t r = 0; r < out.rows(); ++r) {
      float* row = out.Row(r);
      for (size_t c = 0; c < out.cols(); ++c) row[c] += b[c];
    }
    return out;
  }
  if (name == "ReLU") {
    Matrix out = input;
    float* y = out.data();
    for (size_t i = 0; i < out.size(); ++i) y[i] = y[i] < 0.0f ? 0.0f : y[i];
    return out;
  }
  if (name == "Tanh") {
    Matrix out = input;
    for (size_t i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
    return out;
  }
  if (name == "L2Normalize") {
    Matrix out = input;
    for (size_t r = 0; r < out.rows(); ++r) {
      float* x = out.Row(r);
      float norm2 = 0.0f;
      for (size_t c = 0; c < out.cols(); ++c) norm2 += x[c] * x[c];
      const float norm = std::max(std::sqrt(norm2), 1e-8f);
      for (size_t c = 0; c < out.cols(); ++c) x[c] /= norm;
    }
    return out;
  }
  TASTI_CHECK(false, "unknown layer in InferLayer: " + name);
  return input;
}
}  // namespace

Matrix Mlp::Infer(const Matrix& input) const {
  Matrix x = input;
  for (const auto& layer : layers_) x = InferLayer(*layer, x);
  return x;
}

std::vector<Parameter*> Mlp::Params() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) out.push_back(p);
  }
  return out;
}

void Mlp::ZeroGrad() {
  for (Parameter* p : Params()) p->ZeroGrad();
}

Mlp Mlp::Clone() const {
  Mlp copy;
  Rng dummy(0);
  for (const auto& layer : layers_) {
    const std::string name = layer->Name();
    if (name == "Linear") {
      const auto& lin = static_cast<const Linear&>(*layer);
      auto fresh = std::make_unique<Linear>(lin.in_dim(), lin.out_dim(), &dummy);
      fresh->weight().value = const_cast<Linear&>(lin).weight().value;
      fresh->bias().value = const_cast<Linear&>(lin).bias().value;
      copy.Append(std::move(fresh));
    } else if (name == "ReLU") {
      copy.Append(std::make_unique<ReLU>());
    } else if (name == "Tanh") {
      copy.Append(std::make_unique<Tanh>());
    } else if (name == "L2Normalize") {
      copy.Append(std::make_unique<L2Normalize>());
    } else {
      TASTI_CHECK(false, "unknown layer in Clone: " + name);
    }
  }
  return copy;
}

Mlp Mlp::MakeEmbeddingNet(size_t in_dim, size_t hidden_dim, size_t out_dim,
                          Rng* rng) {
  Mlp net;
  net.Append(std::make_unique<Linear>(in_dim, hidden_dim, rng));
  net.Append(std::make_unique<ReLU>());
  net.Append(std::make_unique<Linear>(hidden_dim, out_dim, rng));
  net.Append(std::make_unique<L2Normalize>());
  return net;
}

Mlp Mlp::MakeProxyNet(size_t in_dim, size_t hidden_dim, Rng* rng) {
  Mlp net;
  net.Append(std::make_unique<Linear>(in_dim, hidden_dim, rng));
  net.Append(std::make_unique<ReLU>());
  net.Append(std::make_unique<Linear>(hidden_dim, 1, rng));
  return net;
}

}  // namespace tasti::nn
