#include "nn/optimizer.h"

#include <cmath>

#include "util/status.h"

namespace tasti::nn {

namespace {

// Adam's moment decay rates and denominator floor.
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

}  // namespace

Adam::Adam(std::vector<Parameter*> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    TASTI_CHECK(p != nullptr, "Adam given null parameter");
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++t_;
  const float b1 = kBeta1;
  const float b2 = kBeta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (size_t j = 0; j < p->value.size(); ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * g[j];
      v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
      const float mhat = m[j] / bias1;
      const float vhat = v[j] / bias2;
      w[j] -= options_.learning_rate * mhat / (std::sqrt(vhat) + kEpsilon);
    }
  }
}

}  // namespace tasti::nn
