#ifndef TASTI_NN_OPTIMIZER_H_
#define TASTI_NN_OPTIMIZER_H_

/// \file optimizer.h
/// Adam, the one optimizer: triplet training of the embedding network and
/// the per-query proxy baseline both step with it.

#include <vector>

#include "nn/layers.h"

namespace tasti::nn {

/// Adam (Kingma & Ba 2015) over a fixed parameter list.
///
/// The parameter list is captured at construction; Step() applies one update
/// using whatever gradients have been accumulated since the last ZeroGrad.
class Adam {
 public:
  struct Options {
    /// The moment decays (0.9, 0.999) and the denominator floor (1e-8)
    /// are the usual Adam constants.
    float learning_rate = 1e-3f;
  };

  Adam(std::vector<Parameter*> params, Options options);

  /// Applies one Adam update to every parameter.
  void Step();

  /// Number of steps applied so far.
  size_t step_count() const { return t_; }

 private:
  std::vector<Parameter*> params_;
  Options options_;
  std::vector<Matrix> m_;  // first moments, aligned with params_
  std::vector<Matrix> v_;  // second moments
  size_t t_ = 0;
};

}  // namespace tasti::nn

#endif  // TASTI_NN_OPTIMIZER_H_
