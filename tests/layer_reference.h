// Direct-loop pooling, ReLU, global-average-pool and BatchNorm kernels
// used as the test oracle for the layer kernels in src/tensor/ops.cpp and
// src/nn/layers.cpp. Linked only into the tests: one element per
// innermost iteration, bounds checked per tap, so it is easy to audit by
// eye. The fast kernels must reproduce these bit for bit.
#pragma once

#include <vector>

#include "src/tensor/ops.h"

namespace fms::testing_ref {

MaxPoolResult maxpool2d_forward_reference(const Tensor& x, int kernel,
                                          int stride, int padding);
Tensor maxpool2d_backward_reference(const Tensor& x, const MaxPoolResult& fwd,
                                    const Tensor& grad_y);

Tensor avgpool2d_forward_reference(const Tensor& x, int kernel, int stride,
                                   int padding);
Tensor avgpool2d_backward_reference(const Tensor& x, const Tensor& grad_y,
                                    int kernel, int stride, int padding);

Tensor global_avgpool_forward_reference(const Tensor& x);
Tensor global_avgpool_backward_reference(const Tensor& x,
                                         const Tensor& grad_y);

Tensor relu_forward_reference(const Tensor& x);
Tensor relu_backward_reference(const Tensor& x, const Tensor& grad_y);

// BatchNorm2d's arithmetic on explicit state: gamma, beta and the running
// statistics are [C] tensors, updated in place the way the layer updates
// its own.
struct BatchNormTrainReference {
  Tensor y;
  Tensor xhat;
  std::vector<float> inv_std;
};
BatchNormTrainReference batchnorm2d_train_forward_reference(
    const Tensor& x, const Tensor& gamma, const Tensor& beta,
    Tensor& running_mean, Tensor& running_var, float eps, float momentum);
Tensor batchnorm2d_eval_forward_reference(const Tensor& x, const Tensor& gamma,
                                          const Tensor& beta,
                                          const Tensor& running_mean,
                                          const Tensor& running_var, float eps);
// Returns grad_x and adds into grad_gamma / grad_beta.
Tensor batchnorm2d_backward_reference(const Tensor& xhat,
                                      const std::vector<float>& inv_std,
                                      const Tensor& gamma,
                                      const Tensor& grad_y, Tensor& grad_gamma,
                                      Tensor& grad_beta);

}  // namespace fms::testing_ref
