// Direct-loop convolution used as the test oracle for the conv engine in
// src/tensor/ops.cpp. Linked only into the tests: one output element (or
// gradient term) per innermost iteration, bounds checked per term, no
// blocking or vectorization, so it is easy to audit by eye.
#pragma once

#include "src/tensor/ops.h"

namespace fms::testing_ref {

Tensor conv2d_forward_reference(const Tensor& x, const Tensor& w,
                                const Conv2dSpec& spec);
Conv2dGrads conv2d_backward_reference(const Tensor& x, const Tensor& w,
                                      const Tensor& grad_y,
                                      const Conv2dSpec& spec);

}  // namespace fms::testing_ref
