// Tensor operations with explicit forward and backward implementations.
//
// Convolutions support stride / padding / dilation / groups, which covers
// everything the DARTS operation set needs (plain, depthwise-separable and
// dilated separable convolutions). Shapes are NCHW.
//
// conv2d_forward / conv2d_backward pick one of three paths from the spec
// and the shapes (conv_path):
//   - pointwise: 1x1, stride 1, no padding. Per sample and group,
//     y = W * x, grad_w += grad_y * x^T and grad_x = W^T * grad_y as a
//     register-blocked GEMM straight on the NCHW planes.
//   - depthwise: groups == C_in == C_out (sep_conv, dil_conv). A direct
//     kernel over a zero-padded copy of each plane: no bounds test per
//     term, vectorized across output positions (grad_w across channels).
//   - im2col: everything else (stem, strided 1x1, grouped convs). A
//     per-call im2col buffer and the same GEMM; grad_x is gathered
//     through the taps on padded planes.
// Every path adds each element's terms in the order of the direct loops
// kept as the test oracle (tests/conv_reference.h), so the paths change
// speed, not results. matmul and matmul_tn share the GEMM.
#pragma once

#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace fms {

struct Conv2dSpec {
  int stride = 1;
  int padding = 0;
  int dilation = 1;
  int groups = 1;
};

// Output spatial size for one dimension.
int conv_out_size(int in, int kernel, int stride, int padding, int dilation);

enum class ConvPath { kPointwise, kDepthwise, kIm2col };
// The path conv2d_forward / conv2d_backward take for these shapes.
ConvPath conv_path(int cin, int cout, int kh, int kw, const Conv2dSpec& spec);

// y[N, Cout, Ho, Wo] = conv(x[N, Cin, H, W], w[Cout, Cin/groups, kh, kw]).
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Conv2dSpec& spec);

struct Conv2dGrads {
  Tensor grad_x;
  Tensor grad_w;
};
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& grad_y, const Conv2dSpec& spec);

// --- pooling ---
// Backward passes read only the input's shape. The Tensor overloads take
// it from the input itself.
struct MaxPoolResult {
  Tensor y;
  // Flat input offset of the argmax for each output element.
  std::vector<std::size_t> argmax;
};
MaxPoolResult maxpool2d_forward(const Tensor& x, int kernel, int stride,
                                int padding);
Tensor maxpool2d_backward(const std::vector<int>& x_shape,
                          const MaxPoolResult& fwd, const Tensor& grad_y);
inline Tensor maxpool2d_backward(const Tensor& x, const MaxPoolResult& fwd,
                                 const Tensor& grad_y) {
  return maxpool2d_backward(x.shape(), fwd, grad_y);
}

Tensor avgpool2d_forward(const Tensor& x, int kernel, int stride, int padding);
Tensor avgpool2d_backward(const std::vector<int>& x_shape, const Tensor& grad_y,
                          int kernel, int stride, int padding);
inline Tensor avgpool2d_backward(const Tensor& x, const Tensor& grad_y,
                                 int kernel, int stride, int padding) {
  return avgpool2d_backward(x.shape(), grad_y, kernel, stride, padding);
}

// Global average pooling: [N, C, H, W] -> [N, C].
Tensor global_avgpool_forward(const Tensor& x);
Tensor global_avgpool_backward(const std::vector<int>& x_shape,
                               const Tensor& grad_y);
inline Tensor global_avgpool_backward(const Tensor& x, const Tensor& grad_y) {
  return global_avgpool_backward(x.shape(), grad_y);
}

// --- activations ---
Tensor relu_forward(const Tensor& x);
Tensor relu_backward(const Tensor& x, const Tensor& grad_y);

// --- linear algebra ---
// C[m, n] = A[m, k] * B[k, n]
Tensor matmul(const Tensor& a, const Tensor& b);
// C[m, n] = A^T[k, m] * B[k, n]  (a is [k, m])
Tensor matmul_tn(const Tensor& a, const Tensor& b);
// C[m, n] = A[m, k] * B^T[n, k]  (b is [n, k])
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// --- shape manipulation ---
// Concatenates NCHW tensors along the channel dimension.
Tensor concat_channels(const std::vector<Tensor>& parts);
// Splits an NCHW tensor into equal channel groups (inverse of concat).
std::vector<Tensor> split_channels(const Tensor& x, int groups);

// --- classification losses ---
// Row-wise softmax of logits [N, C].
Tensor softmax(const Tensor& logits);

struct CrossEntropyResult {
  float loss = 0.0F;          // mean NLL over the batch
  float accuracy = 0.0F;      // top-1
  Tensor grad_logits;         // d(mean loss)/d logits
  Tensor probs;
};
CrossEntropyResult cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

}  // namespace fms
