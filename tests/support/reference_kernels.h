// Naive single-threaded tensor kernels: the oracle for the blocked,
// parallel, SIMD-dispatched kernels of src/tensor/tensor_ops.h (tests
// assert agreement within a tight ULP bound — the dispatched kernels
// accumulate with fused multiply-adds, these keep separate mul/add
// roundings), and a readable spec of the arithmetic.
#pragma once

#include "tensor/tensor.h"

namespace diffpattern::tensor::reference {

Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out);
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);
Tensor softmax_rows(const Tensor& logits);
/// 1 / (1 + exp(-x)) in double, rounded once to float.
Tensor sigmoid(const Tensor& x);
/// x * sigmoid(x) in double, rounded once to float.
Tensor silu(const Tensor& x);

}  // namespace diffpattern::tensor::reference
