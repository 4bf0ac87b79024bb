#include "support/reference_kernels.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/contracts.h"

namespace diffpattern::tensor::reference {

namespace {

void require_matrix(const Tensor& t, const char* name) {
  DP_REQUIRE(t.rank() == 2,
             std::string(name) + ": expected rank-2 tensor, got " +
                 t.shape_string());
}

}  // namespace

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  DP_REQUIRE(out.dim(0) == m && out.dim(1) == n,
             "reference::matmul_accumulate: bad output shape");
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul(a)");
  require_matrix(b, "reference::matmul(b)");
  DP_REQUIRE(b.dim(0) == a.dim(1), "reference::matmul: inner mismatch");
  Tensor out({a.dim(0), b.dim(1)}, 0.0F);
  reference::matmul_accumulate(a, b, out);
  return out;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_a(a)");
  require_matrix(b, "reference::matmul_transpose_a(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == m, "reference::matmul_transpose_a: row mismatch");
  const auto n = b.dim(1);
  Tensor out({k, n}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      float* crow = pc + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
  return out;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_b(a)");
  require_matrix(b, "reference::matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "reference::matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n;
      float acc = 0.0F;
      for (std::int64_t j = 0; j < n; ++j) {
        acc += arow[j] * brow[j];
      }
      crow[kk] = acc;
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  require_matrix(logits, "reference::softmax_rows");
  const auto rows = logits.dim(0);
  const auto cols = logits.dim(1);
  Tensor out = logits;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = out.data() + i * cols;
    float m = row[0];
    for (std::int64_t j = 1; j < cols; ++j) {
      m = std::max(m, row[j]);
    }
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - m);
      denom += row[j];
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] *= inv;
    }
  }
  return out;
}

Tensor sigmoid(const Tensor& x) {
  Tensor out = x;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = static_cast<float>(
        1.0 / (1.0 + std::exp(-static_cast<double>(x[i]))));
  }
  return out;
}

Tensor silu(const Tensor& x) {
  Tensor out = x;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const double v = x[i];
    out[i] = static_cast<float>(v / (1.0 + std::exp(-v)));
  }
  return out;
}

}  // namespace diffpattern::tensor::reference
