#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace dt = diffpattern::tensor;
using dt::Tensor;

TEST(Tensor, ConstructsWithFill) {
  Tensor t({2, 3}, 1.5F);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_FLOAT_EQ(t[i], 1.5F);
  }
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor::from_data({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, AtIsRowMajor) {
  Tensor t = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0F);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 2.0F);
  EXPECT_FLOAT_EQ(t.at({1, 0}), 3.0F);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0F);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW(t.at({0, 3}), std::invalid_argument);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

TEST(Tensor, NegativeAxisDim) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
  EXPECT_THROW(t.dim(3), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshaped({3, 2});
  EXPECT_FLOAT_EQ(r.at({0, 1}), 1.0F);
  EXPECT_FLOAT_EQ(r.at({2, 1}), 5.0F);
}

TEST(Tensor, ReshapeInfersAxis) {
  Tensor t({4, 6});
  EXPECT_EQ(t.reshaped({2, -1}).dim(1), 12);
  EXPECT_EQ(t.reshaped({-1}).dim(0), 24);
  EXPECT_THROW(t.reshaped({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshaped({5, -1}), std::invalid_argument);
}

TEST(Tensor, ScalarHelper) {
  Tensor s = Tensor::scalar(3.25F);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_FLOAT_EQ(s[0], 3.25F);
}

TEST(TensorOps, MatmulKnownValues) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2}, {5, 6, 7, 8});
  Tensor c = dt::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 19.0F);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 22.0F);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 43.0F);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 50.0F);
}

TEST(TensorOps, MatmulShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(dt::matmul(a, b), std::invalid_argument);
}

TEST(TensorOps, TransposeVariantsAgreeWithExplicitTranspose) {
  diffpattern::common::Rng rng(5);
  Tensor a({3, 4});
  Tensor b({3, 5});
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = static_cast<float>(rng.normal());
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = static_cast<float>(rng.normal());
  // a^T b via matmul_transpose_a vs manual transpose.
  Tensor at({4, 3});
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      at.at({j, i}) = a.at({i, j});
    }
  }
  Tensor ref = dt::matmul(at, b);
  Tensor got = dt::matmul_transpose_a(a, b);
  ASSERT_TRUE(ref.same_shape(got));
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(ref[i], got[i], 1e-5F);
  }
  // a b^T via matmul_transpose_b.
  Tensor c({6, 4});
  for (std::int64_t i = 0; i < c.numel(); ++i) c[i] = static_cast<float>(rng.normal());
  Tensor ct({4, 6});
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      ct.at({j, i}) = c.at({i, j});
    }
  }
  Tensor ref2 = dt::matmul(a, ct.reshaped({4, 6}));
  Tensor got2 = dt::matmul_transpose_b(a, c);
  ASSERT_TRUE(ref2.same_shape(got2));
  for (std::int64_t i = 0; i < ref2.numel(); ++i) {
    EXPECT_NEAR(ref2[i], got2[i], 1e-5F);
  }
}

TEST(TensorOps, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no padding: columns equal the flattened image.
  Tensor img = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  dt::Conv2dGeometry geom;
  geom.in_channels = 1;
  geom.in_h = 2;
  geom.in_w = 2;
  geom.kernel_h = 1;
  geom.kernel_w = 1;
  Tensor cols = dt::im2col_batch(img, geom);
  ASSERT_EQ(cols.dim(0), 1);
  ASSERT_EQ(cols.dim(1), 4);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(cols[i], img[i]);
  }
}

TEST(TensorOps, Im2ColPaddingZeros) {
  Tensor img = Tensor::from_data({1, 1, 1, 1}, {7});
  dt::Conv2dGeometry geom;
  geom.in_channels = 1;
  geom.in_h = 1;
  geom.in_w = 1;
  geom.kernel_h = 3;
  geom.kernel_w = 3;
  geom.padding = 1;
  Tensor cols = dt::im2col_batch(img, geom);
  ASSERT_EQ(cols.dim(0), 9);
  ASSERT_EQ(cols.dim(1), 1);
  // Only the center tap sees the pixel.
  for (std::int64_t r = 0; r < 9; ++r) {
    EXPECT_FLOAT_EQ(cols[r], r == 4 ? 7.0F : 0.0F);
  }
}

TEST(TensorOps, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // used by the convolution backward pass.
  diffpattern::common::Rng rng(17);
  dt::Conv2dGeometry geom;
  geom.in_channels = 2;
  geom.in_h = 5;
  geom.in_w = 4;
  geom.kernel_h = 3;
  geom.kernel_w = 3;
  geom.stride = 2;
  geom.padding = 1;
  Tensor x({1, 2, 5, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.normal());
  Tensor y({geom.patch_size(), geom.out_h() * geom.out_w()});
  for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = static_cast<float>(rng.normal());
  Tensor cx = dt::im2col_batch(x, geom);
  Tensor iy = dt::col2im_batch(y, geom, /*batch=*/1);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cx.numel(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * iy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Tensor logits = Tensor::from_data({2, 3}, {1, 2, 3, -1, 0, 1000});
  Tensor p = dt::softmax_rows(logits);
  for (std::int64_t r = 0; r < 2; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 3; ++c) {
      s += p.at({r, c});
      EXPECT_GE(p.at({r, c}), 0.0F);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
  // Large logit dominates without overflow.
  EXPECT_NEAR(p.at({1, 2}), 1.0F, 1e-5F);
}

TEST(TensorOps, ElementwiseHelpers) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {4, 5, 6});
  Tensor s = dt::add(a, b);
  Tensor m = dt::mul(a, b);
  EXPECT_FLOAT_EQ(s[2], 9.0F);
  EXPECT_FLOAT_EQ(m[1], 10.0F);
  EXPECT_FLOAT_EQ(dt::scale(a, 2.0F)[0], 2.0F);
  EXPECT_DOUBLE_EQ(dt::sum(a), 6.0);
}
