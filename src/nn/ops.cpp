#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.h"
#include "tensor/parallel.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace diffpattern::nn {

namespace {

using detail::accumulate_grad;
using detail::graph_needed;
using detail::make_op_node;
using detail::make_value_node;
using tensor::parallel_elements;

void require_same_shape(const Var& a, const Var& b, const char* op) {
  DP_REQUIRE(a.value().same_shape(b.value()),
             std::string(op) + ": shape mismatch " +
                 a.value().shape_string() + " vs " + b.value().shape_string());
}

Tensor map_unary(const Tensor& x, float (*f)(float)) {
  Tensor out = x;
  float* po = out.data();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      po[i] = f(po[i]);
    }
  });
  return out;
}

}  // namespace

// ---- arithmetic -----------------------------------------------------------

Var add(const Var& a, const Var& b) {
  require_same_shape(a, b, "add");
  Tensor out = tensor::add(a.value(), b.value());
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  return make_op_node(std::move(out), {a, b}, [pa, pb](const Tensor& g) {
    if (pa->requires_grad) accumulate_grad(*pa, g);
    if (pb->requires_grad) accumulate_grad(*pb, g);
  });
}

Var sub(const Var& a, const Var& b) {
  require_same_shape(a, b, "sub");
  Tensor out = a.value();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] -= b.value()[i];
  }
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  return make_op_node(std::move(out), {a, b}, [pa, pb](const Tensor& g) {
    if (pa->requires_grad) accumulate_grad(*pa, g);
    if (pb->requires_grad) accumulate_grad(*pb, tensor::scale(g, -1.0F));
  });
}

Var mul(const Var& a, const Var& b) {
  require_same_shape(a, b, "mul");
  Tensor out = tensor::mul(a.value(), b.value());
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  Tensor av = a.value();
  Tensor bv = b.value();
  return make_op_node(
      std::move(out), {a, b},
      [pa, pb, av = std::move(av), bv = std::move(bv)](const Tensor& g) {
        if (pa->requires_grad) accumulate_grad(*pa, tensor::mul(g, bv));
        if (pb->requires_grad) accumulate_grad(*pb, tensor::mul(g, av));
      });
}

Var neg(const Var& a) { return scale(a, -1.0F); }

Var scale(const Var& a, float s) {
  Tensor out = tensor::scale(a.value(), s);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  return make_op_node(std::move(out), {a}, [pa, s](const Tensor& g) {
    accumulate_grad(*pa, tensor::scale(g, s));
  });
}

Var add_scalar(const Var& a, float s) {
  Tensor out = a.value();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] += s;
  }
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  return make_op_node(std::move(out), {a}, [pa](const Tensor& g) {
    accumulate_grad(*pa, g);
  });
}

Var mul_const(const Var& a, const Tensor& c) {
  DP_REQUIRE(a.value().same_shape(c), "mul_const: shape mismatch");
  Tensor out = tensor::mul(a.value(), c);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor cc = c;
  return make_op_node(std::move(out), {a},
                      [pa, cc = std::move(cc)](const Tensor& g) {
                        accumulate_grad(*pa, tensor::mul(g, cc));
                      });
}

Var add_const(const Var& a, const Tensor& c) {
  DP_REQUIRE(a.value().same_shape(c), "add_const: shape mismatch");
  Tensor out = tensor::add(a.value(), c);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  return make_op_node(std::move(out), {a}, [pa](const Tensor& g) {
    accumulate_grad(*pa, g);
  });
}

// ---- activations ----------------------------------------------------------

Var relu(const Var& a) {
  Tensor out = a.value();
  float* po = out.data();
  const auto& kern = tensor::simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.relu(po + i0, i1 - i0);
  });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor x = a.value();
  return make_op_node(std::move(out), {a},
                      [pa, x = std::move(x)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          if (x[i] <= 0.0F) d[i] = 0.0F;
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var sigmoid(const Var& a) {
  Tensor out = a.value();
  float* po = out.data();
  const auto& kern = tensor::simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.sigmoid(po + i0, po + i0, i1 - i0);
  });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor s = out;
  return make_op_node(std::move(out), {a},
                      [pa, s = std::move(s)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          d[i] *= s[i] * (1.0F - s[i]);
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var silu(const Var& a) {
  Tensor out = a.value();
  float* po = out.data();
  const auto& kern = tensor::simd::active();
  if (!graph_needed({&a})) {
    // Inference: no sigmoid stash. The kernel's SiLU is x * sigmoid(x), so
    // the bytes are those of the training path below.
    parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
      kern.silu(po + i0, po + i0, i1 - i0);
    });
    return make_value_node(std::move(out));
  }
  Tensor s = out;
  float* ps = s.data();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.sigmoid(ps + i0, ps + i0, i1 - i0);
    kern.mul(po + i0, ps + i0, i1 - i0);
  });
  auto pa = a.node();
  return make_op_node(
      std::move(out), {a}, [pa, s = std::move(s)](const Tensor& g) {
        const float* px = pa->value.data();
        Tensor d = g;
        float* pd = d.data();
        parallel_elements(d.numel(), [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const float sig = s[i];
            pd[i] *= sig * (1.0F + px[i] * (1.0F - sig));
          }
        });
        accumulate_grad(*pa, d);
      });
}

Var gelu(const Var& a) {
  // tanh approximation; matches common framework implementations closely.
  constexpr float kC = 0.7978845608028654F;  // sqrt(2/pi)
  constexpr float kA = 0.044715F;
  const Tensor& x = a.value();
  Tensor out = x;
  float* po = out.data();
  parallel_elements(x.numel(), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v = po[i];
      const float t = std::tanh(kC * (v + kA * v * v * v));
      po[i] = 0.5F * v * (1.0F + t);
    }
  });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor xc = x;
  return make_op_node(std::move(out), {a},
                      [pa, xc = std::move(xc)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          const float v = xc[i];
                          const float u = kC * (v + kA * v * v * v);
                          const float t = std::tanh(u);
                          const float du = kC * (1.0F + 3.0F * kA * v * v);
                          d[i] *= 0.5F * (1.0F + t) +
                                  0.5F * v * (1.0F - t * t) * du;
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var softplus(const Var& a) {
  Tensor out = map_unary(a.value(), [](float x) {
    return std::max(x, 0.0F) + std::log1p(std::exp(-std::abs(x)));
  });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  return make_op_node(std::move(out), {a}, [pa](const Tensor& g) {
    const auto& kern = tensor::simd::active();
    Tensor s(pa->value.shape());
    kern.sigmoid(s.data(), pa->value.data(), s.numel());
    Tensor d = g;
    kern.mul(d.data(), s.data(), d.numel());
    accumulate_grad(*pa, d);
  });
}

Var log_clamped(const Var& a, float eps) {
  DP_REQUIRE(eps > 0.0F, "log_clamped: eps must be positive");
  const Tensor& x = a.value();
  Tensor out = x;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = std::log(std::max(x[i], eps));
  }
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor xc = x;
  return make_op_node(std::move(out), {a},
                      [pa, xc = std::move(xc), eps](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          d[i] = xc[i] > eps ? d[i] / xc[i] : 0.0F;
                        }
                        accumulate_grad(*pa, d);
                      });
}

// ---- shape ----------------------------------------------------------------

Var reshape(const Var& a, Shape shape) {
  Tensor out = a.value().reshaped(std::move(shape));
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Shape original = a.value().shape();
  return make_op_node(std::move(out), {a},
                      [pa, original = std::move(original)](const Tensor& g) {
                        accumulate_grad(*pa, g.reshaped(original));
                      });
}

namespace {

Tensor permute_tensor(const Tensor& x, const std::vector<std::int64_t>& dims) {
  const auto rank = x.rank();
  DP_REQUIRE(static_cast<std::int64_t>(dims.size()) == rank,
             "permute: dims rank mismatch");
  const auto r = static_cast<std::size_t>(rank);
  // Shape and source stride of each output axis.
  Shape out_shape(r);
  std::vector<std::int64_t> stride(r);
  for (std::size_t d = 0; d < r; ++d) {
    out_shape[d] = x.dim(dims[d]);
    std::int64_t s = 1;
    for (std::int64_t i = dims[d] + 1; i < rank; ++i) {
      s *= x.dim(i);
    }
    stride[d] = s;
  }
  Tensor out(out_shape);
  if (out.numel() == 0 || r == 0) {
    std::copy_n(x.data(), out.numel(), out.data());
    return out;
  }
  // Copy the innermost output axis as one strided run per outer index,
  // advancing the outer multi-index (and its source offset) in row-major
  // order.
  const auto run = out_shape[r - 1];
  const auto run_stride = stride[r - 1];
  const float* in = x.data();
  float* dst = out.data();
  std::vector<std::int64_t> idx(r, 0);
  std::int64_t src = 0;
  for (std::int64_t left = out.numel() / run; left > 0; --left) {
    for (std::int64_t j = 0; j < run; ++j) {
      dst[j] = in[src + j * run_stride];
    }
    dst += run;
    for (std::size_t d = r - 1; d-- > 0;) {
      src += stride[d];
      if (++idx[d] < out_shape[d]) {
        break;
      }
      src -= idx[d] * stride[d];
      idx[d] = 0;
    }
  }
  return out;
}

std::vector<std::int64_t> inverse_permutation(
    const std::vector<std::int64_t>& dims) {
  std::vector<std::int64_t> inv(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    inv[static_cast<std::size_t>(dims[i])] = static_cast<std::int64_t>(i);
  }
  return inv;
}

}  // namespace

Var permute(const Var& a, std::vector<std::int64_t> dims) {
  // Validate that dims is a permutation.
  std::vector<bool> seen(dims.size(), false);
  for (const auto d : dims) {
    DP_REQUIRE(d >= 0 && d < static_cast<std::int64_t>(dims.size()) &&
                   !seen[static_cast<std::size_t>(d)],
               "permute: dims is not a permutation");
    seen[static_cast<std::size_t>(d)] = true;
  }
  Tensor out = permute_tensor(a.value(), dims);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto inv = inverse_permutation(dims);
  return make_op_node(std::move(out), {a},
                      [pa, inv = std::move(inv)](const Tensor& g) {
                        accumulate_grad(*pa, permute_tensor(g, inv));
                      });
}

Var slice_channels(const Var& x, std::int64_t c0, std::int64_t count) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "slice_channels: expected [N,C,H,W]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  DP_REQUIRE(c0 >= 0 && count > 0 && c0 + count <= c,
             "slice_channels: range out of bounds");
  Tensor out({n, count, h, w});
  const auto plane = h * w;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* src = v.data() + (i * c + c0) * plane;
    float* dst = out.data() + i * count * plane;
    std::copy(src, src + count * plane, dst);
  }
  if (!graph_needed({&x})) {
    return make_value_node(std::move(out));
  }
  auto pa = x.node();
  return make_op_node(
      std::move(out), {x}, [pa, n, c, h, w, c0, count](const Tensor& g) {
        Tensor full({n, c, h, w}, 0.0F);
        const auto plane = h * w;
        for (std::int64_t i = 0; i < n; ++i) {
          const float* src = g.data() + i * count * plane;
          float* dst = full.data() + (i * c + c0) * plane;
          std::copy(src, src + count * plane, dst);
        }
        accumulate_grad(*pa, full);
      });
}

Var concat_channels(const Var& a, const Var& b) {
  const Tensor& va = a.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(va.rank() == 4 && vb.rank() == 4,
             "concat_channels: expected [N,C,H,W]");
  DP_REQUIRE(va.dim(0) == vb.dim(0) && va.dim(2) == vb.dim(2) &&
                 va.dim(3) == vb.dim(3),
             "concat_channels: non-channel dims mismatch");
  const auto n = va.dim(0);
  const auto ca = va.dim(1);
  const auto cb = vb.dim(1);
  const auto h = va.dim(2);
  const auto w = va.dim(3);
  const auto plane = h * w;
  Tensor out({n, ca + cb, h, w});
  for (std::int64_t i = 0; i < n; ++i) {
    const float* sa = va.data() + i * ca * plane;
    const float* sb = vb.data() + i * cb * plane;
    float* dst = out.data() + i * (ca + cb) * plane;
    std::copy(sa, sa + ca * plane, dst);
    std::copy(sb, sb + cb * plane, dst + ca * plane);
  }
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  return make_op_node(
      std::move(out), {a, b}, [pa, pb, n, ca, cb, plane](const Tensor& g) {
        if (pa->requires_grad) {
          Tensor ga(pa->value.shape());
          for (std::int64_t i = 0; i < n; ++i) {
            const float* src = g.data() + i * (ca + cb) * plane;
            std::copy(src, src + ca * plane, ga.data() + i * ca * plane);
          }
          accumulate_grad(*pa, ga);
        }
        if (pb->requires_grad) {
          Tensor gb(pb->value.shape());
          for (std::int64_t i = 0; i < n; ++i) {
            const float* src = g.data() + (i * (ca + cb) + ca) * plane;
            std::copy(src, src + cb * plane, gb.data() + i * cb * plane);
          }
          accumulate_grad(*pb, gb);
        }
      });
}

Var add_spatial_broadcast(const Var& x, const Var& bias_nc) {
  const Tensor& v = x.value();
  const Tensor& b = bias_nc.value();
  DP_REQUIRE(v.rank() == 4, "add_spatial_broadcast: x must be [N,C,H,W]");
  DP_REQUIRE(b.rank() == 2 && b.dim(0) == v.dim(0) && b.dim(1) == v.dim(1),
             "add_spatial_broadcast: bias must be [N,C]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto plane = v.dim(2) * v.dim(3);
  Tensor out = v;
  const auto& kern = tensor::simd::active();
  tensor::parallel_for(
      0, n * c,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float* dst = out.data() + i * plane;
          kern.shift(dst, dst, b[i], plane);
        }
      },
      tensor::work_grain(plane));
  if (!graph_needed({&x, &bias_nc})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pb = bias_nc.node();
  return make_op_node(std::move(out), {x, bias_nc},
                      [px, pb, n, c, plane](const Tensor& g) {
                        if (px->requires_grad) {
                          accumulate_grad(*px, g);
                        }
                        if (pb->requires_grad) {
                          Tensor gb({n, c}, 0.0F);
                          for (std::int64_t i = 0; i < n * c; ++i) {
                            const float* src = g.data() + i * plane;
                            for (std::int64_t p = 0; p < plane; ++p) {
                              gb[i] += src[p];
                            }
                          }
                          accumulate_grad(*pb, gb);
                        }
                      });
}

Var detach(const Var& a) { return Var(a.value(), /*requires_grad=*/false); }

// ---- linear algebra --------------------------------------------------------

Var bmm(const Var& a, const Var& b) {
  const Tensor& va = a.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(va.rank() == 3 && vb.rank() == 3, "bmm: expected rank-3 inputs");
  DP_REQUIRE(va.dim(0) == vb.dim(0), "bmm: batch mismatch");
  DP_REQUIRE(va.dim(2) == vb.dim(1), "bmm: inner dimension mismatch");
  const auto batch = va.dim(0);
  const auto m = va.dim(1);
  const auto kd = va.dim(2);
  const auto n = vb.dim(2);
  Tensor out({batch, m, n}, 0.0F);
  // One independent GEMM per batch slice, straight from pointers into the
  // operands: parallelism comes from the batch axis (the natural grain for
  // the attention scores), and a worker allocates nothing.
  const auto grain = tensor::work_grain(m * kd * n, tensor::kGemmGrainFlops);
  tensor::parallel_for(
      0, batch,
      [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t i = b0; i < b1; ++i) {
          tensor::gemm_accumulate(va.data() + i * m * kd, kd,
                                  vb.data() + i * kd * n, n,
                                  out.data() + i * m * n, n, m, n, kd);
        }
      },
      grain);
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  return make_op_node(
      std::move(out), {a, b},
      [pa, pb, batch, m, kd, n, grain](const Tensor& g) {
        const float* pg = g.data();
        const float* pav = pa->value.data();
        const float* pbv = pb->value.data();
        if (pa->requires_grad) {
          // ga_i = g_i b_i^T: one canonical dot per element, in the dot
          // tiles matmul_transpose_b runs.
          Tensor ga(pa->value.shape());
          float* pga = ga.data();
          tensor::parallel_for(
              0, batch,
              [&](std::int64_t b0, std::int64_t b1) {
                for (std::int64_t i = b0; i < b1; ++i) {
                  tensor::gemm_transpose_b(pg + i * m * n, pbv + i * kd * n,
                                           pga + i * m * kd, m, kd, n);
                }
              },
              grain);
          accumulate_grad(*pa, ga);
        }
        if (pb->requires_grad) {
          // gb_i = a_i^T g_i: a_i^T packed into one buffer for the whole
          // batch, then the register-tile chain, as matmul_transpose_a
          // computes it.
          Tensor at({batch, kd, m});
          Tensor gb(pb->value.shape(), 0.0F);
          float* pat = at.data();
          float* pgb = gb.data();
          tensor::parallel_for(
              0, batch,
              [&](std::int64_t b0, std::int64_t b1) {
                for (std::int64_t i = b0; i < b1; ++i) {
                  const float* ai = pav + i * m * kd;
                  float* ati = pat + i * kd * m;
                  for (std::int64_t r = 0; r < m; ++r) {
                    for (std::int64_t kk = 0; kk < kd; ++kk) {
                      ati[kk * m + r] = ai[r * kd + kk];
                    }
                  }
                  tensor::gemm_accumulate(ati, m, pg + i * m * n, n,
                                          pgb + i * kd * n, n, kd, n, m);
                }
              },
              grain);
          accumulate_grad(*pb, gb);
        }
      });
}

Var linear(const Var& x, const Var& w, const Var& b) {
  const Tensor& vx = x.value();
  const Tensor& vw = w.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(vx.rank() == 2, "linear: x must be [N,Fin]");
  DP_REQUIRE(vw.rank() == 2, "linear: w must be [Fout,Fin]");
  DP_REQUIRE(vx.dim(1) == vw.dim(1), "linear: feature mismatch");
  DP_REQUIRE(vb.rank() == 1 && vb.dim(0) == vw.dim(0),
             "linear: bias shape mismatch");
  Tensor out = tensor::matmul_transpose_b(vx, vw);
  const auto n = out.dim(0);
  const auto f = out.dim(1);
  const auto& kern = tensor::simd::active();
  const float* pbias = vb.data();
  for (std::int64_t i = 0; i < n; ++i) {
    kern.add(out.data() + i * f, pbias, f);
  }
  if (!graph_needed({&x, &w, &b})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pw = w.node();
  auto pb = b.node();
  return make_op_node(
      std::move(out), {x, w, b}, [px, pw, pb](const Tensor& g) {
        if (px->requires_grad) {
          accumulate_grad(*px, tensor::matmul(g, pw->value));
        }
        if (pw->requires_grad) {
          accumulate_grad(*pw, tensor::matmul_transpose_a(g, px->value));
        }
        if (pb->requires_grad) {
          const auto n = g.dim(0);
          const auto f = g.dim(1);
          Tensor gb({f}, 0.0F);
          for (std::int64_t i = 0; i < n; ++i) {
            const float* row = g.data() + i * f;
            for (std::int64_t j = 0; j < f; ++j) {
              gb[j] += row[j];
            }
          }
          accumulate_grad(*pb, gb);
        }
      });
}

Var conv2d(const Var& x, const Var& w, const Var& b, std::int64_t stride,
           std::int64_t padding) {
  const Tensor& vx = x.value();
  const Tensor& vw = w.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(vx.rank() == 4, "conv2d: x must be [N,C,H,W]");
  DP_REQUIRE(vw.rank() == 4, "conv2d: w must be [O,C,kh,kw]");
  DP_REQUIRE(stride >= 1 && padding >= 0, "conv2d: bad stride/padding");
  tensor::Conv2dGeometry geom;
  geom.in_channels = vx.dim(1);
  geom.in_h = vx.dim(2);
  geom.in_w = vx.dim(3);
  geom.kernel_h = vw.dim(2);
  geom.kernel_w = vw.dim(3);
  geom.stride = stride;
  geom.padding = padding;
  const auto batch = vx.dim(0);
  const auto out_ch = vw.dim(0);
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  Tensor out = tensor::conv2d(vx, vw, vb, geom);
  if (!graph_needed({&x, &w, &b})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pw = w.node();
  auto pb = b.node();
  Tensor w2d = vw.reshaped({out_ch, geom.patch_size()});
  return make_op_node(
      std::move(out), {x, w, b},
      [px, pw, pb, w2d = std::move(w2d), geom, batch, out_ch, oh,
       ow](const Tensor& g) {
        const auto n_out = oh * ow;
        const auto ncols = batch * n_out;
        // Gather g [N,O,OH,OW] into the GEMM layout [O, N*OH*OW] once; the
        // bias, weight, and input gradients all read it.
        Tensor gy2d({out_ch, ncols});
        const float* pg = g.data();
        float* pgy = gy2d.data();
        const auto grain = tensor::work_grain(ncols);
        tensor::parallel_for(
            0, out_ch,
            [&](std::int64_t o0, std::int64_t o1) {
              for (std::int64_t o = o0; o < o1; ++o) {
                for (std::int64_t n = 0; n < batch; ++n) {
                  const float* src = pg + (n * out_ch + o) * n_out;
                  std::copy(src, src + n_out, pgy + o * ncols + n * n_out);
                }
              }
            },
            grain);
        if (pb->requires_grad) {
          Tensor gb({out_ch}, 0.0F);
          float* pgb = gb.data();
          tensor::parallel_for(
              0, out_ch, [&](std::int64_t o0, std::int64_t o1) {
                for (std::int64_t o = o0; o < o1; ++o) {
                  // A local sum, stored once: neighbouring channels share
                  // a cache line across chunks.
                  const float* row = pgy + o * ncols;
                  float acc = 0.0F;
                  for (std::int64_t p = 0; p < ncols; ++p) {
                    acc += row[p];
                  }
                  pgb[o] = acc;
                }
              },
              grain);
          accumulate_grad(*pb, gb);
        }
        if (pw->requires_grad) {
          // gW2d = gy2d * cols^T over the whole batch in one GEMM; the
          // columns are unrolled here, not kept from the forward.
          Tensor gw2d =
              tensor::matmul_transpose_b(gy2d,
                                         tensor::im2col_batch(px->value, geom));
          accumulate_grad(*pw, gw2d.reshaped(pw->value.shape()));
        }
        if (px->requires_grad) {
          Tensor gcols = tensor::matmul_transpose_a(w2d, gy2d);
          accumulate_grad(*px, tensor::col2im_batch(gcols, geom, batch));
        }
      });
}

Var conv2d(const ConvInput& x, const Var& w, const Var& b, std::int64_t stride,
           std::int64_t padding, const ConvEpilogue& epilogue) {
  const Var* t = epilogue.channel_add;
  const Var* r = epilogue.residual;
  if (graph_needed({&x.x, &w, &b}) || (t != nullptr && graph_needed({t})) ||
      (r != nullptr && graph_needed({r}))) {
    DP_REQUIRE(!x.bordered, "conv2d: a bordered input has no graph");
    Var y = conv2d(x.x, w, b, stride, padding);
    if (t != nullptr) {
      y = add_spatial_broadcast(y, *t);
    }
    if (r != nullptr) {
      y = add(y, *r);
    }
    return y;
  }
  const Tensor& vw = w.value();
  DP_REQUIRE(vw.rank() == 4, "conv2d: w must be [O,C,kh,kw]");
  DP_REQUIRE(stride >= 1 && padding >= 0, "conv2d: bad stride/padding");
  const auto border = x.bordered ? 2 * padding : 0;
  const tensor::Conv2dGeometry geom{x.x.dim(1),         x.x.dim(2) - border,
                                    x.x.dim(3) - border, vw.dim(2),
                                    vw.dim(3),          stride,
                                    padding};
  return make_value_node(tensor::conv2d(
      x.x.value(), vw, b.value(), geom, x.bordered,
      {t != nullptr ? &t->value() : nullptr,
       r != nullptr ? &r->value() : nullptr}));
}

// ---- normalization ---------------------------------------------------------

namespace {

/// Groups whose moments one pair of multi-row kernel calls takes.
constexpr std::int64_t kMomentRows = 8;

/// Runs body(t, mean, istd) for each group t in [t0, t1) of `x`, whose
/// groups are `elems` consecutive floats. The moments go through the
/// table's multi-row kernels, kMomentRows groups at a time; each group's
/// sums keep their own canonical order, so the values do not depend on
/// how [t0, t1) is chunked.
template <typename Body>
void for_each_group(const tensor::simd::Kernels& kern, const float* x,
                    std::int64_t elems, std::int64_t t0, std::int64_t t1,
                    float eps, Body&& body) {
  double mean[kMomentRows];
  double acc[kMomentRows];
  for (std::int64_t b = t0; b < t1; b += kMomentRows) {
    const auto rows = std::min(kMomentRows, t1 - b);
    const float* src = x + b * elems;
    kern.sum(src, elems, rows, acc);
    for (std::int64_t r = 0; r < rows; ++r) {
      mean[r] = acc[r] / static_cast<double>(elems);
    }
    kern.sumsq_centered(src, mean, elems, rows, acc);
    for (std::int64_t r = 0; r < rows; ++r) {
      const double var = acc[r] / static_cast<double>(elems);
      body(b + r, mean[r], static_cast<float>(1.0 / std::sqrt(var + eps)));
    }
  }
}

void check_group_norm(const Var& x, const Var& gamma, const Var& beta,
                      std::int64_t groups) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "group_norm: expected [N,C,H,W]");
  const auto c = v.dim(1);
  DP_REQUIRE(groups >= 1 && c % groups == 0,
             "group_norm: groups must divide channels");
  DP_REQUIRE(gamma.value().rank() == 1 && gamma.value().dim(0) == c,
             "group_norm: gamma shape mismatch");
  DP_REQUIRE(beta.value().rank() == 1 && beta.value().dim(0) == c,
             "group_norm: beta shape mismatch");
}

}  // namespace

Var group_norm(const Var& x, const Var& gamma, const Var& beta,
               std::int64_t groups, float eps) {
  check_group_norm(x, gamma, beta, groups);
  const Tensor& v = x.value();
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto cg = c / groups;
  const auto plane = v.dim(2) * v.dim(3);
  const auto group_elems = cg * plane;

  // Inference keeps neither the normalized input nor the inverse standard
  // deviations: only the backward reads them.
  const bool graph = graph_needed({&x, &gamma, &beta});
  Tensor xhat = graph ? Tensor(v.shape()) : Tensor();
  Tensor inv_std = graph ? Tensor({n, groups}) : Tensor();
  Tensor out(v.shape());
  const float* gam = gamma.value().data();
  const float* bet = beta.value().data();
  const auto& kern = tensor::simd::active();
  // Tasks are (sample, group) pairs, whose elements are consecutive: the
  // mean/variance reductions and the normalize/affine loop run through the
  // dispatched kernels, whose canonical lane-split accumulation order is
  // fixed — the output is byte-identical for any thread count and any
  // backend.
  tensor::parallel_for(
      0, n * groups,
      [&](std::int64_t t0, std::int64_t t1) {
        for_each_group(kern, v.data(), group_elems, t0, t1, eps,
                       [&](std::int64_t t, double mean, float istd) {
                         if (graph) {
                           inv_std[t] = istd;
                         }
                         const auto g = t % groups;
                         for (std::int64_t cc = 0; cc < cg; ++cc) {
                           const auto ch = g * cg + cc;
                           const auto off = t * group_elems + cc * plane;
                           kern.normalize_affine(
                               v.data() + off, static_cast<float>(mean),
                               istd, gam[ch], bet[ch],
                               graph ? xhat.data() + off : nullptr,
                               out.data() + off, plane);
                         }
                       });
      },
      tensor::work_grain(group_elems));

  if (!graph) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pg = gamma.node();
  auto pb = beta.node();
  Tensor gamma_c = gamma.value();
  return make_op_node(
      std::move(out), {x, gamma, beta},
      [px, pg, pb, xhat = std::move(xhat), inv_std = std::move(inv_std),
       gamma_c = std::move(gamma_c), n, c, groups, cg, plane,
       group_elems](const Tensor& g) {
        if (pg->requires_grad || pb->requires_grad) {
          Tensor ggam({c}, 0.0F);
          Tensor gbet({c}, 0.0F);
          // Parallel over channels; each channel's sample-major accumulation
          // order matches the sequential loop exactly. The sums are local
          // and stored once: neighbouring channels share a cache line
          // across chunks.
          tensor::parallel_for(
              0, c,
              [&](std::int64_t c0, std::int64_t c1) {
                for (std::int64_t ch = c0; ch < c1; ++ch) {
                  float sg = 0.0F;
                  float sb = 0.0F;
                  for (std::int64_t i = 0; i < n; ++i) {
                    const float* grow = g.data() + (i * c + ch) * plane;
                    const float* xrow = xhat.data() + (i * c + ch) * plane;
                    for (std::int64_t p = 0; p < plane; ++p) {
                      sg += grow[p] * xrow[p];
                      sb += grow[p];
                    }
                  }
                  ggam[ch] = sg;
                  gbet[ch] = sb;
                }
              },
              tensor::work_grain(n * plane));
          if (pg->requires_grad) accumulate_grad(*pg, ggam);
          if (pb->requires_grad) accumulate_grad(*pb, gbet);
        }
        if (px->requires_grad) {
          Tensor gx(xhat.shape());
          tensor::parallel_for(
              0, n * groups,
              [&](std::int64_t t0, std::int64_t t1) {
                for (std::int64_t t = t0; t < t1; ++t) {
                  const auto i = t / groups;
                  const auto gr = t % groups;
                  const auto base = (i * c + gr * cg) * plane;
                  const float* grow = g.data() + base;
                  const float* xrow = xhat.data() + base;
                  // dxhat = dy * gamma (per channel)
                  double sum_dxhat = 0.0;
                  double sum_dxhat_xhat = 0.0;
                  for (std::int64_t cc = 0; cc < cg; ++cc) {
                    const float gam = gamma_c[gr * cg + cc];
                    for (std::int64_t p = 0; p < plane; ++p) {
                      const auto e = cc * plane + p;
                      const float dxh = grow[e] * gam;
                      sum_dxhat += dxh;
                      sum_dxhat_xhat += dxh * xrow[e];
                    }
                  }
                  const float m = static_cast<float>(group_elems);
                  const float istd = inv_std.at({i, gr});
                  const float mean_dxhat = static_cast<float>(sum_dxhat) / m;
                  const float mean_dxhat_xhat =
                      static_cast<float>(sum_dxhat_xhat) / m;
                  float* dst = gx.data() + base;
                  for (std::int64_t cc = 0; cc < cg; ++cc) {
                    const float gam = gamma_c[gr * cg + cc];
                    for (std::int64_t p = 0; p < plane; ++p) {
                      const auto e = cc * plane + p;
                      const float dxh = grow[e] * gam;
                      dst[e] = istd * (dxh - mean_dxhat -
                                       xrow[e] * mean_dxhat_xhat);
                    }
                  }
                }
              },
              tensor::work_grain(group_elems));
          accumulate_grad(*px, gx);
        }
      });
}

ConvInput group_norm_silu(const Var& x, const Var& gamma, const Var& beta,
                          std::int64_t groups, std::int64_t pad, float eps) {
  if (graph_needed({&x, &gamma, &beta})) {
    return silu(group_norm(x, gamma, beta, groups, eps));
  }
  check_group_norm(x, gamma, beta, groups);
  const Tensor& v = x.value();
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  const auto cg = c / groups;
  const auto plane = h * w;
  const auto group_elems = cg * plane;
  const tensor::Conv2dGeometry geom{.in_channels = c,
                                    .in_h = h,
                                    .in_w = w,
                                    .padding = pad};
  const bool bordered = NoGradGuard::active() && pad > 0;
  Tensor out = bordered ? tensor::bordered_input(n, geom) : Tensor(v.shape());
  const float* gam = gamma.value().data();
  const float* bet = beta.value().data();
  const auto& kern = tensor::simd::active();
  // group_norm's tasks and kernels, then the SiLU kernel over each block
  // of groups while it is in L1 (SiLU is elementwise, so the split does not
  // change its bytes), then the block's planes into the bordered input.
  const auto out_group = out.numel() / (n * groups);
  tensor::parallel_for(
      0, n * groups,
      [&](std::int64_t t0, std::int64_t t1) {
        thread_local std::vector<float> normed;  // One block; only grows.
        const auto block = kMomentRows * group_elems;
        if (normed.size() < static_cast<std::size_t>(block)) {
          normed.resize(static_cast<std::size_t>(block));
        }
        for (std::int64_t b = t0; b < t1; b += kMomentRows) {
          const auto b1 = std::min(t1, b + kMomentRows);
          float* y = bordered ? normed.data() : out.data() + b * group_elems;
          for_each_group(kern, v.data(), group_elems, b, b1, eps,
                         [&](std::int64_t t, double mean, float istd) {
                           const auto g = t % groups;
                           const auto off = (t - b) * group_elems;
                           for (std::int64_t cc = 0; cc < cg; ++cc) {
                             const auto ch = g * cg + cc;
                             kern.normalize_affine(
                                 v.data() + t * group_elems + cc * plane,
                                 static_cast<float>(mean), istd, gam[ch],
                                 bet[ch], nullptr, y + off + cc * plane, plane);
                           }
                         });
          kern.silu(y, y, (b1 - b) * group_elems);
          if (bordered) {
            tensor::write_bordered(y, (b1 - b) * cg, geom,
                                   out.data() + b * out_group);
          }
        }
      },
      tensor::work_grain(group_elems));
  return ConvInput(make_value_node(std::move(out)), bordered);
}

Var layer_norm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() >= 2, "layer_norm: rank must be >= 2");
  const auto f = v.dim(-1);
  const auto rows = v.numel() / f;
  DP_REQUIRE(gamma.value().rank() == 1 && gamma.value().dim(0) == f,
             "layer_norm: gamma shape mismatch");
  DP_REQUIRE(beta.value().rank() == 1 && beta.value().dim(0) == f,
             "layer_norm: beta shape mismatch");
  Tensor xhat(v.shape());
  Tensor inv_std({rows});
  Tensor out(v.shape());
  const float* gam = gamma.value().data();
  const float* bet = beta.value().data();
  const auto& kern = tensor::simd::active();
  // Row-parallel; each row's reductions run through the dispatched kernels
  // (canonical lane-split order, backend- and thread-invariant).
  tensor::parallel_for(
      0, rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for_each_group(kern, v.data(), f, r0, r1, eps,
                       [&](std::int64_t r, double mean, float istd) {
                         inv_std[r] = istd;
                         kern.normalize_affine_rows(
                             v.data() + r * f, static_cast<float>(mean),
                             istd, gam, bet, xhat.data() + r * f,
                             out.data() + r * f, f);
                       });
      },
      tensor::work_grain(f));
  if (!graph_needed({&x, &gamma, &beta})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pg = gamma.node();
  auto pb = beta.node();
  Tensor gamma_c = gamma.value();
  return make_op_node(
      std::move(out), {x, gamma, beta},
      [px, pg, pb, xhat = std::move(xhat), inv_std = std::move(inv_std),
       gamma_c = std::move(gamma_c), rows, f](const Tensor& g) {
        if (pg->requires_grad || pb->requires_grad) {
          Tensor ggam({f}, 0.0F);
          Tensor gbet({f}, 0.0F);
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* grow = g.data() + r * f;
            const float* xrow = xhat.data() + r * f;
            for (std::int64_t j = 0; j < f; ++j) {
              ggam[j] += grow[j] * xrow[j];
              gbet[j] += grow[j];
            }
          }
          if (pg->requires_grad) accumulate_grad(*pg, ggam);
          if (pb->requires_grad) accumulate_grad(*pb, gbet);
        }
        if (px->requires_grad) {
          Tensor gx(xhat.shape());
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* grow = g.data() + r * f;
            const float* xrow = xhat.data() + r * f;
            double sum_dxhat = 0.0;
            double sum_dxhat_xhat = 0.0;
            for (std::int64_t j = 0; j < f; ++j) {
              const float dxh = grow[j] * gamma_c[j];
              sum_dxhat += dxh;
              sum_dxhat_xhat += dxh * xrow[j];
            }
            const float istd = inv_std[r];
            const float mean_dxhat =
                static_cast<float>(sum_dxhat / static_cast<double>(f));
            const float mean_dxhat_xhat =
                static_cast<float>(sum_dxhat_xhat / static_cast<double>(f));
            float* dst = gx.data() + r * f;
            for (std::int64_t j = 0; j < f; ++j) {
              const float dxh = grow[j] * gamma_c[j];
              dst[j] = istd * (dxh - mean_dxhat - xrow[j] * mean_dxhat_xhat);
            }
          }
          accumulate_grad(*px, gx);
        }
      });
}

// ---- softmax / reductions ---------------------------------------------------

Var softmax_last(const Var& a) {
  const Tensor& v = a.value();
  DP_REQUIRE(v.rank() >= 1, "softmax_last: rank must be >= 1");
  const auto f = v.dim(-1);
  const auto rows = v.numel() / f;
  Tensor out = tensor::softmax_rows(v.reshaped({rows, f})).reshaped(v.shape());
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor y = out;
  return make_op_node(
      std::move(out), {a},
      [pa, y = std::move(y), rows, f](const Tensor& g) {
        Tensor d(y.shape());
        tensor::parallel_for(
            0, rows,
            [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t r = r0; r < r1; ++r) {
                const float* grow = g.data() + r * f;
                const float* yrow = y.data() + r * f;
                double dot = 0.0;
                for (std::int64_t j = 0; j < f; ++j) {
                  dot += grow[j] * yrow[j];
                }
                float* drow = d.data() + r * f;
                for (std::int64_t j = 0; j < f; ++j) {
                  drow[j] = yrow[j] * (grow[j] - static_cast<float>(dot));
                }
              }
            },
            tensor::work_grain(f));
        accumulate_grad(*pa, d);
      });
}

Var sum_all(const Var& a) {
  Tensor out = Tensor::scalar(static_cast<float>(tensor::sum(a.value())));
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Shape shape = a.value().shape();
  return make_op_node(std::move(out), {a},
                      [pa, shape = std::move(shape)](const Tensor& g) {
                        Tensor d(shape, g[0]);
                        accumulate_grad(*pa, d);
                      });
}

Var mean_all(const Var& a) {
  const auto n = a.numel();
  DP_REQUIRE(n > 0, "mean_all: empty tensor");
  return scale(sum_all(a), 1.0F / static_cast<float>(n));
}

// ---- resize -----------------------------------------------------------------

namespace {

/// One h x w plane upsampled 2x by nearest neighbour into the 2h rows of
/// 2w floats at dst, `pitch` floats apart.
void upsample_plane(const float* src, std::int64_t h, std::int64_t w,
                    float* dst, std::int64_t pitch) {
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t xx = 0; xx < w; ++xx) {
      const float val = src[y * w + xx];
      const auto base = (2 * y) * pitch + 2 * xx;
      dst[base] = val;
      dst[base + 1] = val;
      dst[base + pitch] = val;
      dst[base + pitch + 1] = val;
    }
  }
}

}  // namespace

Var upsample_nearest2(const Var& x) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "upsample_nearest2: expected [N,C,H,W]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  Tensor out({n, c, 2 * h, 2 * w});
  for (std::int64_t i = 0; i < n * c; ++i) {
    upsample_plane(v.data() + i * h * w, h, w, out.data() + i * 4 * h * w,
                   2 * w);
  }
  if (!graph_needed({&x})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  return make_op_node(std::move(out), {x}, [px, n, c, h, w](const Tensor& g) {
    Tensor d({n, c, h, w});
    for (std::int64_t i = 0; i < n * c; ++i) {
      const float* src = g.data() + i * 4 * h * w;
      float* dst = d.data() + i * h * w;
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t xx = 0; xx < w; ++xx) {
          const auto base = (2 * y) * (2 * w) + 2 * xx;
          dst[y * w + xx] = src[base] + src[base + 1] + src[base + 2 * w] +
                            src[base + 2 * w + 1];
        }
      }
    }
    accumulate_grad(*px, d);
  });
}

ConvInput upsample_nearest2(const Var& x, std::int64_t pad) {
  if (!NoGradGuard::active() || pad == 0) {
    return upsample_nearest2(x);
  }
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "upsample_nearest2: expected [N,C,H,W]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  Tensor out = tensor::bordered_input(
      n, {.in_channels = c, .in_h = 2 * h, .in_w = 2 * w, .padding = pad});
  const auto pitch = 2 * w + 2 * pad;
  const auto out_plane = (2 * h + 2 * pad) * pitch;
  for (std::int64_t i = 0; i < n * c; ++i) {
    upsample_plane(v.data() + i * h * w, h, w,
                   out.data() + i * out_plane + pad * pitch + pad, pitch);
  }
  return ConvInput(make_value_node(std::move(out)), true);
}

// ---- regularization / lookup -------------------------------------------------

Var dropout(const Var& x, float p, bool training, common::Rng& rng) {
  DP_REQUIRE(p >= 0.0F && p < 1.0F, "dropout: p must be in [0, 1)");
  if (!training || p == 0.0F) {
    return x;
  }
  const Tensor& v = x.value();
  Tensor mask(v.shape());
  const float keep_scale = 1.0F / (1.0F - p);
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.bernoulli(static_cast<double>(p)) ? 0.0F : keep_scale;
  }
  Tensor out = tensor::mul(v, mask);
  if (!graph_needed({&x})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  return make_op_node(std::move(out), {x},
                      [px, mask = std::move(mask)](const Tensor& g) {
                        accumulate_grad(*px, tensor::mul(g, mask));
                      });
}

Var embedding_lookup(const Var& table, const std::vector<std::int64_t>& ids) {
  const Tensor& v = table.value();
  DP_REQUIRE(v.rank() == 2, "embedding_lookup: table must be [V,D]");
  const auto vocab = v.dim(0);
  const auto d = v.dim(1);
  const auto t = static_cast<std::int64_t>(ids.size());
  Tensor out({t, d});
  for (std::int64_t i = 0; i < t; ++i) {
    const auto id = ids[static_cast<std::size_t>(i)];
    DP_REQUIRE(id >= 0 && id < vocab, "embedding_lookup: id out of range");
    std::copy(v.data() + id * d, v.data() + (id + 1) * d, out.data() + i * d);
  }
  if (!graph_needed({&table})) {
    return make_value_node(std::move(out));
  }
  auto pt = table.node();
  std::vector<std::int64_t> ids_copy = ids;
  return make_op_node(
      std::move(out), {table},
      [pt, ids_copy = std::move(ids_copy), vocab, d](const Tensor& g) {
        Tensor gt({vocab, d}, 0.0F);
        for (std::size_t i = 0; i < ids_copy.size(); ++i) {
          const auto id = ids_copy[i];
          const float* src = g.data() + static_cast<std::int64_t>(i) * d;
          float* dst = gt.data() + id * d;
          for (std::int64_t j = 0; j < d; ++j) {
            dst[j] += src[j];
          }
        }
        accumulate_grad(*pt, gt);
      });
}

}  // namespace diffpattern::nn
