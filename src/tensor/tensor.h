// Dense row-major float32 tensor.
//
// This is the numeric substrate for the neural-network stack (src/nn). It is
// deliberately simple: contiguous storage, value semantics, bounds-checked
// accessors, and a handful of shape utilities. All differentiable operations
// live in src/nn; the raw kernels (GEMM, im2col, reductions) live in
// tensor_ops.h.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace diffpattern::tensor {

using Shape = std::vector<std::int64_t>;

class Tensor {
 public:
  /// Empty (rank-0, zero-element) tensor.
  Tensor() = default;

  /// Tensor of the given shape, filled with `fill`.
  explicit Tensor(Shape shape, float fill = 0.0F);

  // Storage routes through the thread-local ActivationArena (arena.h) when
  // one is active: construction/growth acquires a recycled buffer,
  // destruction donates the buffer back. Outside a scope these are the
  // plain vector operations they always were. Moves just steal.
  ~Tensor();
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept;

  /// Adopts `data`, which must have exactly the number of elements implied
  /// by `shape`.
  static Tensor from_data(Shape shape, std::vector<float> data);

  /// Scalar (rank-1, single-element) convenience constructor.
  static Tensor scalar(float value);

  const Shape& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t axis) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const std::vector<float>& storage() const { return data_; }

  /// Bounds-checked multi-dimensional access.
  float& at(std::initializer_list<std::int64_t> index);
  float at(std::initializer_list<std::int64_t> index) const;

  /// Unchecked flat access (hot paths).
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Returns a copy with a new shape; element count must match. A dimension
  /// of -1 (at most one) is inferred.
  Tensor reshaped(Shape new_shape) const;

  void fill(float value);

  /// True iff shapes are equal element-wise.
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string shape_string() const;

 private:
  std::int64_t flat_index(std::initializer_list<std::int64_t> index) const;

  Shape shape_;
  std::vector<float> data_;
};

/// Process-wide tensor-storage allocation telemetry (relaxed atomics).
/// heap_allocations counts every storage materialization that reached the
/// heap (constructions, copies, growth, from_data adoptions); pool_reuses
/// counts storages served by an active ActivationArena instead. The
/// steady-state zero-allocation regression test asserts heap_allocations
/// stays flat across denoising rounds with the arena on. Node/closure
/// bookkeeping in nn/ is not storage and is not counted here.
struct AllocStats {
  std::int64_t heap_allocations = 0;
  std::int64_t heap_bytes = 0;
  std::int64_t pool_reuses = 0;
};
AllocStats tensor_alloc_stats();

/// Number of elements implied by a shape (product of dimensions).
std::int64_t shape_numel(const Shape& shape);

std::string shape_to_string(const Shape& shape);

}  // namespace diffpattern::tensor
