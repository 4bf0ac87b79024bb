#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/contracts.h"
#include "tensor/arena.h"

namespace diffpattern::tensor {

namespace {

std::atomic<std::int64_t> g_heap_allocations{0};

void note_heap_alloc() {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
}

/// Leaves `dst` empty with capacity >= n, recycled from the active arena
/// when possible. Callers must pass `dst` empty (or donate its old storage
/// first via release_storage) so nothing is freed behind the arena's back.
void acquire_storage(std::vector<float>& dst, std::size_t n) {
  ActivationArena* arena = ArenaScope::current();
  if (arena != nullptr && n > 0) {
    if (!arena->acquire(dst, n)) {
      note_heap_alloc();
    }
    return;
  }
  dst.clear();
  if (dst.capacity() < n) {
    std::vector<float>().swap(dst);  // Old storage is stale; skip the copy.
    dst.reserve(n);
    note_heap_alloc();
  }
}

/// Donates `buf`'s storage to the active arena (leaving it empty); without
/// a scope the storage stays put for the caller to reuse or free normally.
void release_storage(std::vector<float>& buf) {
  if (buf.capacity() == 0) {
    return;
  }
  if (ActivationArena* arena = ArenaScope::current()) {
    arena->release(std::move(buf));
  }
}

}  // namespace

AllocStats tensor_alloc_stats() {
  AllocStats s;
  s.heap_allocations = g_heap_allocations.load(std::memory_order_relaxed);
  return s;
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    DP_REQUIRE(d >= 0, "shape_numel: negative dimension");
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) {
      out << ", ";
    }
    out << shape[i];
  }
  out << ']';
  return out.str();
}

Tensor::Tensor(Shape shape, float fill) : shape_(std::move(shape)) {
  const auto n = static_cast<std::size_t>(shape_numel(shape_));
  acquire_storage(data_, n);
  data_.assign(n, fill);
}

Tensor::~Tensor() { release_storage(data_); }

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  acquire_storage(data_, other.data_.size());
  data_.assign(other.data_.begin(), other.data_.end());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) {
    return *this;
  }
  shape_ = other.shape_;
  const auto n = other.data_.size();
  if (data_.capacity() < n) {
    release_storage(data_);
    acquire_storage(data_, n);
  }
  data_.assign(other.data_.begin(), other.data_.end());
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    release_storage(data_);
    data_ = std::move(other.data_);
    shape_ = std::move(other.shape_);
  }
  return *this;
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data) {
  DP_REQUIRE(shape_numel(shape) == static_cast<std::int64_t>(data.size()),
             "from_data: shape " + shape_to_string(shape) +
                 " does not match data size " + std::to_string(data.size()));
  if (data.capacity() > 0) {
    note_heap_alloc();  // Adopted storage is heap storage.
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data);
  return t;
}

Tensor Tensor::scalar(float value) {
  return from_data({1}, {value});
}

std::int64_t Tensor::dim(std::int64_t axis) const {
  if (axis < 0) {
    axis += rank();
  }
  DP_REQUIRE(axis >= 0 && axis < rank(), "dim: axis out of range");
  return shape_[static_cast<std::size_t>(axis)];
}

std::int64_t Tensor::flat_index(
    std::initializer_list<std::int64_t> index) const {
  DP_REQUIRE(static_cast<std::int64_t>(index.size()) == rank(),
             "at: index rank mismatch for shape " + shape_string());
  std::int64_t flat = 0;
  std::size_t axis = 0;
  for (const auto i : index) {
    const auto d = shape_[axis];
    DP_REQUIRE(i >= 0 && i < d, "at: index out of bounds on axis " +
                                    std::to_string(axis));
    flat = flat * d + i;
    ++axis;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::int64_t> index) {
  return data_[static_cast<std::size_t>(flat_index(index))];
}

float Tensor::at(std::initializer_list<std::int64_t> index) const {
  return data_[static_cast<std::size_t>(flat_index(index))];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  std::int64_t known = 1;
  std::int64_t infer_axis = -1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      DP_REQUIRE(infer_axis == -1, "reshaped: more than one inferred axis");
      infer_axis = static_cast<std::int64_t>(i);
    } else {
      DP_REQUIRE(new_shape[i] >= 0, "reshaped: negative dimension");
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    DP_REQUIRE(known > 0 && numel() % known == 0,
               "reshaped: cannot infer axis for shape " +
                   shape_to_string(new_shape));
    new_shape[static_cast<std::size_t>(infer_axis)] = numel() / known;
  }
  DP_REQUIRE(shape_numel(new_shape) == numel(),
             "reshaped: element count mismatch " + shape_string() + " -> " +
                 shape_to_string(new_shape));
  Tensor t(*this);  // Arena-aware storage copy.
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Tensor::shape_string() const {
  return shape_to_string(shape_);
}

}  // namespace diffpattern::tensor
