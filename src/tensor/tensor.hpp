// Dense row-major float tensor, the numeric workhorse of the CNN training
// substrate. Supports up to 4 dimensions (N, C, H, W) which is all the model
// zoo needs; rank-2 tensors double as matrices for the crossbar mapper.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "util/rng.hpp"

namespace remapd {

/// Shape of a tensor: 1 to 4 dimensions.
struct Shape {
  std::vector<std::size_t> dims;

  Shape() = default;
  Shape(std::initializer_list<std::size_t> d) : dims(d) {}
  explicit Shape(std::vector<std::size_t> d) : dims(std::move(d)) {}

  [[nodiscard]] std::size_t rank() const { return dims.size(); }
  [[nodiscard]] std::size_t numel() const;
  [[nodiscard]] std::size_t operator[](std::size_t i) const { return dims[i]; }
  bool operator==(const Shape& o) const { return dims == o.dims; }
  [[nodiscard]] std::string str() const;
};

/// std::allocator that default-initializes: a resize() or sized
/// construction leaves floats unwritten instead of value-filling them.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  // Construction with arguments (a fill value, a copy) falls through to
  // std::allocator_traits' default.
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// Owning dense float tensor. Copyable (deep) and movable.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  /// i.i.d. N(0, stddev) entries.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// Kaiming/He normal initialization for a layer with `fan_in` inputs.
  static Tensor kaiming(Shape shape, std::size_t fan_in, Rng& rng);
  static Tensor from_vector(Shape shape, const std::vector<float>& values);
  /// A tensor whose elements are not written: for an output its producer
  /// overwrites in full. Sanitizer (ASan) builds fill it with quiet NaN, so
  /// a read before the write turns the result non-finite there.
  static Tensor uninitialized(Shape shape);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (rank must be 2).
  float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;
  /// 4-D access (rank must be 4).
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  [[nodiscard]] float at(std::size_t n, std::size_t c, std::size_t h,
                         std::size_t w) const;

  /// Reinterpret with a new shape of identical numel (no copy).
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;

  void fill(float v);
  /// this += other (shapes must match).
  void add_(const Tensor& other);
  /// this += alpha * other.
  void axpy_(float alpha, const Tensor& other);
  /// this *= alpha.
  void scale_(float alpha);

  [[nodiscard]] float sum() const;
  [[nodiscard]] float abs_max() const;
  /// Index of maximum element (first on ties).
  [[nodiscard]] std::size_t argmax() const;

  /// Rank-2 transpose copy.
  [[nodiscard]] Tensor transposed() const;

 private:
  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

/// Max |a[i] - b[i]|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// Checkpoint helpers: shape (rank + dims) followed by the raw IEEE-754
/// float payload. load_tensor_into restores into an existing tensor and
/// throws ckpt::CheckpointError when the stored shape does not match —
/// the checkpoint layer's guard against loading a foreign blob.
void save_tensor(ckpt::ByteWriter& w, const Tensor& t);
Tensor load_tensor(ckpt::ByteReader& r);
void load_tensor_into(ckpt::ByteReader& r, Tensor& t);

}  // namespace remapd
