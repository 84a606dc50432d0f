#include "tensor/tensor.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace remapd {

std::size_t Shape::numel() const {
  std::size_t n = 1;
  for (std::size_t d : dims) n *= d;
  return dims.empty() ? 0 : n;
}

std::string Shape::str() const {
  std::string s = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) s += "x";
    s += std::to_string(dims[i]);
  }
  return s + "]";
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_.numel(), fill) {}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::kaiming(Shape shape, std::size_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in ? fan_in : 1));
  return randn(std::move(shape), rng, static_cast<float>(stddev));
}

Tensor Tensor::from_vector(Shape shape, const std::vector<float>& values) {
  if (shape.numel() != values.size())
    throw std::invalid_argument("Tensor::from_vector: size mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(values.begin(), values.end());
  return t;
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.resize(t.shape_.numel());
#ifdef __SANITIZE_ADDRESS__
  t.fill(std::numeric_limits<float>::quiet_NaN());
#endif
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  return data_[r * shape_[1] + c];
}
float Tensor::at(std::size_t r, std::size_t c) const {
  return data_[r * shape_[1] + c];
}

float& Tensor::at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}
float Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                 std::size_t w) const {
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (new_shape.numel() != numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " +
                                shape_.str() + " -> " + new_shape.str());
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

// Elementwise updates: each element depends only on its own index, so the
// loops run under `omp simd`.
void Tensor::add_(const Tensor& other) {
  if (!(shape_ == other.shape_))
    throw std::invalid_argument("Tensor::add_: shape mismatch");
  float* __restrict a = data_.data();
  const float* __restrict b = other.data_.data();
  const std::size_t n = data_.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
}

void Tensor::axpy_(float alpha, const Tensor& other) {
  if (!(shape_ == other.shape_))
    throw std::invalid_argument("Tensor::axpy_: shape mismatch");
  float* __restrict a = data_.data();
  const float* __restrict b = other.data_.data();
  const std::size_t n = data_.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) a[i] += alpha * b[i];
}

void Tensor::scale_(float alpha) {
  float* __restrict a = data_.data();
  const std::size_t n = data_.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) a[i] *= alpha;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::abs(x));
  return m;
}

std::size_t Tensor::argmax() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < data_.size(); ++i)
    if (data_[i] > data_[best]) best = i;
  return best;
}

Tensor Tensor::transposed() const {
  if (shape_.rank() != 2)
    throw std::invalid_argument("Tensor::transposed: rank must be 2");
  const std::size_t rows = shape_[0], cols = shape_[1];
  Tensor t(Shape{cols, rows});
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) t.at(c, r) = at(r, c);
  return t;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape()))
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  float m = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

void save_tensor(ckpt::ByteWriter& w, const Tensor& t) {
  w.u64(t.shape().rank());
  for (std::size_t d = 0; d < t.shape().rank(); ++d) w.u64(t.shape()[d]);
  w.f32_array(t.data(), t.numel());
}

namespace {

Shape read_shape(ckpt::ByteReader& r) {
  const std::uint64_t rank = r.u64();
  if (rank > 4)
    throw ckpt::CheckpointError("tensor rank " + std::to_string(rank) +
                                " out of range");
  std::vector<std::size_t> dims(static_cast<std::size_t>(rank));
  for (auto& d : dims) d = static_cast<std::size_t>(r.u64());
  return Shape(std::move(dims));
}

}  // namespace

Tensor load_tensor(ckpt::ByteReader& r) {
  Tensor t(read_shape(r));
  r.f32_array(t.data(), t.numel());
  return t;
}

void load_tensor_into(ckpt::ByteReader& r, Tensor& t) {
  const Shape s = read_shape(r);
  if (!(s == t.shape()))
    throw ckpt::CheckpointError("tensor shape mismatch: stored " + s.str() +
                                ", expected " + t.shape().str());
  r.f32_array(t.data(), t.numel());
}

}  // namespace remapd
