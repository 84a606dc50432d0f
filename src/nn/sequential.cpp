#include "nn/sequential.hpp"

#include <stdexcept>

#include "nn/activations.hpp"

namespace remapd {

// ---------------------------------------------------------------- Sequential

Layer* Sequential::add(LayerPtr layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur, train);
  return cur;
}

Tensor Sequential::backward(const Tensor& dy) {
  Tensor cur = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_)
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

void Sequential::visit(const std::function<void(Layer&)>& fn) {
  fn(*this);
  for (auto& l : layers_) l->visit(fn);
}

// ------------------------------------------------------------ ResidualBlock

ResidualBlock::ResidualBlock(std::size_t in_channels,
                             std::size_t out_channels, std::size_t stride,
                             Rng& rng, std::string tag)
    : tag_(tag),
      conv1_(in_channels, out_channels, 3, stride, 1, rng, tag + ".conv1"),
      bn1_(out_channels, 0.1f, 1e-5f, tag + ".bn1"),
      conv2_(out_channels, out_channels, 3, 1, 1, rng, tag + ".conv2"),
      bn2_(out_channels, 0.1f, 1e-5f, tag + ".bn2") {
  if (stride != 1 || in_channels != out_channels) {
    proj_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0,
                                     rng, tag + ".proj");
    proj_bn_ = std::make_unique<BatchNorm>(out_channels, 0.1f, 1e-5f,
                                           tag + ".proj_bn");
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor main = bn1_.forward(conv1_.forward(x, train), train);
  relu_inplace(main, train ? &relu1_mask_ : nullptr);
  main = bn2_.forward(conv2_.forward(main, train), train);

  // Without a projection the skip path is x itself, read in place.
  Tensor projected;
  if (proj_) projected = proj_bn_->forward(proj_->forward(x, train), train);
  const Tensor& skip = proj_ ? projected : x;
  if (!(skip.shape() == main.shape()))
    throw std::logic_error(tag_ + ": skip/main shape mismatch");
  main.add_(skip);
  relu_inplace(main, train ? &out_mask_ : nullptr);
  return main;
}

Tensor ResidualBlock::backward(const Tensor& dy) {
  if (out_mask_.empty())
    throw std::logic_error(tag_ + ": backward before forward");
  Tensor d = dy;
  relu_backward_inplace(d, out_mask_);

  // Skip path gradient; without a projection it is d itself, read in
  // place (nothing below writes d).
  Tensor projected;
  if (proj_) projected = proj_->backward(proj_bn_->backward(d));
  const Tensor& dskip = proj_ ? projected : d;

  // Main path gradient.
  Tensor dmain = conv2_.backward(bn2_.backward(d));
  relu_backward_inplace(dmain, relu1_mask_);
  dmain = conv1_.backward(bn1_.backward(dmain));

  dmain.add_(dskip);
  return dmain;
}

std::vector<Param*> ResidualBlock::params() {
  std::vector<Param*> out;
  for (Param* p : conv1_.params()) out.push_back(p);
  for (Param* p : bn1_.params()) out.push_back(p);
  for (Param* p : conv2_.params()) out.push_back(p);
  for (Param* p : bn2_.params()) out.push_back(p);
  if (proj_) {
    for (Param* p : proj_->params()) out.push_back(p);
    for (Param* p : proj_bn_->params()) out.push_back(p);
  }
  return out;
}

void ResidualBlock::visit(const std::function<void(Layer&)>& fn) {
  fn(*this);
  conv1_.visit(fn);
  bn1_.visit(fn);
  conv2_.visit(fn);
  bn2_.visit(fn);
  if (proj_) {
    proj_->visit(fn);
    proj_bn_->visit(fn);
  }
}

std::vector<FaultableLayer*> ResidualBlock::faultable() {
  std::vector<FaultableLayer*> out{&conv1_, &conv2_};
  if (proj_) out.push_back(proj_.get());
  return out;
}

std::vector<Layer*> ResidualBlock::conv_layers() {
  std::vector<Layer*> out{&conv1_, &conv2_};
  if (proj_) out.push_back(proj_.get());
  return out;
}

// --------------------------------------------------------------- FireModule

FireModule::FireModule(std::size_t in_channels, std::size_t squeeze,
                       std::size_t expand1, std::size_t expand3, Rng& rng,
                       std::string tag)
    : tag_(tag), e1_(expand1), e3_(expand3),
      squeeze_(in_channels, squeeze, 1, 1, 0, rng, tag + ".squeeze"),
      sq_bn_(squeeze, 0.1f, 1e-5f, tag + ".sq_bn"),
      expand1_(squeeze, expand1, 1, 1, 0, rng, tag + ".expand1"),
      e1_bn_(expand1, 0.1f, 1e-5f, tag + ".e1_bn"),
      expand3_(squeeze, expand3, 3, 1, 1, rng, tag + ".expand3"),
      e3_bn_(expand3, 0.1f, 1e-5f, tag + ".e3_bn") {}

Tensor FireModule::forward(const Tensor& x, bool train) {
  Tensor s = sq_bn_.forward(squeeze_.forward(x, train), train);
  relu_inplace(s, train ? &sq_mask_ : nullptr);

  Tensor a = e1_bn_.forward(expand1_.forward(s, train), train);
  Tensor b = e3_bn_.forward(expand3_.forward(s, train), train);
  if (train) {
    e1_shape_ = a.shape();
    e3_shape_ = b.shape();
  }
  relu_inplace(a, train ? &e1_mask_ : nullptr);
  relu_inplace(b, train ? &e3_mask_ : nullptr);

  // Channel concatenation.
  const std::size_t n = a.shape()[0];
  const std::size_t h = a.shape()[2], w = a.shape()[3];
  Tensor y(Shape{n, e1_ + e3_, h, w});
  const std::size_t hw = h * w;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < e1_; ++c)
      for (std::size_t p = 0; p < hw; ++p)
        y.data()[((i * (e1_ + e3_) + c) * hw) + p] =
            a.data()[(i * e1_ + c) * hw + p];
    for (std::size_t c = 0; c < e3_; ++c)
      for (std::size_t p = 0; p < hw; ++p)
        y.data()[((i * (e1_ + e3_) + e1_ + c) * hw) + p] =
            b.data()[(i * e3_ + c) * hw + p];
  }
  return y;
}

Tensor FireModule::backward(const Tensor& dy) {
  if (sq_mask_.empty())
    throw std::logic_error(tag_ + ": backward before forward");
  const std::size_t n = dy.shape()[0];
  const std::size_t h = dy.shape()[2], w = dy.shape()[3];
  const std::size_t hw = h * w;

  // Split channel gradient.
  Tensor da(e1_shape_), db(e3_shape_);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < e1_; ++c)
      for (std::size_t p = 0; p < hw; ++p)
        da.data()[(i * e1_ + c) * hw + p] =
            dy.data()[((i * (e1_ + e3_) + c) * hw) + p];
    for (std::size_t c = 0; c < e3_; ++c)
      for (std::size_t p = 0; p < hw; ++p)
        db.data()[(i * e3_ + c) * hw + p] =
            dy.data()[((i * (e1_ + e3_) + e1_ + c) * hw) + p];
  }
  relu_backward_inplace(da, e1_mask_);
  relu_backward_inplace(db, e3_mask_);

  Tensor ds = expand1_.backward(e1_bn_.backward(da));
  ds.add_(expand3_.backward(e3_bn_.backward(db)));
  relu_backward_inplace(ds, sq_mask_);
  return squeeze_.backward(sq_bn_.backward(ds));
}

std::vector<Param*> FireModule::params() {
  std::vector<Param*> out;
  for (Param* p : squeeze_.params()) out.push_back(p);
  for (Param* p : sq_bn_.params()) out.push_back(p);
  for (Param* p : expand1_.params()) out.push_back(p);
  for (Param* p : e1_bn_.params()) out.push_back(p);
  for (Param* p : expand3_.params()) out.push_back(p);
  for (Param* p : e3_bn_.params()) out.push_back(p);
  return out;
}

void FireModule::visit(const std::function<void(Layer&)>& fn) {
  fn(*this);
  squeeze_.visit(fn);
  sq_bn_.visit(fn);
  expand1_.visit(fn);
  e1_bn_.visit(fn);
  expand3_.visit(fn);
  e3_bn_.visit(fn);
}

std::vector<FaultableLayer*> FireModule::faultable() {
  return {&squeeze_, &expand1_, &expand3_};
}

std::vector<Layer*> FireModule::conv_layers() {
  return {&squeeze_, &expand1_, &expand3_};
}

// --------------------------------------------------------- collect_faultable

std::vector<FaultableLayer*> collect_faultable(Layer& root) {
  std::vector<FaultableLayer*> out;
  if (auto* f = dynamic_cast<FaultableLayer*>(&root)) {
    out.push_back(f);
    return out;
  }
  if (auto* seq = dynamic_cast<Sequential*>(&root)) {
    for (const auto& child : seq->children())
      for (FaultableLayer* f : collect_faultable(*child)) out.push_back(f);
    return out;
  }
  if (auto* rb = dynamic_cast<ResidualBlock*>(&root)) return rb->faultable();
  if (auto* fm = dynamic_cast<FireModule*>(&root)) return fm->faultable();
  return out;
}

}  // namespace remapd
