#include "nn/conv2d.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "util/parallel.hpp"

namespace remapd {
namespace {

std::atomic<std::uint64_t> g_conv_scratch_allocs{0};

// Per-thread block panels, shared by every layer and call (workers
// persist, so they stop growing once the largest block has been seen).
// t_in holds a block's gathered dy (the dX GEMM's B operand), t_out its
// GEMM output (y panel, dcol panel), t_pad a block's zero-padded images
// (eval input, or one sample's dx in backward), t_qpad the int8 path's
// quantized copy of a block's padded images. t_partials holds the calling
// thread's dW/db partials for one backward wave.
thread_local ConvScratch t_in, t_out, t_pad, t_partials;
thread_local ConvScratchOf<std::uint8_t> t_qpad;

// Eval-mode offset tables, per thread for the same reason as the panels
// below; rebuilt only when the geometry changes.
thread_local ConvOffsets t_eval_offsets;

// Eval-mode weight panels. Eval forwards may run concurrently on several
// threads, so they cannot share the layer's members; a thread runs one
// layer call at a time, so one panel per thread serves every layer.
thread_local GemmAPack t_eval_pack;
thread_local Int8APack t_eval_i8;

/// Fewest GEMM columns a sample block spans. Deep layers have tiny OH*OW
/// (4 at stage 3), so one sample fills a quarter of the micro-kernel's
/// 16 lanes; a block of samples fills whole strips.
constexpr std::size_t kMinBlockCols = 64;

/// Workers a layer call can use: a call made inside a parallel region
/// (eval batches run concurrently) executes its loops inline.
std::size_t usable_threads() {
  return in_parallel_region() ? 1 : parallel_threads();
}

/// Samples per block: at least kMinBlockCols GEMM columns, capped so the
/// batch still splits into at least one block per usable thread. Forward
/// and dX results do not depend on it — each output element's
/// accumulation order is a function of the depth only (DESIGN §13).
std::size_t sample_block(std::size_t n, std::size_t cc) {
  const std::size_t want = (kMinBlockCols + cc - 1) / cc;
  const std::size_t cap = std::max<std::size_t>(1, n / usable_threads());
  return std::max<std::size_t>(1, std::min(want, cap));
}

/// Build `o` for `g`, counting a storage growth as a conv scratch
/// allocation.
const ConvOffsets& offsets_for(ConvOffsets& o, const ConvGeom& g) {
  if (o.build(g))
    g_conv_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
  return o;
}

ConvOperand conv_operand(const float* img, const ConvGeom& g,
                         const ConvOffsets& o, bool transposed) {
  return ConvOperand{img,
                     g.padded_size(),
                     o.row_off.data(),
                     o.col_off.data(),
                     g.col_cols(),
                     transposed};
}

}  // namespace

template <class T>
T* ConvScratchOf<T>::ensure(std::size_t n) {
  if (buf.size() < n) {
    // Free first, then allocate exactly n: the contents are scratch, and
    // growing in place would copy them and over-allocate, raising peak RSS.
    buf = std::vector<T>();
    buf.resize(n);
    g_conv_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return buf.data();
}
template struct ConvScratchOf<float>;
template struct ConvScratchOf<std::uint8_t>;

std::uint64_t conv_scratch_allocations() {
  return g_conv_scratch_allocs.load(std::memory_order_relaxed);
}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               Rng& rng, std::string tag)
    : in_ch_(in_channels), out_ch_(out_channels), kernel_(kernel),
      stride_(stride), pad_(pad),
      weight_(Tensor::kaiming(Shape{out_channels,
                                    in_channels * kernel * kernel},
                              in_channels * kernel * kernel, rng),
              tag + ".weight"),
      bias_(Tensor::zeros(Shape{out_channels}), tag + ".bias"),
      tag_(std::move(tag)) {}

void Conv2d::set_fault_views(FaultView forward_view, FaultView backward_view) {
  fwd_view_ = std::move(forward_view);
  bwd_view_ = std::move(backward_view);
}

void Conv2d::clear_fault_views() {
  fwd_view_.reset();
  bwd_view_.reset();
}

const Tensor& Conv2d::effective_weights(const std::optional<FaultView>& view,
                                        Tensor& cache) const {
  if (!view || view->empty()) return weight_.value;
  if (cache.numel() != weight_.value.numel())
    cache = Tensor::zeros(weight_.value.shape());
  view->apply(weight_.value.data(), cache.data(), weight_.value.numel());
  return cache;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.shape().rank() != 4 || x.shape()[1] != in_ch_)
    throw std::invalid_argument(tag_ + ": bad input shape " + x.shape().str());
  const std::size_t n = x.shape()[0];
  const ConvGeom g{in_ch_, x.shape()[2], x.shape()[3],
                   kernel_, kernel_, stride_, pad_};
  const std::size_t cr = g.col_rows(), cc = g.col_cols();
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t in_plane = in_ch_ * g.height * g.width;

  Tensor y(Shape{n, out_ch_, oh, ow});
  // Eval-mode forwards may run concurrently (parallel test-set batches), so
  // the clamped-weight cache member and the packed panel member are only
  // written on the single-threaded training path; eval uses a call-local
  // weight cache and per-thread panels.
  Tensor local_eff;
  const Tensor& we =
      effective_weights(fwd_view_, train ? fwd_eff_ : local_eff);

  // Fused path: pack the effective-weight panel once, reuse it across every
  // block's GEMM. Packing does not change the arithmetic: multiply()
  // performs exactly gemm()'s FP operations, and a non-finite effective
  // weight (diverged or full-scale-stuck cell) still reaches C as
  // 0 * NaN/Inf = NaN — the products are always issued, so the
  // ZeroSkipGate contract (sparsity must never mask NaN/Inf) holds by
  // construction.
  const bool int8 = fwd_view_ && fwd_view_->int8_selected();
  GemmAPack& wpack = train ? fwd_pack_ : t_eval_pack;
  Int8APack& wi8 = train ? fwd_i8_ : t_eval_i8;
  if (int8) {
    wi8.pack(out_ch_, cr, StridedOperand{we.data(), cr, 1},
             fwd_view_->int8_weight_scale());
    telemetry::count("nn.conv.int8_flops", 2ull * out_ch_ * cc * cr * n);
    telemetry::count("nn.conv.int8_fallbacks", 0);  // visible at zero
  } else {
    wpack.pack(out_ch_, cr, 1.0f, StridedOperand{we.data(), cr, 1});
    // Fused multiplies bypass gemm()'s counters; account for them here so
    // the flops trajectory stays complete.
    telemetry::count("nn.conv.fused_flops", 2ull * out_ch_ * cc * cr * n);
  }

  // Sample blocks: each block's samples sit side by side as one
  // cr x (bn*cc) B operand, so one GEMM covers the whole block. Both paths
  // pack that operand straight from the zero-padded images through the
  // offset tables (implicit GEMM): the fp32 strips hold exactly the floats
  // an im2col panel would, the int8 strips exactly its quantized bytes,
  // with one activation scale per sample. Blocks write disjoint y slices,
  // so the loop parallelizes freely; an output element's accumulation
  // depends only on the depth cr (fp32) or is an exact integer sum (int8),
  // so y is bitwise the per-sample result at any block size.
  const std::size_t bs = sample_block(n, cc);
  const std::size_t psz = g.padded_size();
  const ConvOffsets& offs = offsets_for(train ? offsets_ : t_eval_offsets, g);
  const bool dense = g.reads_every_pixel();
  float* train_padded = train ? last_padded_.ensure(n * psz) : nullptr;
  parallel_for_blocks(0, n, bs,
                      [&](std::size_t s0, std::size_t s1, std::size_t) {
    const std::size_t ld = (s1 - s0) * cc;
    // A one-sample panel already has y's layout: write it in place.
    float* yp = s1 - s0 == 1 ? y.data() + s0 * out_ch_ * cc
                             : t_out.ensure(out_ch_ * ld);
    // Training keeps the padded input for dW.
    float* padded =
        train ? train_padded + s0 * psz : t_pad.ensure((s1 - s0) * psz);
    for (std::size_t i = s0; i < s1; ++i)
      pad_image(x.data() + i * in_plane, g, padded + (i - s0) * psz);
    if (int8) {
      std::uint8_t* bytes = t_qpad.ensure((s1 - s0) * psz);
      if (!wi8.multiply(ld,
                        Int8ConvOperand{conv_operand(padded, g, offs, false),
                                        dense, bytes},
                        yp, ld)) {
        // A sample with non-finite activations refused the block. Rerun
        // it per sample: the finite samples stay int8 (bitwise the block
        // result), each refusing one takes the fp32 route alone, so
        // divergence is never clamped away by quantization.
        for (std::size_t i = s0; i < s1; ++i) {
          const ConvOperand one = conv_operand(padded + (i - s0) * psz, g,
                                               offs, false);
          float* yi = yp + (i - s0) * cc;
          if (!wi8.multiply(cc, Int8ConvOperand{one, dense, bytes}, yi, ld)) {
            telemetry::count("nn.conv.int8_fallbacks");
            gemm(false, out_ch_, cc, cr, 1.0f, we.data(), cr, one, 0.0f, yi,
                 ld);
          }
        }
      }
    } else {
      wpack.multiply(ld, conv_operand(padded, g, offs, false), 0.0f, yp, ld);
    }
    // Scatter into y (sample-major) with the bias broadcast over spatial
    // positions.
    for (std::size_t i = s0; i < s1; ++i) {
      for (std::size_t o = 0; o < out_ch_; ++o) {
        const float* src = yp + o * ld + (i - s0) * cc;
        float* dst = y.data() + (i * out_ch_ + o) * cc;
        const float b = bias_.value[o];
        for (std::size_t p = 0; p < cc; ++p) dst[p] = src[p] + b;
      }
    }
  });

  if (train) {
    last_geom_ = g;
    last_batch_ = n;
    last_block_ = bs;
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& dy) {
  if (last_batch_ == 0)
    throw std::logic_error(tag_ + ": backward without forward(train)");
  const ConvGeom& g = last_geom_;
  const std::size_t n = last_batch_;
  const std::size_t bs = last_block_;
  const std::size_t cr = g.col_rows(), cc = g.col_cols();
  const std::size_t in_plane = in_ch_ * g.height * g.width;
  const std::size_t out_plane = out_ch_ * cc;

  // Parameter gradients are accumulated digitally: the weight-update path
  // in the target RCS aggregates dW in CMOS peripherals; only the analog
  // MVMs (forward y = W*x, backward dx = W^T*dy) traverse faulty crossbars.
  Tensor dx(Shape{n, in_ch_, g.height, g.width});
  const Tensor& wb = effective_weights(bwd_view_, bwd_eff_);
  // Fused path: pack We_bwd^T once (strides express the transpose — no
  // transposed copy is ever materialized) and reuse across all blocks.
  const bool int8 = bwd_view_ && bwd_view_->int8_selected();
  if (int8) {
    bwd_i8_.pack(cr, out_ch_, StridedOperand{wb.data(), 1, cr},
                 bwd_view_->int8_weight_scale());
    telemetry::count("nn.conv.int8_flops", 2ull * cr * cc * out_ch_ * n);
    telemetry::count("nn.conv.int8_fallbacks", 0);  // visible at zero
  } else {
    bwd_pack_.pack(cr, out_ch_, 1.0f, StridedOperand{wb.data(), 1, cr});
    telemetry::count("nn.conv.fused_flops", 2ull * cr * cc * out_ch_ * n);
  }

  // dX, one GEMM per forward block: dcol = We_bwd^T (cr x out) * the
  // block's dy gathered into an out x (bn*cc) panel, then each sample's
  // columns scatter into a zero-padded dx image that is cropped into dx.
  // Blocks write disjoint dx slices.
  const std::size_t psz = g.padded_size();
  parallel_for_blocks(0, n, bs,
                      [&](std::size_t s0, std::size_t s1, std::size_t) {
    const std::size_t ld = (s1 - s0) * cc;
    float* dcol = t_out.ensure(cr * ld);
    // A one-sample block's dy slice already is the panel.
    const float* dyp = dy.data() + s0 * out_plane;
    if (s1 - s0 > 1) {
      float* gathered = t_in.ensure(out_ch_ * ld);
      for (std::size_t i = s0; i < s1; ++i)
        for (std::size_t o = 0; o < out_ch_; ++o)
          std::memcpy(gathered + o * ld + (i - s0) * cc,
                      dy.data() + i * out_plane + o * cc, cc * sizeof(float));
      dyp = gathered;
    }
    if (!int8) {
      bwd_pack_.multiply(ld, dyp, ld, 0.0f, dcol, ld);
    } else if (!bwd_i8_.multiply(ld, StridedOperand{dyp, ld, 1}, dcol, ld,
                                 cc)) {
      // One activation scale per sample; a refused block reruns per
      // sample, as the forward does.
      for (std::size_t i = s0; i < s1; ++i) {
        const float* dyi = dy.data() + i * out_plane;
        float* dci = dcol + (i - s0) * cc;
        if (!bwd_i8_.multiply(cc, StridedOperand{dyi, cc, 1}, dci, ld)) {
          telemetry::count("nn.conv.int8_fallbacks");
          gemm(true, false, cr, cc, out_ch_, 1.0f, wb.data(), cr, dyi, cc,
               0.0f, dci, ld);
        }
      }
    }
    float* pdx = t_pad.ensure(psz);
    for (std::size_t i = s0; i < s1; ++i) {
      std::fill(pdx, pdx + psz, 0.0f);
      col2im_padded(dcol + (i - s0) * cc, offsets_, pdx, ld);
      crop_image(pdx, g, dx.data() + i * in_plane);
    }
  });

  // dW/db accumulate across samples — a reduction. Each block of
  // reduction_grain(n) samples sums into its own partial, and the partials
  // are merged in block-index order. The block structure depends only on
  // the batch size, so the FP summation grouping (and thus the result) is
  // identical at any thread count, including the serial path. Blocks run
  // in waves of one per usable thread, each wave merged before the next,
  // so at most that many partials are live.
  const std::size_t grain = reduction_grain(n);
  const std::size_t nb = num_blocks(0, n, grain);
  const std::size_t wave = std::min(nb, usable_threads());
  const std::size_t wn = weight_.grad.numel();
  const std::size_t slot = wn + out_ch_;  // one dW partial, then its db
  float* partials = t_partials.ensure(wave * slot);
  for (std::size_t w0 = 0; w0 < nb; w0 += wave) {
    const std::size_t w1 = std::min(nb, w0 + wave);
    parallel_for(w0, w1, 1, [&](std::size_t b0, std::size_t b1) {
      for (std::size_t blk = b0; blk < b1; ++blk) {
        float* dw = partials + (blk - w0) * slot;
        float* db = dw + wn;
        std::fill(db, db + out_ch_, 0.0f);
        const std::size_t s0 = blk * grain, s1 = std::min(n, s0 + grain);
        for (std::size_t i = s0; i < s1; ++i) {
          const float* dyi = dy.data() + i * out_plane;
          // dW_blk += dy_i (out x cc) * col_i^T (cc x cr), col_i read in
          // place from sample i's padded input; the first sample stores
          // instead (beta = 0 writes 0 + x, as += into zeros did).
          gemm(false, out_ch_, cr, cc, 1.0f, dyi, cc,
               conv_operand(last_padded_.buf.data() + i * psz, g, offsets_,
                            true),
               i == s0 ? 0.0f : 1.0f, dw, cr);
          for (std::size_t o = 0; o < out_ch_; ++o) {
            const float* plane = dyi + o * cc;
            float s = 0.0f;
            for (std::size_t p = 0; p < cc; ++p) s += plane[p];
            db[o] += s;
          }
        }
      }
    });
    // Fixed-order merge of this wave's partials.
    for (std::size_t blk = w0; blk < w1; ++blk) {
      const float* dw = partials + (blk - w0) * slot;
      for (std::size_t e = 0; e < wn; ++e) weight_.grad[e] += dw[e];
      for (std::size_t o = 0; o < out_ch_; ++o)
        bias_.grad[o] += dw[wn + o];
    }
  }
  // Gradient components that traverse stuck backward-array cells are
  // pinned at a fixed sign and full-scale magnitude relative to the MVM's
  // healthy outputs: this is the "incorrect gradients accumulate after
  // each weight update" failure mode of §III.B.2 — a persistent
  // directional error at fixed positions, not zero-mean noise.
  apply_gradient_pinning(bwd_view_, weight_.grad);
  return dx;
}

}  // namespace remapd
