#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "conv_reference.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace remapd {
namespace {

TEST(ConvGeom, OutputDims) {
  ConvGeom g{3, 16, 16, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 16u);
  EXPECT_EQ(g.out_w(), 16u);
  EXPECT_EQ(g.col_rows(), 27u);
  EXPECT_EQ(g.col_cols(), 256u);

  ConvGeom s{8, 8, 8, 3, 3, 2, 1};
  EXPECT_EQ(s.out_h(), 4u);
  EXPECT_EQ(s.out_w(), 4u);

  ConvGeom one{4, 5, 5, 1, 1, 1, 0};
  EXPECT_EQ(one.out_h(), 5u);
  EXPECT_EQ(one.col_rows(), 4u);
}

TEST(ConvGeom, ReadsEveryPixelMatchesBruteForce) {
  // The int8 conv path scans a whole image for its activation scale only
  // when this says the im2col matrix reads every pixel; otherwise an
  // unread pixel could set the scale. Check it against the read set.
  std::size_t dense = 0, sparse = 0;
  for (std::size_t h = 1; h <= 9; ++h)
    for (std::size_t w = 1; w <= 9; w += 2)
      for (std::size_t k = 1; k <= 5; ++k)
        for (std::size_t s = 1; s <= 3; ++s)
          for (std::size_t p = 0; p <= 2; ++p) {
            if (k > h + 2 * p || k > w + 2 * p) continue;
            const ConvGeom g{2, h, w, k, k, s, p};
            ConvOffsets o;
            o.build(g);
            std::vector<bool> read(g.padded_size(), false);
            for (const std::int32_t r : o.row_off)
              for (const std::int32_t q : o.col_off) read[r + q] = true;
            bool all = true;
            for (std::size_t c = 0; c < g.channels; ++c)
              for (std::size_t y = 0; y < h; ++y)
                for (std::size_t x = 0; x < w; ++x)
                  all = all && read[(c * g.padded_h() + y + p) *
                                        g.padded_w() +
                                    x + p];
            EXPECT_EQ(g.reads_every_pixel(), all)
                << h << "x" << w << " k=" << k << " s=" << s << " p=" << p;
            ++(all ? dense : sparse);
          }
  EXPECT_GT(dense, 0u);
  EXPECT_GT(sparse, 0u);
  EXPECT_TRUE((ConvGeom{8, 8, 8, 3, 3, 1, 1}.reads_every_pixel()));
  EXPECT_TRUE((ConvGeom{8, 8, 8, 3, 3, 2, 1}.reads_every_pixel()));
  EXPECT_FALSE((ConvGeom{8, 8, 8, 1, 1, 2, 0}.reads_every_pixel()));
}

/// Reference: direct gather per output position.
void naive_im2col(const float* img, const ConvGeom& g, float* col) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw)
        for (std::size_t y = 0; y < oh; ++y)
          for (std::size_t x = 0; x < ow; ++x) {
            const long iy = static_cast<long>(y * g.stride + kh) -
                            static_cast<long>(g.pad);
            const long ix = static_cast<long>(x * g.stride + kw) -
                            static_cast<long>(g.pad);
            const std::size_t row =
                (c * g.kernel_h + kh) * g.kernel_w + kw;
            float v = 0.0f;
            if (iy >= 0 && iy < static_cast<long>(g.height) && ix >= 0 &&
                ix < static_cast<long>(g.width))
              v = img[(c * g.height + static_cast<std::size_t>(iy)) *
                          g.width +
                      static_cast<std::size_t>(ix)];
            col[row * oh * ow + y * ow + x] = v;
          }
}

class Im2ColPropertyTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Im2ColPropertyTest, MatchesNaiveGather) {
  const ConvGeom g = GetParam();
  Rng rng(g.channels * 131 + g.height * 17 + g.kernel_h + g.stride);
  Tensor img = Tensor::randn(Shape{g.channels, g.height, g.width}, rng);
  const std::size_t n = g.col_rows() * g.col_cols();
  std::vector<float> fast(n), ref(n);
  im2col(img.data(), g, fast.data());
  naive_im2col(img.data(), g, ref.data());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(fast[i], ref[i]) << "at " << i;
}

TEST_P(Im2ColPropertyTest, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> characterizes the adjoint (the exact
  // property the conv backward pass relies on).
  const ConvGeom g = GetParam();
  Rng rng(g.channels + g.height * 3 + g.kernel_w * 7);
  Tensor x = Tensor::randn(Shape{g.channels, g.height, g.width}, rng);
  const std::size_t n = g.col_rows() * g.col_cols();
  Tensor y = Tensor::randn(Shape{n}, rng);

  std::vector<float> cx(n);
  im2col(x.data(), g, cx.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    lhs += static_cast<double>(cx[i]) * y[i];

  Tensor back = Tensor::zeros(x.shape());
  col2im(y.data(), g, back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

TEST_P(Im2ColPropertyTest, LeadingDimensionMatchesDenseLayout) {
  // A panel whose rows are ld > OH*OW floats apart (several samples side
  // by side) holds exactly the dense matrix in its first OH*OW columns and
  // never touches the rest; col2im reads only those columns back.
  const ConvGeom g = GetParam();
  Rng rng(g.channels * 7 + g.width * 5 + g.stride);
  Tensor img = Tensor::randn(Shape{g.channels, g.height, g.width}, rng);
  const std::size_t cr = g.col_rows(), cc = g.col_cols(), ld = cc + 5;
  std::vector<float> dense(cr * cc);
  im2col(img.data(), g, dense.data());
  const float sentinel = -12345.0f;
  std::vector<float> strided(cr * ld, sentinel);
  im2col(img.data(), g, strided.data(), ld);
  for (std::size_t r = 0; r < cr; ++r)
    for (std::size_t j = 0; j < ld; ++j)
      ASSERT_EQ(strided[r * ld + j], j < cc ? dense[r * cc + j] : sentinel)
          << "row " << r << " col " << j;

  // col2im over the strided panel (gap columns hold garbage) equals the
  // dense scatter bit for bit.
  Tensor y = Tensor::randn(Shape{cr * cc}, rng);
  std::vector<float> ystrided(cr * ld, 1e30f);
  for (std::size_t r = 0; r < cr; ++r)
    for (std::size_t j = 0; j < cc; ++j) ystrided[r * ld + j] = y[r * cc + j];
  Tensor back = Tensor::zeros(img.shape());
  Tensor back_ld = Tensor::zeros(img.shape());
  col2im(y.data(), g, back.data());
  col2im(ystrided.data(), g, back_ld.data(), ld);
  for (std::size_t i = 0; i < img.numel(); ++i)
    ASSERT_EQ(back[i], back_ld[i]) << "at " << i;

  // The adjoint identity holds over the strided layout too.
  double lhs = 0.0;
  for (std::size_t r = 0; r < cr; ++r)
    for (std::size_t j = 0; j < cc; ++j)
      lhs += static_cast<double>(strided[r * ld + j]) * ystrided[r * ld + j];
  double rhs = 0.0;
  for (std::size_t i = 0; i < img.numel(); ++i)
    rhs += static_cast<double>(img[i]) * back_ld[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

TEST_P(Im2ColPropertyTest, PaddedOffsetsMatchIm2colAndCol2im) {
  // The implicit-GEMM lowering: the offset tables read the im2col matrix
  // out of the zero-padded image element for element, crop_image inverts
  // pad_image, and col2im_padded + crop_image is col2im bit for bit.
  const ConvGeom g = GetParam();
  Rng rng(g.channels * 3 + g.height * 11 + g.pad);
  Tensor img = Tensor::randn(Shape{g.channels, g.height, g.width}, rng);
  const std::size_t cr = g.col_rows(), cc = g.col_cols();
  std::vector<float> col(cr * cc), padded(g.padded_size(), 7.0f);
  im2col(img.data(), g, col.data());
  pad_image(img.data(), g, padded.data());
  ConvOffsets offs;
  EXPECT_TRUE(offs.build(g));
  EXPECT_FALSE(offs.build(g)) << "same geometry: no rebuild, no growth";
  for (std::size_t r = 0; r < cr; ++r)
    for (std::size_t q = 0; q < cc; ++q)
      ASSERT_EQ(padded[offs.row_off[r] + offs.col_off[q]], col[r * cc + q])
          << "row " << r << " col " << q;
  Tensor cropped(img.shape());
  crop_image(padded.data(), g, cropped.data());
  ASSERT_EQ(std::memcmp(cropped.data(), img.data(),
                        img.numel() * sizeof(float)),
            0);

  const Tensor y = Tensor::randn(Shape{cr * cc}, rng);
  Tensor want = Tensor::zeros(img.shape());
  col2im(y.data(), g, want.data());
  std::vector<float> pdx(g.padded_size(), 0.0f);
  col2im_padded(y.data(), offs, pdx.data());
  Tensor got(img.shape());
  crop_image(pdx.data(), g, got.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), img.numel() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, Im2ColPropertyTest,
    ::testing::Values(ConvGeom{1, 4, 4, 3, 3, 1, 1},
                      ConvGeom{3, 8, 8, 3, 3, 1, 1},
                      ConvGeom{2, 8, 8, 3, 3, 2, 1},
                      ConvGeom{4, 6, 6, 1, 1, 1, 0},
                      ConvGeom{2, 5, 7, 3, 3, 1, 0},
                      ConvGeom{1, 16, 16, 5, 5, 1, 2},
                      ConvGeom{3, 16, 16, 3, 3, 2, 1},
                      ConvGeom{8, 2, 2, 1, 1, 1, 0}));

TEST(Im2Col, ZeroPaddingProducesZeros) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1};
  Tensor img = Tensor::ones(Shape{1, 2, 2});
  std::vector<float> col(g.col_rows() * g.col_cols());
  im2col(img.data(), g, col.data());
  // Top-left kernel tap at output (0,0) reads the padded corner.
  EXPECT_EQ(col[0], 0.0f);
}

}  // namespace
}  // namespace remapd
