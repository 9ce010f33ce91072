// Planar single-channel image container plus the small set of image
// operations the pipeline needs (blur, gradient, pyramid, bilinear
// sampling). Grayscale uint8 images feed the feature detector; float images
// are used for filtering intermediates; uint16 images hold instance-id
// buffers from the renderer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace edgeis::img {

template <typename T>
class Image {
 public:
  Image() = default;
  Image(int width, int height, T fill = T{})
      : width_(width), height_(height),
        data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {
    if (width < 0 || height < 0) {
      throw std::invalid_argument("negative image dimensions");
    }
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  T& at(int x, int y) {
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) + static_cast<std::size_t>(x)];
  }
  const T& at(int x, int y) const {
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) + static_cast<std::size_t>(x)];
  }

  /// Clamped read: coordinates outside the image are clamped to the border.
  [[nodiscard]] T at_clamped(int x, int y) const {
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return at(x, y);
  }

  [[nodiscard]] bool contains(int x, int y) const noexcept {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] T* row(int y) noexcept { return data_.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(width_); }
  [[nodiscard]] const T* row(int y) const noexcept {
    return data_.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshape to `width` x `height`, filling with `value`. Reuses the
  /// existing allocation when capacity suffices — the frame-scratch path
  /// (pyramid buffers, NMS grids) calls this every frame with the same
  /// dimensions and never re-heap-allocates after the first frame.
  void resize(int width, int height, T value = T{}) {
    if (width < 0 || height < 0) {
      throw std::invalid_argument("negative image dimensions");
    }
    width_ = width;
    height_ = height;
    data_.assign(
        static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
        value);
  }

  /// Bilinear interpolation at sub-pixel position; clamps at borders.
  [[nodiscard]] double sample_bilinear(double x, double y) const {
    const int x0 = static_cast<int>(std::floor(x));
    const int y0 = static_cast<int>(std::floor(y));
    const double fx = x - x0;
    const double fy = y - y0;
    const double v00 = static_cast<double>(at_clamped(x0, y0));
    const double v10 = static_cast<double>(at_clamped(x0 + 1, y0));
    const double v01 = static_cast<double>(at_clamped(x0, y0 + 1));
    const double v11 = static_cast<double>(at_clamped(x0 + 1, y0 + 1));
    return (1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10 +
           (1 - fx) * fy * v01 + fx * fy * v11;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<T> data_;
};

using GrayImage = Image<std::uint8_t>;
using IdImage = Image<std::uint16_t>;     // instance ids; 0 = background
using DepthImage = Image<float>;

/// 3x3 box blur (separable), used before corner detection to suppress
/// single-pixel texture noise.
GrayImage box_blur3(const GrayImage& src);

/// Half-resolution downsample (2x2 average) for image pyramids.
GrayImage downsample2(const GrayImage& src);

/// Gaussian-ish pyramid: level 0 is the input, each level half the size.
std::vector<GrayImage> build_pyramid(const GrayImage& src, int levels);

/// In-place variants reusing the caller's buffers (frame-scratch reuse:
/// the ORB extractor rebuilds the same pyramid every frame).
void box_blur3_into(const GrayImage& src, GrayImage& dst);
void downsample2_into(const GrayImage& src, GrayImage& dst);

/// Rebuild `pyr` from `src`: level 0 is the 3x3-box-blurred input, each
/// further level a 2x2-average downsample, stopping (as build_pyramid
/// does) once a level falls under 16 pixels a side. Level buffers are
/// reused across calls.
void build_blurred_pyramid_into(const GrayImage& src, int levels,
                                std::vector<GrayImage>& pyr);

/// Sobel gradient magnitude (saturated to uint8), used for blurriness
/// checks in feature selection (Section III-A).
GrayImage sobel_magnitude(const GrayImage& src);

/// Mean of gradient magnitude in a (2r+1)^2 window around (x, y): the
/// blurriness score. Low score = blurred / textureless patch.
double local_sharpness(const GrayImage& grad, int x, int y, int radius = 3);

}  // namespace edgeis::img
