#include "features/descriptor.hpp"

#include <cmath>
#include <map>
#include <mutex>

#include "runtime/rng.hpp"

namespace edgeis::feat {

BriefDescriptorExtractor::BriefDescriptorExtractor(int patch_radius)
    : patch_radius_(patch_radius), pattern_(&pattern_for(patch_radius)) {}

const BriefDescriptorExtractor::Pattern&
BriefDescriptorExtractor::pattern_for(int patch_radius) {
  // The draw (about a thousand rejection-sampled normals) is a fixed
  // function of the radius, so each radius is drawn once per process and
  // shared. Map nodes never move: the returned reference stays valid.
  static std::mutex lock;
  static std::map<int, Pattern> patterns;
  const std::lock_guard<std::mutex> guard(lock);
  auto [it, inserted] = patterns.try_emplace(patch_radius);
  if (!inserted) return it->second;

  // Fixed seed: the pattern is part of the descriptor definition, not a
  // per-run random choice.
  rt::Rng rng(0xb51ef5eedULL);
  Pattern& pattern = it->second;
  pattern.reserve(256);
  const double sigma = patch_radius / 2.5;
  auto draw = [&]() {
    double v;
    do {
      v = rng.normal(0.0, sigma);
    } while (std::abs(v) > patch_radius - 1);
    return static_cast<float>(v);
  };
  for (int i = 0; i < 256; ++i) {
    pattern.push_back({draw(), draw(), draw(), draw()});
  }
  return pattern;
}

namespace {

// img::Image::sample_bilinear without the border clamp, for a point whose
// 2x2 neighbourhood lies inside the image. x, y >= 0, so truncation is
// floor; the interpolation is the same expression term by term.
double sample_interior(const std::uint8_t* data, std::size_t stride,
                       double x, double y) {
  const int x0 = static_cast<int>(x);
  const int y0 = static_cast<int>(y);
  const double fx = x - x0;
  const double fy = y - y0;
  const std::uint8_t* p = data + static_cast<std::size_t>(y0) * stride + x0;
  const double v00 = p[0];
  const double v10 = p[1];
  const double v01 = p[stride];
  const double v11 = p[stride + 1];
  return (1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10 +
         (1 - fx) * fy * v01 + fx * fy * v11;
}

}  // namespace

template <typename Sample>
Descriptor BriefDescriptorExtractor::describe(const Keypoint& kp,
                                              Sample sample) const {
  Descriptor d;
  const float c = std::cos(kp.angle);
  const float s = std::sin(kp.angle);
  const double x0 = kp.pixel.x;
  const double y0 = kp.pixel.y;

  // Bits accumulate in a register word, set branch-free: each comparison
  // is a coin flip the branch predictor cannot learn.
  for (std::size_t w = 0; w < d.bits.size(); ++w) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; ++j) {
      const auto& t = (*pattern_)[w * 64 + j];
      // Rotate both sample points by the keypoint orientation.
      const double ax = x0 + c * t.ax - s * t.ay;
      const double ay = y0 + s * t.ax + c * t.ay;
      const double bx = x0 + c * t.bx - s * t.by;
      const double by = y0 + s * t.bx + c * t.by;
      const bool bit = sample(ax, ay) < sample(bx, by);
      word |= static_cast<std::uint64_t>(bit) << j;
    }
    d.bits[w] = word;
  }
  return d;
}

Descriptor BriefDescriptorExtractor::compute(const img::GrayImage& image,
                                             const Keypoint& kp) const {
  const double m = interior_margin();
  const double x = kp.pixel.x;
  const double y = kp.pixel.y;
  if (x >= m && y >= m && x <= image.width() - 1 - m &&
      y <= image.height() - 1 - m) {
    const std::uint8_t* data = image.data();
    const auto stride = static_cast<std::size_t>(image.width());
    return describe(kp, [data, stride](double sx, double sy) {
      return sample_interior(data, stride, sx, sy);
    });
  }
  return describe(kp, [&image](double sx, double sy) {
    return image.sample_bilinear(sx, sy);
  });
}

std::vector<Feature> BriefDescriptorExtractor::compute_all(
    const img::GrayImage& image, const std::vector<Keypoint>& kps) const {
  std::vector<Feature> out;
  out.reserve(kps.size());
  for (const auto& kp : kps) {
    out.push_back({kp, compute(image, kp)});
  }
  return out;
}

}  // namespace edgeis::feat
