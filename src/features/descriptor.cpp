#include "features/descriptor.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <mutex>

#include "features/brief_kernels.hpp"
#include "runtime/cpu.hpp"
#include "runtime/rng.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace edgeis::feat {

using kernels::BriefPattern;

BriefDescriptorExtractor::BriefDescriptorExtractor(int patch_radius)
    : patch_radius_(patch_radius), pattern_(&pattern_for(patch_radius)) {}

const BriefPattern& BriefDescriptorExtractor::pattern_for(int patch_radius) {
  // The draw (about a thousand rejection-sampled normals) is a fixed
  // function of the radius, so each radius is drawn once per process and
  // shared. Map nodes never move: the returned reference stays valid.
  static std::mutex lock;
  static std::map<int, BriefPattern> patterns;
  const std::lock_guard<std::mutex> guard(lock);
  auto [it, inserted] = patterns.try_emplace(patch_radius);
  if (!inserted) return it->second;

  // Fixed seed: the pattern is part of the descriptor definition, not a
  // per-run random choice. Each test draws ax, ay, bx, by in that order.
  rt::Rng rng(0xb51ef5eedULL);
  BriefPattern& pattern = it->second;
  const double sigma = patch_radius / 2.5;
  auto draw = [&]() {
    double v;
    do {
      v = rng.normal(0.0, sigma);
    } while (std::abs(v) > patch_radius - 1);
    return static_cast<float>(v);
  };
  for (std::size_t i = 0; i < kernels::kBriefTests; ++i) {
    pattern.ax[i] = draw();
    pattern.ay[i] = draw();
    pattern.bx[i] = draw();
    pattern.by[i] = draw();
  }
  return pattern;
}

namespace {

// Bits accumulate in a register word, set branch-free: each comparison
// is a coin flip the branch predictor cannot learn.
template <typename Sample>
Descriptor describe(const BriefPattern& p, const Keypoint& kp,
                    Sample sample) {
  Descriptor d;
  const float c = std::cos(kp.angle);
  const float s = std::sin(kp.angle);
  const double x0 = kp.pixel.x;
  const double y0 = kp.pixel.y;
  for (std::size_t w = 0; w < d.bits.size(); ++w) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; ++j) {
      const std::size_t i = w * 64 + j;
      // Rotate both sample points by the keypoint orientation.
      const double ax = x0 + c * p.ax[i] - s * p.ay[i];
      const double ay = y0 + s * p.ax[i] + c * p.ay[i];
      const double bx = x0 + c * p.bx[i] - s * p.by[i];
      const double by = y0 + s * p.bx[i] + c * p.by[i];
      const bool bit = sample(ax, ay) < sample(bx, by);
      word |= static_cast<std::uint64_t>(bit) << j;
    }
    d.bits[w] = word;
  }
  return d;
}

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

// img::Image::sample_bilinear on the row-major width x height image at
// `data`: the same floor, clamps and interpolation, term by term.
double sample_clamped(const std::uint8_t* data, int width, int height,
                      double x, double y) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const double fx = x - x0;
  const double fy = y - y0;
  const auto at = [&](int px, int py) {
    px = std::clamp(px, 0, width - 1);
    py = std::clamp(py, 0, height - 1);
    return static_cast<double>(
        data[static_cast<std::size_t>(py) * static_cast<std::size_t>(width) +
             static_cast<std::size_t>(px)]);
  };
  const double v00 = at(x0, y0);
  const double v10 = at(x0 + 1, y0);
  const double v01 = at(x0, y0 + 1);
  const double v11 = at(x0 + 1, y0 + 1);
  return (1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10 +
         (1 - fx) * fy * v01 + fx * fy * v11;
}

#if defined(__x86_64__)

// sample_bilinear's sum, term by term, at four points.
[[gnu::target("avx2")]] inline __m256d bilinear4(__m256d fx, __m256d fy,
                                                 __m128i v00, __m128i v10,
                                                 __m128i v01, __m128i v11) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d gx = _mm256_sub_pd(one, fx);
  const __m256d gy = _mm256_sub_pd(one, fy);
  __m256d v = _mm256_mul_pd(_mm256_mul_pd(gx, gy), _mm256_cvtepi32_pd(v00));
  v = _mm256_add_pd(
      v, _mm256_mul_pd(_mm256_mul_pd(fx, gy), _mm256_cvtepi32_pd(v10)));
  v = _mm256_add_pd(
      v, _mm256_mul_pd(_mm256_mul_pd(gx, fy), _mm256_cvtepi32_pd(v01)));
  return _mm256_add_pd(
      v, _mm256_mul_pd(_mm256_mul_pd(fx, fy), _mm256_cvtepi32_pd(v11)));
}

// sample_interior at four points. Each point's 2x2 neighbourhood comes
// from two 32-bit gathers at byte offsets y0·stride + x0 and one row
// down: bytes 0 and 1 of each are the x0 and x0 + 1 pixels. Bytes 2 and 3
// are read and dropped. They stay inside the image: an interior sample
// has x0 <= w − 3 and y0 <= h − 3, so the lower gather ends at most at
// byte (y0 + 1)·w + w, the first pixel of row y0 + 2. ASan does not see
// gather reads, so this bound is the only guard.
[[gnu::target("avx2")]] inline __m256d sample_interior4(
    const std::uint8_t* data, __m128i stride, __m256d x, __m256d y) {
  const __m128i xi = _mm256_cvttpd_epi32(x);
  const __m128i yi = _mm256_cvttpd_epi32(y);
  const __m256d fx = _mm256_sub_pd(x, _mm256_cvtepi32_pd(xi));
  const __m256d fy = _mm256_sub_pd(y, _mm256_cvtepi32_pd(yi));
  const __m128i at = _mm_add_epi32(_mm_mullo_epi32(yi, stride), xi);
  const auto* base = reinterpret_cast<const int*>(data);
  const __m128i upper = _mm_i32gather_epi32(base, at, 1);
  const __m128i lower = _mm_i32gather_epi32(base, _mm_add_epi32(at, stride), 1);
  const __m128i byte = _mm_set1_epi32(0xff);
  return bilinear4(fx, fy, _mm_and_si128(upper, byte),
                   _mm_and_si128(_mm_srli_epi32(upper, 8), byte),
                   _mm_and_si128(lower, byte),
                   _mm_and_si128(_mm_srli_epi32(lower, 8), byte));
}

// sample_clamped at four points. x0 = floor(x) in double, fx = x − x0; x0
// and x0 + 1 are clamped to [0, w − 1] in int32 lanes (and the same for
// y). Each row's two pixels come from one 32-bit gather: the x0 pixel at
// byte o − g and the x0 + 1 pixel one byte further unless the clamp
// merged them, where o is the x0 pixel's offset and g = min(o, size − 4).
// A gather at o itself would read up to 3 bytes past the last pixel; at g
// it reads [g, g + 4) ⊂ [0, size), and both pixels lie in it because the
// x0 + 1 pixel's offset is at most size − 1. Needs size >= 4.
[[gnu::target("avx2")]] inline __m256d sample_clamped4(
    const std::uint8_t* data, int width, int height, __m256d x, __m256d y) {
  const __m256d x0 = _mm256_floor_pd(x);
  const __m256d y0 = _mm256_floor_pd(y);
  const __m256d fx = _mm256_sub_pd(x, x0);
  const __m256d fy = _mm256_sub_pd(y, y0);
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi32(1);
  const __m128i max_x = _mm_set1_epi32(width - 1);
  const __m128i max_y = _mm_set1_epi32(height - 1);
  const __m128i xi = _mm256_cvttpd_epi32(x0);
  const __m128i yi = _mm256_cvttpd_epi32(y0);
  const __m128i xa = _mm_min_epi32(_mm_max_epi32(xi, zero), max_x);
  const __m128i xb =
      _mm_min_epi32(_mm_max_epi32(_mm_add_epi32(xi, one), zero), max_x);
  const __m128i ya = _mm_min_epi32(_mm_max_epi32(yi, zero), max_y);
  const __m128i yb =
      _mm_min_epi32(_mm_max_epi32(_mm_add_epi32(yi, one), zero), max_y);
  const __m128i stride = _mm_set1_epi32(width);
  const __m128i last = _mm_set1_epi32(width * height - 4);
  const __m128i step = _mm_slli_epi32(_mm_sub_epi32(xb, xa), 3);
  const __m128i byte = _mm_set1_epi32(0xff);
  const auto* base = reinterpret_cast<const int*>(data);
  __m128i v[4];
  const __m128i rows[2] = {ya, yb};
  for (int r = 0; r < 2; ++r) {
    const __m128i o = _mm_add_epi32(_mm_mullo_epi32(rows[r], stride), xa);
    const __m128i g = _mm_min_epi32(o, last);
    const __m128i word = _mm_i32gather_epi32(base, g, 1);
    const __m128i shift = _mm_slli_epi32(_mm_sub_epi32(o, g), 3);
    v[2 * r] = _mm_and_si128(_mm_srlv_epi32(word, shift), byte);
    v[2 * r + 1] = _mm_and_si128(
        _mm_srlv_epi32(word, _mm_add_epi32(shift, step)), byte);
  }
  return bilinear4(fx, fy, v[0], v[1], v[2], v[3]);
}

// Four tests' sample points: c·t.x and s·t.y are float products, as in
// the scalar form, and (x0 + c·tx) − s·ty keeps its association.
[[gnu::target("avx2")]] inline void rotate4(const float* tx, const float* ty,
                                            __m128 c, __m128 s, __m256d x0,
                                            __m256d y0, __m256d& rx,
                                            __m256d& ry) {
  const __m128 x = _mm_loadu_ps(tx);
  const __m128 y = _mm_loadu_ps(ty);
  rx = _mm256_sub_pd(_mm256_add_pd(x0, _mm256_cvtps_pd(_mm_mul_ps(c, x))),
                     _mm256_cvtps_pd(_mm_mul_ps(s, y)));
  ry = _mm256_add_pd(_mm256_add_pd(y0, _mm256_cvtps_pd(_mm_mul_ps(s, x))),
                     _mm256_cvtps_pd(_mm_mul_ps(c, y)));
}

#endif

}  // namespace

Descriptor kernels::describe_interior_scalar(const BriefPattern& pattern,
                                             const std::uint8_t* data,
                                             std::size_t stride,
                                             const Keypoint& kp) {
  return describe(pattern, kp, [data, stride](double sx, double sy) {
    return sample_interior(data, stride, sx, sy);
  });
}

Descriptor kernels::describe_border_scalar(const BriefPattern& pattern,
                                           const std::uint8_t* data,
                                           int width, int height,
                                           const Keypoint& kp) {
  return describe(pattern, kp, [=](double sx, double sy) {
    return sample_clamped(data, width, height, sx, sy);
  });
}

#if defined(__x86_64__)

namespace {

// describe() four tests per step, with a four-point sampler; `<` is
// _CMP_LT_OQ, and the four lanes' results are bits j..j + 3 of the word.
template <typename Sample4>
[[gnu::target("avx2")]] inline Descriptor describe4(const BriefPattern& p,
                                                    const Keypoint& kp,
                                                    Sample4 sample) {
  Descriptor d;
  const float c = std::cos(kp.angle);
  const float s = std::sin(kp.angle);
  const __m128 c4 = _mm_set1_ps(c);
  const __m128 s4 = _mm_set1_ps(s);
  const __m256d x0 = _mm256_set1_pd(kp.pixel.x);
  const __m256d y0 = _mm256_set1_pd(kp.pixel.y);
  for (std::size_t w = 0; w < d.bits.size(); ++w) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; j += 4) {
      const std::size_t i = w * 64 + j;
      __m256d ax, ay, bx, by;
      rotate4(p.ax + i, p.ay + i, c4, s4, x0, y0, ax, ay);
      rotate4(p.bx + i, p.by + i, c4, s4, x0, y0, bx, by);
      const __m256d va = sample(ax, ay);
      const __m256d vb = sample(bx, by);
      const int bits = _mm256_movemask_pd(_mm256_cmp_pd(va, vb, _CMP_LT_OQ));
      word |= static_cast<std::uint64_t>(bits) << j;
    }
    d.bits[w] = word;
  }
  return d;
}

struct Interior4 {
  const std::uint8_t* data;
  int stride;
  [[gnu::target("avx2")]] __m256d operator()(__m256d x, __m256d y) const {
    return sample_interior4(data, _mm_set1_epi32(stride), x, y);
  }
};

struct Clamped4 {
  const std::uint8_t* data;
  int width, height;
  [[gnu::target("avx2")]] __m256d operator()(__m256d x, __m256d y) const {
    return sample_clamped4(data, width, height, x, y);
  }
};

}  // namespace

[[gnu::target("avx2")]] Descriptor kernels::describe_interior_avx2(
    const BriefPattern& p, const std::uint8_t* data, std::size_t stride,
    const Keypoint& kp) {
  return describe4(p, kp, Interior4{data, static_cast<int>(stride)});
}

[[gnu::target("avx2")]] Descriptor kernels::describe_border_avx2(
    const BriefPattern& p, const std::uint8_t* data, int width, int height,
    const Keypoint& kp) {
  return describe4(p, kp, Clamped4{data, width, height});
}

#else

Descriptor kernels::describe_interior_avx2(const BriefPattern& pattern,
                                           const std::uint8_t* data,
                                           std::size_t stride,
                                           const Keypoint& kp) {
  return describe_interior_scalar(pattern, data, stride, kp);
}

Descriptor kernels::describe_border_avx2(const BriefPattern& pattern,
                                         const std::uint8_t* data, int width,
                                         int height, const Keypoint& kp) {
  return describe_border_scalar(pattern, data, width, height, kp);
}

#endif

Descriptor BriefDescriptorExtractor::compute(const img::GrayImage& image,
                                             const Keypoint& kp) const {
  const double m = interior_margin();
  const double x = kp.pixel.x;
  const double y = kp.pixel.y;
  const bool avx2 = rt::cpu_has_avx2() && image.size() <= INT_MAX;
  if (x >= m && y >= m && x <= image.width() - 1 - m &&
      y <= image.height() - 1 - m) {
    const auto stride = static_cast<std::size_t>(image.width());
    if (avx2) {
      return kernels::describe_interior_avx2(*pattern_, image.data(), stride,
                                             kp);
    }
    return kernels::describe_interior_scalar(*pattern_, image.data(), stride,
                                             kp);
  }
  // Every sample lies within m of the keypoint, so its floor fits int32.
  if (avx2 && image.size() >= 4 && std::abs(x) + m < 0x1p30 &&
      std::abs(y) + m < 0x1p30) {
    return kernels::describe_border_avx2(*pattern_, image.data(),
                                         image.width(), image.height(), kp);
  }
  return kernels::describe_border_scalar(*pattern_, image.data(),
                                         image.width(), image.height(), kp);
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
