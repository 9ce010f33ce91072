#include "features/detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "runtime/arena.hpp"

namespace edgeis::feat {
namespace {

// Bresenham circle of radius 3 used by FAST (16 offsets, clockwise).
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},  {2, 2},  {1, 3},
    {0, 3},  {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

// NMS + grid-bucketed retention of the raw corners.
std::vector<Keypoint> suppress_and_retain(const img::GrayImage& image,
                                          const DetectorOptions& opts,
                                          std::vector<Keypoint>&& raw) {
  // Non-maximum suppression on a score grid.
  std::sort(raw.begin(), raw.end(),
            [](const Keypoint& a, const Keypoint& b) { return a.score > b.score; });
  rt::ArenaScope scratch;
  const int w = image.width();
  const int h = image.height();
  auto taken = scratch.alloc_filled<std::uint8_t>(
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h), 0);
  std::vector<Keypoint> nms;
  nms.reserve(raw.size());
  for (const auto& kp : raw) {
    const int x = static_cast<int>(kp.pixel.x);
    const int y = static_cast<int>(kp.pixel.y);
    const std::size_t at =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
        static_cast<std::size_t>(x);
    if (taken[at]) continue;
    nms.push_back(kp);
    const int r = opts.nms_radius;
    const int y0 = std::max(0, y - r), y1 = std::min(h - 1, y + r);
    const int x0 = std::max(0, x - r), x1 = std::min(w - 1, x + r);
    for (int ty = y0; ty <= y1; ++ty) {
      const std::size_t off =
          static_cast<std::size_t>(ty) * static_cast<std::size_t>(w);
      std::uint8_t* row = taken.data() + off;
      std::fill(row + x0, row + x1 + 1, std::uint8_t{1});
    }
  }

  // Grid-bucketed retention: keep the strongest per cell so features cover
  // the whole frame rather than clustering on the most textured object.
  const double cell_w = static_cast<double>(w) / opts.grid_cols;
  const double cell_h = static_cast<double>(h) / opts.grid_rows;
  auto cell_counts = scratch.alloc_filled<int>(
      static_cast<std::size_t>(opts.grid_cols * opts.grid_rows), 0);
  std::vector<Keypoint> kept;
  kept.reserve(nms.size());
  for (const auto& kp : nms) {  // already sorted by score desc
    const int cx = std::min(opts.grid_cols - 1,
                            static_cast<int>(kp.pixel.x / cell_w));
    const int cy = std::min(opts.grid_rows - 1,
                            static_cast<int>(kp.pixel.y / cell_h));
    int& count = cell_counts[static_cast<std::size_t>(cy * opts.grid_cols + cx)];
    if (count >= opts.max_per_cell) continue;
    ++count;
    Keypoint k = kp;
    k.angle = compute_orientation(image, static_cast<int>(kp.pixel.x),
                                  static_cast<int>(kp.pixel.y));
    kept.push_back(k);
  }
  return kept;
}

}  // namespace

float compute_orientation(const img::GrayImage& image, int x, int y,
                          int radius) {
  if (x - radius >= 0 && y - radius >= 0 && x + radius < image.width() &&
      y + radius < image.height()) {
    // Interior: no clamping, and integer moments. Every term dx·v, dy·v
    // is an integer and every partial sum stays far below 2^53, so the
    // double sums of the border path below are exact and equal these.
    long long m01 = 0, m10 = 0;
    for (int dy = -radius; dy <= radius; ++dy) {
      int half = 0;  // widest |dx| with dx² + dy² <= radius²
      while ((half + 1) * (half + 1) + dy * dy <= radius * radius) ++half;
      const std::uint8_t* row = image.row(y + dy) + x;
      long long row_sum = 0;
      for (int dx = -half; dx <= half; ++dx) {
        m10 += static_cast<long long>(dx) * row[dx];
        row_sum += row[dx];
      }
      m01 += dy * row_sum;
    }
    return static_cast<float>(std::atan2(static_cast<double>(m01),
                                         static_cast<double>(m10)));
  }
  double m01 = 0.0, m10 = 0.0;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy > radius * radius) continue;
      const double v = image.at_clamped(x + dx, y + dy);
      m10 += dx * v;
      m01 += dy * v;
    }
  }
  return static_cast<float>(std::atan2(m01, m10));
}

std::vector<Keypoint> detect_fast(const img::GrayImage& image,
                                  const DetectorOptions& opts) {
  const int border = 4;
  const int w = image.width();
  const int h = image.height();
  std::vector<Keypoint> raw;
  if (w <= 2 * border || h <= 2 * border) return raw;

  // Circle taps as linear offsets from the center pixel: one add each
  // instead of a per-tap row*stride multiply through im.at().
  const int stride = w;
  int coff[16];
  for (int k = 0; k < 16; ++k) {
    coff[k] = kCircle[k][1] * stride + kCircle[k][0];
  }
  const int t = opts.threshold;

  // Segment test on a 16-bit arc mask (bit k = circle tap k passes): a run
  // of `min_consecutive` taps exists, wrap-around included, when the mask
  // doubled to 32 bits and ANDed with itself shifted 1 .. n−1 places keeps
  // a bit. That is the walk over the doubled circle, whose runs end at
  // index 31 at the latest; shifts of 32 or more clear every bit, as no
  // run there reaches 33.
  const int n = opts.min_consecutive;
  const int shifts = std::min(n, 33) - 1;
  const auto has_run = [shifts](unsigned arc) {
    const std::uint64_t doubled = arc | (std::uint64_t{arc} << 16);
    std::uint64_t run = doubled;
    for (int i = 1; i <= shifts; ++i) run &= doubled >> i;
    return run != 0;
  };

  // One compass-surviving pixel: the full segment test and, for corners,
  // the score — the sum over taps of max(|v − c| − t, 0). With t >= -2^16
  // every partial sum is an integer below 2^24, so the int sum converts to
  // the float a float accumulation would reach.
  const auto test_pixel = [&](const std::uint8_t* row, int x, int y) {
    const std::uint8_t* center = row + x;
    const int c = *center;
    const int hi = c + t;
    const int lo = c - t;
    int v[16];
    unsigned bright = 0, dark = 0;
    for (int k = 0; k < 16; ++k) {
      v[k] = center[coff[k]];
      bright |= static_cast<unsigned>(v[k] > hi) << k;
      dark |= static_cast<unsigned>(v[k] < lo) << k;
    }
    if (n > 0 && !has_run(bright) && !has_run(dark)) return;
    int score = 0;
    for (int k = 0; k < 16; ++k) score += std::max(std::abs(v[k] - c) - t, 0);
    Keypoint kp;
    kp.pixel = {static_cast<double>(x), static_cast<double>(y)};
    kp.score = static_cast<float>(score);
    raw.push_back(kp);
  };

#ifdef __SSE2__
  // The compass prefilter 16 pixels at a time. Saturating c + t and c − t
  // are exact stand-ins: where c + t > 255 no byte is brighter, and where
  // c − t < 0 none is darker. A block needs bytes x − 3 .. x + 18 of its
  // row, and the last pixel of a block must be a detector pixel.
  const bool vector_prefilter = t >= 0;
  const __m128i t8 = _mm_set1_epi8(static_cast<char>(std::min(t, 255)));
  const __m128i zero = _mm_setzero_si128();
  const __m128i ones = _mm_cmpeq_epi8(zero, zero);
#endif

  for (int y = border; y < h - border; ++y) {
    const std::uint8_t* row = image.row(y);
    const std::uint8_t* row_n = image.row(y - 3);
    const std::uint8_t* row_s = image.row(y + 3);
    int x = border;

#ifdef __SSE2__
    for (; vector_prefilter && x + 16 <= w - border; x += 16) {
      const auto load = [](const std::uint8_t* p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      };
      const __m128i c = load(row + x);
      const __m128i hi = _mm_adds_epu8(c, t8);
      const __m128i lo = _mm_subs_epu8(c, t8);
      const __m128i taps[4] = {load(row_n + x), load(row + x + 3),
                               load(row_s + x), load(row + x - 3)};
      __m128i b[4], d[4];
      for (int k = 0; k < 4; ++k) {
        // v > hi exactly when v −sat hi is nonzero; v < lo likewise.
        b[k] = _mm_xor_si128(
            _mm_cmpeq_epi8(_mm_subs_epu8(taps[k], hi), zero), ones);
        d[k] = _mm_xor_si128(
            _mm_cmpeq_epi8(_mm_subs_epu8(lo, taps[k]), zero), ones);
      }
      // At least 3 of the 4: both of one pair and one of the other.
      const auto three_of_four = [](const __m128i m[4]) {
        const __m128i ab = _mm_and_si128(m[0], m[1]);
        const __m128i cd = _mm_and_si128(m[2], m[3]);
        return _mm_or_si128(_mm_and_si128(ab, _mm_or_si128(m[2], m[3])),
                            _mm_and_si128(cd, _mm_or_si128(m[0], m[1])));
      };
      unsigned cand = static_cast<unsigned>(_mm_movemask_epi8(
          _mm_or_si128(three_of_four(b), three_of_four(d))));
      while (cand != 0) {
        test_pixel(row, x + __builtin_ctz(cand), y);
        cand &= cand - 1;
      }
    }
#endif

    // Scalar prefilter for the rest of the row: at least 3 of the 4
    // compass taps must be consistently brighter or darker for a
    // 9-consecutive arc to exist — typically >95% of pixels die here.
    for (; x < w - border; ++x) {
      const int c = row[x];
      const int hi = c + t;
      const int lo = c - t;
      const int brighter = (row_n[x] > hi) + (row[x + 3] > hi) +
                           (row_s[x] > hi) + (row[x - 3] > hi);
      const int darker = (row_n[x] < lo) + (row[x + 3] < lo) +
                         (row_s[x] < lo) + (row[x - 3] < lo);
      if (brighter >= 3 || darker >= 3) test_pixel(row, x, y);
    }
  }
  return suppress_and_retain(image, opts, std::move(raw));
}

}  // namespace edgeis::feat
