// Equivalence and regression tests for the vectorized mobile hot path:
// the optimized kernels (batched Hamming matching, row-wise FAST, arena
// scratch) against their scalar references, plus the matcher's
// single-candidate ratio-test semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "features/brief_kernels.hpp"
#include "features/descriptor.hpp"
#include "features/detector.hpp"
#include "features/feature.hpp"
#include "features/matcher.hpp"
#include "features/orb.hpp"
#include "guarded_buffer.hpp"
#include "image/image.hpp"
#include "mask/mask.hpp"
#include "runtime/arena.hpp"
#include "runtime/cpu.hpp"
#include "runtime/rng.hpp"

using namespace edgeis;
using namespace edgeis::feat;

namespace {

Descriptor random_descriptor(rt::Rng& rng) {
  Descriptor d;
  for (auto& w : d.bits) {
    w = rng() ^ (rng() << 1);
  }
  return d;
}

/// Descriptor with exactly `n` bits set (Hamming distance n from zero).
Descriptor descriptor_with_bits(int n) {
  Descriptor d;
  for (int i = 0; i < n; ++i) {
    d.bits[static_cast<std::size_t>(i / 64)] |= 1ull << (i % 64);
  }
  return d;
}

Feature feature_at(double x, double y, const Descriptor& d) {
  Feature f;
  f.kp.pixel = {x, y};
  f.desc = d;
  return f;
}

img::GrayImage random_image(int w, int h, std::uint64_t seed) {
  rt::Rng rng(seed);
  img::GrayImage im(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      im.at(x, y) = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
  }
  return im;
}

/// Blocky random image: cell borders are FAST-responsive L-corners with
/// large coherent gradients, unlike iid noise.
img::GrayImage blocky_image(int w, int h, int cell, std::uint64_t seed) {
  rt::Rng rng(seed);
  const int cols = (w + cell - 1) / cell;
  const int rows = (h + cell - 1) / cell;
  std::vector<std::uint8_t> levels;
  for (int i = 0; i < cols * rows; ++i) {
    levels.push_back(static_cast<std::uint8_t>(30 + rng.uniform_int(200)));
  }
  img::GrayImage im(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      im.at(x, y) =
          levels[static_cast<std::size_t>((y / cell) * cols + x / cell)];
    }
  }
  return im;
}

}  // namespace

// ---------------------------------------------------------------------------
// Hamming kernels vs scalar reference (exact: integer popcounts).

TEST(Hamming, UnrolledMatchesReferenceOnRandomDescriptors) {
  rt::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Descriptor a = random_descriptor(rng);
    const Descriptor b = random_descriptor(rng);
    EXPECT_EQ(a.hamming_distance(b), hamming_distance_reference(a, b));
  }
}

TEST(Hamming, BoundedIsExactBelowBoundAndNeverFalselySmall) {
  rt::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const Descriptor a = random_descriptor(rng);
    const Descriptor b = random_descriptor(rng);
    const int exact = hamming_distance_reference(a, b);
    const int bound = static_cast<int>(rng.uniform_int(300));
    const int d = hamming_distance_bounded(a.bits[0], a.bits[1], a.bits[2],
                                           a.bits[3], b.bits.data(), bound);
    // Early-out may truncate the sum, but only once the partial sum has
    // already reached the bound — so the result is either exact or >= bound
    // (and a result under the bound is always the exact distance).
    if (d < bound) {
      EXPECT_EQ(d, exact);
    } else {
      EXPECT_LE(d, exact);
    }
    if (exact < bound) {
      EXPECT_EQ(d, exact);
    }
  }
}

// ---------------------------------------------------------------------------
// FAST detector vs the scalar detector it replaced (exact: same keypoints,
// scores, angles and order).

namespace reference {

// Bresenham circle of radius 3 used by FAST (16 offsets, clockwise).
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},  {2, 2},  {1, 3},
    {0, 3},  {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

// Corner score: sum of absolute differences of contiguous arc pixels vs
// center, a cheap stand-in for the exact FAST score.
float corner_score_reference(const img::GrayImage& im, int x, int y,
                             int threshold) {
  const int c = im.at(x, y);
  float score = 0.0f;
  for (const auto& off : kCircle) {
    const int v = im.at(x + off[0], y + off[1]);
    const int d = std::abs(v - c);
    if (d > threshold) score += static_cast<float>(d - threshold);
  }
  return score;
}

bool is_corner_reference(const img::GrayImage& im, int x, int y, int threshold,
                         int min_consecutive) {
  const int c = im.at(x, y);
  const int hi = c + threshold;
  const int lo = c - threshold;

  // Quick reject using the 4 compass points: at least 3 of them must be
  // consistently brighter or darker for a 9-consecutive arc to exist.
  int brighter4 = 0, darker4 = 0;
  for (int i : {0, 4, 8, 12}) {
    const int v = im.at(x + kCircle[i][0], y + kCircle[i][1]);
    brighter4 += (v > hi) ? 1 : 0;
    darker4 += (v < lo) ? 1 : 0;
  }
  if (brighter4 < 3 && darker4 < 3) return false;

  // Full segment test over the doubled circle to handle wrap-around.
  int run_bright = 0, run_dark = 0;
  for (int i = 0; i < 32; ++i) {
    const auto& off = kCircle[i % 16];
    const int v = im.at(x + off[0], y + off[1]);
    run_bright = (v > hi) ? run_bright + 1 : 0;
    run_dark = (v < lo) ? run_dark + 1 : 0;
    if (run_bright >= min_consecutive || run_dark >= min_consecutive) {
      return true;
    }
  }
  return false;
}

// Intensity centroid with double sums over clamped reads everywhere.
float compute_orientation(const img::GrayImage& image, int x, int y,
                          int radius = 7) {
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

// Score sort, NMS and grid-bucketed retention, as the detector does them.
std::vector<Keypoint> suppress_and_retain(const img::GrayImage& image,
                                          const DetectorOptions& opts,
                                          std::vector<Keypoint>&& raw) {
  std::sort(raw.begin(), raw.end(), [](const Keypoint& a, const Keypoint& b) {
    return a.score > b.score;
  });
  const int w = image.width();
  const int h = image.height();
  std::vector<std::uint8_t> taken(
      static_cast<std::size_t>(w) * static_cast<std::size_t>(h), 0);
  std::vector<Keypoint> nms;
  for (const auto& kp : raw) {
    const int x = static_cast<int>(kp.pixel.x);
    const int y = static_cast<int>(kp.pixel.y);
    if (taken[static_cast<std::size_t>(y * w + x)]) continue;
    nms.push_back(kp);
    const int r = opts.nms_radius;
    for (int ty = std::max(0, y - r); ty <= std::min(h - 1, y + r); ++ty) {
      for (int tx = std::max(0, x - r); tx <= std::min(w - 1, x + r); ++tx) {
        taken[static_cast<std::size_t>(ty * w + tx)] = 1;
      }
    }
  }
  const double cell_w = static_cast<double>(w) / opts.grid_cols;
  const double cell_h = static_cast<double>(h) / opts.grid_rows;
  std::vector<int> cell_counts(
      static_cast<std::size_t>(opts.grid_cols * opts.grid_rows), 0);
  std::vector<Keypoint> kept;
  for (const auto& kp : nms) {
    const int cx = std::min(opts.grid_cols - 1,
                            static_cast<int>(kp.pixel.x / cell_w));
    const int cy = std::min(opts.grid_rows - 1,
                            static_cast<int>(kp.pixel.y / cell_h));
    int& count =
        cell_counts[static_cast<std::size_t>(cy * opts.grid_cols + cx)];
    if (count >= opts.max_per_cell) continue;
    ++count;
    Keypoint k = kp;
    k.angle = compute_orientation(image, static_cast<int>(kp.pixel.x),
                                  static_cast<int>(kp.pixel.y));
    kept.push_back(k);
  }
  return kept;
}

std::vector<Keypoint> detect_fast_reference(const img::GrayImage& image,
                                            const DetectorOptions& opts) {
  std::vector<Keypoint> raw;
  const int border = 4;
  for (int y = border; y < image.height() - border; ++y) {
    for (int x = border; x < image.width() - border; ++x) {
      if (!is_corner_reference(image, x, y, opts.threshold,
                               opts.min_consecutive)) {
        continue;
      }
      Keypoint kp;
      kp.pixel = {static_cast<double>(x), static_cast<double>(y)};
      kp.score = corner_score_reference(image, x, y, opts.threshold);
      raw.push_back(kp);
    }
  }
  return suppress_and_retain(image, opts, std::move(raw));
}

}  // namespace reference

namespace {

// Same keypoints in the same order, with the same scores and angles.
void expect_same_keypoints(const std::vector<Keypoint>& got,
                           const std::vector<Keypoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pixel.x, want[i].pixel.x) << "keypoint " << i;
    EXPECT_EQ(got[i].pixel.y, want[i].pixel.y) << "keypoint " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "keypoint " << i;
    EXPECT_EQ(got[i].angle, want[i].angle) << "keypoint " << i;
  }
}

// Noise plus flat blocks: flat areas saturate the compass tests at both
// ends of the intensity range, noise fires the segment test.
img::GrayImage mixed_image(int w, int h, std::uint64_t seed) {
  auto im = random_image(w, h, seed);
  rt::Rng rng(seed ^ 0x5a5a);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int block = (x / 7 + y / 5) % 4;
      if (block == 0) im.at(x, y) = 0;
      if (block == 1) im.at(x, y) = 255;
      if (block == 2 && rng.chance(0.5)) {
        im.at(x, y) = static_cast<std::uint8_t>(rng.chance(0.5) ? 3 : 252);
      }
    }
  }
  return im;
}

}  // namespace

TEST(Detector, FastMatchesReferenceOnRandomImages) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(seed);
    const auto noise = random_image(160, 120, seed);
    expect_same_keypoints(detect_fast(noise, {}),
                          reference::detect_fast_reference(noise, {}));
  }
}

TEST(Detector, FastMatchesReferenceAcrossOptionVariations) {
  DetectorOptions strict;
  strict.threshold = 24;
  DetectorOptions loose;
  loose.threshold = 6;
  loose.max_per_cell = 12;
  DetectorOptions wide_nms;
  wide_nms.nms_radius = 8;
  for (const auto& opts : {DetectorOptions{}, strict, loose, wide_nms}) {
    const auto im = random_image(200, 150, 91);
    const auto a = detect_fast(im, opts);
    ASSERT_GT(a.size(), 0u);  // noise must actually fire the segment test
    expect_same_keypoints(a, reference::detect_fast_reference(im, opts));
  }
}

TEST(Detector, FastMatchesReferenceAtSaturatingThresholdsAndRunLengths) {
  // Threshold 0 and thresholds whose c + t passes 255 (or c − t passes 0)
  // for most pixels exercise the saturating prefilter; a negative one
  // takes the scalar prefilter. Run lengths cover 1 and the full circle.
  int fired = 0;
  for (const int threshold : {0, 1, 12, 128, 243, 250, 255, 256, 400, -3}) {
    for (const int run : {1, 9, 12, 16, 17, 40, 0}) {
      DetectorOptions opts;
      opts.threshold = threshold;
      opts.min_consecutive = run;
      opts.max_per_cell = 40;
      for (const std::uint64_t seed : {5ull, 6ull}) {
        SCOPED_TRACE("threshold " + std::to_string(threshold) + " run " +
                     std::to_string(run) + " seed " + std::to_string(seed));
        const auto im = mixed_image(83, 61, seed);
        const auto got = detect_fast(im, opts);
        fired += got.empty() ? 0 : 1;
        expect_same_keypoints(got, reference::detect_fast_reference(im, opts));
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(fired, 40);
}

TEST(Detector, FastMatchesReferenceOnNarrowImages) {
  // Widths 9..40 leave the 16-pixel prefilter no block, one block or a
  // block plus a tail shorter than a block.
  DetectorOptions opts;
  opts.threshold = 8;
  for (int w = 9; w <= 40; ++w) {
    for (const int h : {9, 10, 23}) {
      for (const std::uint64_t seed : {11ull, 12ull}) {
        SCOPED_TRACE("size " + std::to_string(w) + "x" + std::to_string(h));
        const auto im = mixed_image(w, h, seed + static_cast<std::uint64_t>(w));
        expect_same_keypoints(detect_fast(im, opts),
                              reference::detect_fast_reference(im, opts));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(Detector, OrientationMatchesDoubleSumAtEveryBorderDistance) {
  const auto im = random_image(64, 48, 77);
  const auto flat = blocky_image(64, 48, 9, 78);
  for (const int radius : {0, 1, 3, 7, 12}) {
    for (int d = 0; d <= radius + 2; ++d) {
      const int xs[] = {d, im.width() - 1 - d, 32};
      const int ys[] = {d, im.height() - 1 - d, 24};
      for (const int x : xs) {
        for (const int y : ys) {
          for (const auto* image : {&im, &flat}) {
            ASSERT_EQ(compute_orientation(*image, x, y, radius),
                      reference::compute_orientation(*image, x, y, radius))
                << "radius " << radius << " at " << x << "," << y;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Brute-force matcher vs scalar reference (exact).

TEST(BruteForce, MatchesReferenceOnRandomSets) {
  rt::Rng rng(21);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n0 = 1 + rng.uniform_int(80);
    const std::size_t n1 = 1 + rng.uniform_int(80);
    std::vector<Feature> s0, s1;
    for (std::size_t i = 0; i < n0; ++i) {
      s0.push_back(feature_at(0, 0, random_descriptor(rng)));
    }
    for (std::size_t i = 0; i < n1; ++i) {
      s1.push_back(feature_at(0, 0, random_descriptor(rng)));
    }
    // Plant near-duplicates so some matches actually pass the gates.
    for (std::size_t i = 0; i < std::min(n0, n1); i += 3) {
      s1[i].desc = s0[i].desc;
      s1[i].desc.bits[0] ^= 0x5ull;  // 2-bit perturbation
    }
    const auto fast = match_brute_force(s0, s1);
    const auto ref = match_brute_force_reference(s0, s1);
    ASSERT_EQ(fast.size(), ref.size()) << "round " << round;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].index0, ref[i].index0);
      EXPECT_EQ(fast[i].index1, ref[i].index1);
      EXPECT_EQ(fast[i].distance, ref[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Single-candidate and tie semantics of the ratio test (the old code left
// the second-best at 2^30 for lone candidates, accepting ANY of them).

TEST(RatioTest, LoneUnambiguousCandidateAccepted) {
  const std::vector<Feature> q{feature_at(10, 10, descriptor_with_bits(0))};
  const std::vector<Feature> t{feature_at(12, 11, descriptor_with_bits(8))};
  for (const auto& m :
       {match_brute_force(q, t),
        match_windowed(q, {{std::optional<geom::Vec2>{{12.0, 11.0}}}}, t)}) {
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0].index0, 0u);
    EXPECT_EQ(m[0].index1, 0u);
    EXPECT_EQ(m[0].distance, 8);
  }
}

TEST(RatioTest, LoneCandidateInsideGateAcceptedExplicitly) {
  // Distance 60 passes the max_distance (64) gate; with no second-best
  // the ratio test has no ambiguity to measure, so the lone candidate is
  // accepted — by the explicit missing-second-best branch in accept(),
  // not by sentinel arithmetic.
  const std::vector<Feature> q{feature_at(10, 10, descriptor_with_bits(0))};
  const std::vector<Feature> t{feature_at(12, 11, descriptor_with_bits(60))};
  for (const auto& m :
       {match_brute_force(q, t),
        match_windowed(q, {{std::optional<geom::Vec2>{{12.0, 11.0}}}}, t)}) {
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0].distance, 60);
  }
}

TEST(RatioTest, LoneCandidatePastGateRejected) {
  // The distance gate still applies to lone candidates: distance 65 > 64.
  const std::vector<Feature> q{feature_at(10, 10, descriptor_with_bits(0))};
  const std::vector<Feature> t{feature_at(12, 11, descriptor_with_bits(65))};
  EXPECT_TRUE(match_brute_force(q, t).empty());
  EXPECT_TRUE(
      match_windowed(q, {{std::optional<geom::Vec2>{{12.0, 11.0}}}}, t)
          .empty());
}

TEST(RatioTest, TiedCandidatesRejected) {
  // Two candidates at identical distance: best == second-best fails the
  // strict ratio inequality (the match is ambiguous).
  const std::vector<Feature> q{feature_at(10, 10, descriptor_with_bits(0))};
  std::vector<Feature> t{feature_at(12, 11, descriptor_with_bits(4)),
                         feature_at(14, 9, descriptor_with_bits(4))};
  // Same popcount but different bits (distance to each other nonzero).
  t[1].desc = Descriptor{};
  t[1].desc.bits[3] = 0xFull;
  EXPECT_TRUE(match_brute_force(q, t).empty());
  EXPECT_TRUE(
      match_windowed(q, {{std::optional<geom::Vec2>{{12.0, 11.0}}}}, t)
          .empty());
}

TEST(RatioTest, WindowedTrainClaimReplacedByCloserQuery) {
  // Two queries whose only in-window candidate is the same train feature:
  // the later, closer query must replace the earlier claim, leaving
  // exactly one match.
  std::vector<Feature> q{feature_at(10, 10, descriptor_with_bits(8)),
                         feature_at(11, 10, descriptor_with_bits(0))};
  const std::vector<Feature> t{feature_at(12, 11, descriptor_with_bits(0))};
  const std::vector<std::optional<geom::Vec2>> preds{
      geom::Vec2{12.0, 11.0}, geom::Vec2{12.0, 11.0}};
  const auto m = match_windowed(q, preds, t);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].index0, 1u);  // the distance-0 query wins the claim
  EXPECT_EQ(m[0].index1, 0u);
  EXPECT_EQ(m[0].distance, 0);
}

// ---------------------------------------------------------------------------
// Image pyramid scratch path vs the allocating composition it replaced.

TEST(Pyramid, ReusedBuffersMatchAllocatingPath) {
  const auto im = blocky_image(200, 150, 16, 5);
  const auto expected = img::build_pyramid(img::box_blur3(im), 3);
  std::vector<img::GrayImage> pyr;
  for (int round = 0; round < 2; ++round) {  // second round reuses buffers
    img::build_blurred_pyramid_into(im, 3, pyr);
    ASSERT_EQ(pyr.size(), expected.size());
    for (std::size_t l = 0; l < pyr.size(); ++l) {
      ASSERT_EQ(pyr[l].width(), expected[l].width());
      ASSERT_EQ(pyr[l].height(), expected[l].height());
      for (int y = 0; y < pyr[l].height(); ++y) {
        for (int x = 0; x < pyr[l].width(); ++x) {
          ASSERT_EQ(pyr[l].at(x, y), expected[l].at(x, y))
              << "level " << l << " (" << x << "," << y << ")";
        }
      }
    }
  }
}

TEST(Pyramid, OrbExtractDeterministicAcrossScratchReuse) {
  const auto im = blocky_image(160, 120, 16, 11);
  OrbExtractor orb;
  const auto first = orb.extract(im);
  const auto second = orb.extract(im);  // reuses the pyramid buffers
  ASSERT_EQ(first.size(), second.size());
  ASSERT_GT(first.size(), 0u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].kp.pixel.x, second[i].kp.pixel.x);
    EXPECT_EQ(first[i].kp.pixel.y, second[i].kp.pixel.y);
    EXPECT_EQ(first[i].desc.bits, second[i].desc.bits);
  }
}

// ---------------------------------------------------------------------------
// BRIEF: the clamp-free interior path against the clamped sampling it
// replaces for keypoints away from the border.

namespace {

struct PatternPair {
  float ax, ay, bx, by;
};

// The descriptor's comparison pattern, drawn as BriefDescriptorExtractor
// draws it.
std::vector<PatternPair> brief_pattern(int patch_radius) {
  rt::Rng rng(0xb51ef5eedULL);
  const double sigma = patch_radius / 2.5;
  auto draw = [&]() {
    double v;
    do {
      v = rng.normal(0.0, sigma);
    } while (std::abs(v) > patch_radius - 1);
    return static_cast<float>(v);
  };
  std::vector<PatternPair> pattern;
  for (int i = 0; i < 256; ++i) {
    pattern.push_back({draw(), draw(), draw(), draw()});
  }
  return pattern;
}

// Every sample point through the border-clamping sample_bilinear.
Descriptor clamped_brief(const std::vector<PatternPair>& pattern,
                         const img::GrayImage& image, const Keypoint& kp) {
  Descriptor d;
  const float c = std::cos(kp.angle);
  const float s = std::sin(kp.angle);
  const double x0 = kp.pixel.x;
  const double y0 = kp.pixel.y;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const auto& t = pattern[i];
    const double ax = x0 + c * t.ax - s * t.ay;
    const double ay = y0 + s * t.ax + c * t.ay;
    const double bx = x0 + c * t.bx - s * t.by;
    const double by = y0 + s * t.bx + c * t.by;
    const double va = image.sample_bilinear(ax, ay);
    const double vb = image.sample_bilinear(bx, by);
    if (va < vb) d.bits[i / 64] |= (1ULL << (i % 64));
  }
  return d;
}

std::vector<float> test_angles() {
  std::vector<float> angles;
  for (int i = 0; i < 16; ++i) {
    angles.push_back(static_cast<float>(i * M_PI / 8.0));
  }
  for (const double a : {-M_PI, -0.3, 0.7853981, 2.2, 5.9}) {
    angles.push_back(static_cast<float>(a));
  }
  return angles;
}

}  // namespace

TEST(Brief, MatchesClampedReferenceAtEveryBorderDistance) {
  for (const int radius : {15, 8}) {
    const BriefDescriptorExtractor brief(radius);
    const auto pattern = brief_pattern(radius);
    const int margin = brief.interior_margin();
    SCOPED_TRACE(radius);
    const auto image = random_image(640, 480, 31 + radius);
    std::vector<img::GrayImage> pyr;
    img::build_blurred_pyramid_into(image, 4, pyr);
    ASSERT_EQ(pyr.size(), 4u);
    int interior = 0, border = 0;
    for (std::size_t level = 0; level < pyr.size(); ++level) {
      const auto& im = pyr[level];
      const double w = im.width(), h = im.height();
      std::vector<geom::Vec2> pixels;
      for (int d = 0; d <= margin + 3; ++d) {
        for (const double frac : {0.0, 0.5, 0.999}) {
          const double e = d + frac;
          pixels.push_back({e, h / 2});          // left
          pixels.push_back({w - 1 - e, h / 2});  // right
          pixels.push_back({w / 2, e});          // top
          pixels.push_back({w / 2, h - 1 - e});  // bottom
          pixels.push_back({e, h - 1 - e});      // corner
        }
      }
      for (const auto& px : pixels) {
        const bool inside_x = px.x >= margin && px.x <= w - 1 - margin;
        const bool inside_y = px.y >= margin && px.y <= h - 1 - margin;
        (inside_x && inside_y ? interior : border) += 1;
        for (const float angle : test_angles()) {
          Keypoint kp;
          kp.pixel = px;
          kp.angle = angle;
          const Descriptor want = clamped_brief(pattern, im, kp);
          ASSERT_EQ(brief.compute(im, kp).bits, want.bits)
              << "level " << level << " at " << px.x << "," << px.y;
        }
      }
    }
    EXPECT_GT(interior, 100);  // both paths ran
    EXPECT_GT(border, 100);
  }
}

TEST(Brief, MarginCoversLargestRotatedPatternOffset) {
  // A keypoint `margin` pixels in samples at most max_offset away, and
  // the bilinear 2x2 neighbourhood reaches one pixel further: both must
  // stay inside the image, so max_offset + 1 < margin.
  for (const int radius : {4, 8, 15, 31}) {
    const int margin = BriefDescriptorExtractor(radius).interior_margin();
    double max_norm = 0.0;
    double max_offset = 0.0;
    for (const auto& t : brief_pattern(radius)) {
      const double norm_a = std::hypot(double{t.ax}, double{t.ay});
      const double norm_b = std::hypot(double{t.bx}, double{t.by});
      max_norm = std::max({max_norm, norm_a, norm_b});
      for (int i = 0; i < 3600; ++i) {
        const float angle = static_cast<float>(i * M_PI / 1800.0);
        const float c = std::cos(angle);
        const float s = std::sin(angle);
        auto reach = [&](float px, float py) {
          // The descriptor's own arithmetic, about a keypoint at 0.
          const double rx = 0.0 + c * px - s * py;
          const double ry = 0.0 + s * px + c * py;
          return std::max(std::abs(rx), std::abs(ry));
        };
        max_offset = std::max(max_offset, reach(t.ax, t.ay));
        max_offset = std::max(max_offset, reach(t.bx, t.by));
      }
    }
    EXPECT_LT(max_norm + 1.0, margin) << "radius " << radius;
    EXPECT_LT(max_offset + 1.0, margin) << "radius " << radius;
    EXPECT_LE(max_offset, max_norm + 1e-4) << "radius " << radius;
  }
}

// ---------------------------------------------------------------------------
// BRIEF interior kernels (features/brief_kernels.hpp): the AVX2 form
// against the scalar form on one machine, bit for bit.

namespace {

kernels::BriefPattern soa_pattern(int patch_radius) {
  const auto pairs = brief_pattern(patch_radius);
  kernels::BriefPattern p;
  for (std::size_t i = 0; i < kernels::kBriefTests; ++i) {
    p.ax[i] = pairs[i].ax;
    p.ay[i] = pairs[i].ay;
    p.bx[i] = pairs[i].bx;
    p.by[i] = pairs[i].by;
  }
  return p;
}

}  // namespace

TEST(BriefKernels, ScalarAndAvx2AgreeOnEveryPyramidLevel) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  int words = 0, differing_from_zero = 0;
  for (const int radius : {15, 8}) {
    SCOPED_TRACE(radius);
    const auto pattern = soa_pattern(radius);
    const BriefDescriptorExtractor brief(radius);
    const int m = brief.interior_margin();
    for (const auto& image :
         {random_image(640, 480, 41), blocky_image(640, 480, 16, 42)}) {
      // Every blurred pyramid level, then the unblurred image: its flat
      // cells make comparisons near-ties that the rounding of the
      // bilinear sums decides.
      std::vector<img::GrayImage> pyr;
      img::build_blurred_pyramid_into(image, 4, pyr);
      ASSERT_EQ(pyr.size(), 4u);
      pyr.push_back(image);
      rt::Rng rng(43);
      for (std::size_t level = 0; level < pyr.size(); ++level) {
        const auto& im = pyr[level];
        const double hi_x = im.width() - 1 - m, hi_y = im.height() - 1 - m;
        // The four margins exactly, just inside them, and random points.
        std::vector<geom::Vec2> pixels = {
            {double(m), double(m)}, {hi_x, hi_y}, {double(m), hi_y},
            {hi_x, double(m)},      {m + 0.5, hi_y - 0.25},
            {hi_x - 1e-9, m + 1e-9}};
        for (int i = 0; i < 40; ++i) {
          pixels.push_back({rng.uniform(m, hi_x), rng.uniform(m, hi_y)});
        }
        const auto stride = static_cast<std::size_t>(im.width());
        for (const auto& px : pixels) {
          for (const float angle : test_angles()) {
            Keypoint kp;
            kp.pixel = px;
            kp.angle = angle;
            const Descriptor want =
                kernels::describe_interior_scalar(pattern, im.data(), stride,
                                                  kp);
            ASSERT_EQ(kernels::describe_interior_avx2(pattern, im.data(),
                                                      stride, kp)
                          .bits,
                      want.bits)
                << "level " << level << " at " << px.x << "," << px.y
                << " angle " << angle;
            ASSERT_EQ(brief.compute(im, kp).bits, want.bits);
            for (const auto w : want.bits) {
              ++words;
              differing_from_zero += w != 0 ? 1 : 0;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(differing_from_zero, words / 2);
}

TEST(BriefKernels, ExactlySizedImageAtTheMargin) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  for (const int radius : {15, 8}) {
    SCOPED_TRACE(radius);
    const auto pattern = soa_pattern(radius);
    const int m = BriefDescriptorExtractor(radius).interior_margin();
    // The smallest images with an interior point: the keypoint sits at the
    // margin from all four borders. The pixels end flush against an
    // inaccessible page, so a gather past the image faults.
    const int sizes[][2] = {{2 * m + 1, 2 * m + 1}, {2 * m + 6, 2 * m + 1},
                            {2 * m + 1, 2 * m + 3}};
    for (const auto& size : sizes) {
      const int w = size[0], h = size[1];
      const auto image = random_image(w, h, 50 + w + h);
      testutil::GuardedBuffer<std::uint8_t> pixels(image.size());
      std::copy(image.data(), image.data() + image.size(), pixels.data());
      const auto stride = static_cast<std::size_t>(w);
      for (const geom::Vec2 at :
           {geom::Vec2{double(w - 1 - m), double(h - 1 - m)},
            geom::Vec2{double(m), double(m)}}) {
        for (const float angle : test_angles()) {
          Keypoint kp;
          kp.pixel = at;
          kp.angle = angle;
          const Descriptor want =
              kernels::describe_interior_scalar(pattern, pixels.data(),
                                                stride, kp);
          ASSERT_EQ(kernels::describe_interior_avx2(pattern, pixels.data(),
                                                    stride, kp)
                        .bits,
                    want.bits)
              << w << "x" << h << " at " << at.x << "," << at.y;
          EXPECT_EQ(BriefDescriptorExtractor(radius).compute(image, kp).bits,
                    want.bits);
        }
      }
    }
  }
}

// The border kernels: keypoints at every distance 0 .. margin from each
// edge and corner, on every pyramid level, with the image flush against an
// inaccessible page on one side and then the other, so a gather that
// reaches before the first pixel or past the last one faults. The scalar
// form must also match sample_bilinear on the image itself.
namespace {

// The border kernels at `kp` on `im`, copied flush against a guard page at
// each end. Returns the scalar form's descriptor after checking the AVX2
// form (when the CPU has it) against it on both copies.
Descriptor check_border(const kernels::BriefPattern& pattern,
                        const img::GrayImage& im, const Keypoint& kp) {
  Descriptor want;
  for (const auto flush : {testutil::Flush::kEnd, testutil::Flush::kStart}) {
    testutil::GuardedBuffer<std::uint8_t> pixels(im.size(), flush);
    std::copy(im.data(), im.data() + im.size(), pixels.data());
    want = kernels::describe_border_scalar(pattern, pixels.data(), im.width(),
                                           im.height(), kp);
    if (rt::cpu_has_avx2()) {
      EXPECT_EQ(kernels::describe_border_avx2(pattern, pixels.data(),
                                              im.width(), im.height(), kp)
                    .bits,
                want.bits)
          << im.width() << "x" << im.height() << " at " << kp.pixel.x << ","
          << kp.pixel.y << " angle " << kp.angle;
    }
  }
  return want;
}

}  // namespace

TEST(BriefKernels, BorderFormsAgreeAtEveryDistanceOnEveryLevel) {
  int border = 0;
  for (const int radius : {15, 8}) {
    SCOPED_TRACE(radius);
    const auto pattern = soa_pattern(radius);
    const auto pairs = brief_pattern(radius);
    const BriefDescriptorExtractor brief(radius);
    const int m = brief.interior_margin();
    std::vector<img::GrayImage> pyr;
    img::build_blurred_pyramid_into(random_image(640, 480, 61 + radius), 4,
                                    pyr);
    ASSERT_EQ(pyr.size(), 4u);
    const auto angles = test_angles();
    for (std::size_t level = 0; level < pyr.size(); ++level) {
      const auto& im = pyr[level];
      const double w = im.width(), h = im.height();
      std::vector<geom::Vec2> pixels;
      for (int d = 0; d <= m; ++d) {
        for (const double frac : {0.0, 0.375}) {
          const double e = d + frac, f = w - 1 - e, g = h - 1 - e;
          for (const geom::Vec2 at : {geom::Vec2{e, h / 2}, {f, h / 2},
                                      {w / 2, e}, {w / 2, g}, {e, e},
                                      {f, e}, {e, g}, {f, g}}) {
            pixels.push_back(at);
          }
        }
      }
      for (std::size_t i = 0; i < pixels.size(); ++i) {
        Keypoint kp;
        kp.pixel = pixels[i];
        kp.angle = angles[i % angles.size()];
        const Descriptor want = check_border(pattern, im, kp);
        ASSERT_EQ(want.bits, clamped_brief(pairs, im, kp).bits)
            << "level " << level << " at " << kp.pixel.x << ","
            << kp.pixel.y;
        ASSERT_EQ(brief.compute(im, kp).bits, want.bits);
        ++border;
      }
    }
  }
  EXPECT_GT(border, 1000);
}

TEST(BriefKernels, BorderFormsAgreeOnTinyAndNarrowImages) {
  // Every sample of a tiny image is clamped, many onto the first or the
  // last pixel; 4 bytes is the smallest image the AVX2 form takes, and
  // compute() keeps smaller ones scalar.
  const auto pattern = soa_pattern(15);
  const auto pairs = brief_pattern(15);
  const BriefDescriptorExtractor brief(15);
  const int sizes[][2] = {{1, 1}, {2, 1}, {1, 3}, {2, 2}, {4, 1}, {1, 4},
                          {3, 2}, {5, 1}, {1, 7}, {3, 3}, {7, 2}, {40, 3}};
  for (const auto& size : sizes) {
    const int w = size[0], h = size[1];
    const auto im = random_image(w, h, 70 + 10 * w + h);
    for (const geom::Vec2 at :
         {geom::Vec2{0, 0}, {w - 1.0, h - 1.0}, {w / 2.0, h / 2.0},
          {-0.5, h - 0.75}, {w - 0.25, -0.5}}) {
      for (const float angle : test_angles()) {
        Keypoint kp;
        kp.pixel = at;
        kp.angle = angle;
        const Descriptor want = clamped_brief(pairs, im, kp);
        ASSERT_EQ(brief.compute(im, kp).bits, want.bits)
            << w << "x" << h << " at " << at.x << "," << at.y;
        if (im.size() < 4) continue;
        ASSERT_EQ(check_border(pattern, im, kp).bits, want.bits)
            << w << "x" << h << " at " << at.x << "," << at.y;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Arena scratch allocator.

TEST(Arena, ScopeRestoresAndCapacityIsRetained) {
  rt::Arena arena;
  {
    rt::ArenaScope outer(arena);
    auto a = outer.alloc_filled<int>(1000, 7);
    ASSERT_EQ(a.size(), 1000u);
    for (int v : a) ASSERT_EQ(v, 7);
    {
      rt::ArenaScope inner(arena);
      auto b = inner.alloc<double>(500);
      ASSERT_EQ(b.size(), 500u);
      // Outer allocation untouched by inner activity.
      for (int v : a) ASSERT_EQ(v, 7);
    }
    auto c = outer.alloc_filled<int>(10, 3);
    for (int v : c) ASSERT_EQ(v, 3);
  }
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  {
    rt::ArenaScope again(arena);
    (void)again.alloc<int>(1000);
  }
  // Same demand, no new blocks.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, AlignmentHolds) {
  rt::Arena arena;
  rt::ArenaScope s(arena);
  (void)s.alloc<std::uint8_t>(3);  // misalign the bump pointer
  auto d = s.alloc<double>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
}

TEST(Arena, FindContoursStableAcrossScratchReuse) {
  mask::InstanceMask m(64, 48);
  for (int y = 10; y < 30; ++y) {
    for (int x = 8; x < 40; ++x) m.set(x, y);
  }
  const auto first = mask::find_contours(m);
  const auto second = mask::find_contours(m);  // arena-reused visited map
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].size(), second[0].size());
  for (std::size_t i = 0; i < first[0].size(); ++i) {
    EXPECT_EQ(first[0][i].x, second[0][i].x);
    EXPECT_EQ(first[0][i].y, second[0][i].y);
  }
}
