// Unit tests for feature detection, description and matching.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "features/bands.hpp"
#include "features/descriptor.hpp"
#include "features/detector.hpp"
#include "features/matcher.hpp"
#include "features/orb.hpp"
#include "runtime/rng.hpp"
#include "scene/presets.hpp"

using namespace edgeis;
using namespace edgeis::feat;

namespace {

/// Grid of cells with independent random intensities: every cell corner is
/// an L-corner the FAST segment test responds to. (A plain two-level
/// checkerboard produces X-corners, which FAST-9 by design does NOT fire
/// on: the contiguous bright/dark arc is only 8 of 16 circle pixels.)
img::GrayImage corner_image(int size = 128, int cell = 16,
                            std::uint64_t seed = 31) {
  rt::Rng rng(seed);
  std::vector<std::uint8_t> levels;
  const int cells = (size + cell - 1) / cell;
  for (int i = 0; i < cells * cells; ++i) {
    levels.push_back(static_cast<std::uint8_t>(30 + rng.uniform_int(200)));
  }
  img::GrayImage im(size, size, 30);
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      im.at(x, y) = levels[static_cast<std::size_t>((y / cell) * cells + (x / cell))];
    }
  }
  return im;
}

img::GrayImage noise_image(int size, std::uint64_t seed) {
  rt::Rng rng(seed);
  img::GrayImage im(size, size);
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      im.at(x, y) = static_cast<std::uint8_t>(40 + rng.uniform_int(180));
    }
  }
  return im;
}

}  // namespace

TEST(Detector, FindsDotFeatures) {
  // Bright 3x3 dots on a dark background: the whole FAST circle is darker
  // than the center, the strongest possible segment-test response. (Pure
  // two-level step corners are a known FAST blind spot — at a 4-cell
  // junction at most 2 of the 4 compass pixels differ from the center, so
  // the standard pre-test rejects them; natural texture has no such
  // degeneracy.)
  img::GrayImage im(128, 128, 30);
  std::vector<geom::Vec2> dots;
  for (int gy = 16; gy < 128; gy += 24) {
    for (int gx = 16; gx < 128; gx += 24) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          im.at(gx + dx, gy + dy) = 220;
        }
      }
      dots.push_back({static_cast<double>(gx), static_cast<double>(gy)});
    }
  }
  const auto kps = detect_fast(im);
  EXPECT_GE(kps.size(), dots.size() / 2);
  for (const auto& kp : kps) {
    double best = 1e9;
    for (const auto& d : dots) best = std::min(best, (kp.pixel - d).norm());
    EXPECT_LE(best, 3.0);  // every detection sits on a dot
  }
}

TEST(Detector, FlatImageNoCorners) {
  img::GrayImage im(64, 64, 128);
  EXPECT_TRUE(detect_fast(im).empty());
}

TEST(Detector, NonMaxSuppressionSpacing) {
  const auto im = corner_image();
  DetectorOptions opts;
  opts.nms_radius = 6;
  const auto kps = detect_fast(im, opts);
  for (std::size_t i = 0; i < kps.size(); ++i) {
    for (std::size_t j = i + 1; j < kps.size(); ++j) {
      const double d = (kps[i].pixel - kps[j].pixel).norm();
      EXPECT_GT(d, 5.9) << "keypoints too close after NMS";
    }
  }
}

TEST(Detector, GridCapsPerCell) {
  const auto im = noise_image(128, 3);
  DetectorOptions opts;
  opts.grid_cols = 4;
  opts.grid_rows = 4;
  opts.max_per_cell = 2;
  const auto kps = detect_fast(im, opts);
  EXPECT_LE(kps.size(), 32u);
}

TEST(Descriptor, StableUnderIdentity) {
  const auto im = corner_image();
  BriefDescriptorExtractor brief;
  Keypoint kp;
  kp.pixel = {64, 64};
  kp.angle = 0.0f;
  const Descriptor a = brief.compute(im, kp);
  const Descriptor b = brief.compute(im, kp);
  EXPECT_EQ(a.hamming_distance(b), 0);
}

TEST(Descriptor, DiscriminatesLocations) {
  const auto im = noise_image(128, 5);
  BriefDescriptorExtractor brief;
  Keypoint a, b;
  a.pixel = {40, 40};
  b.pixel = {90, 90};
  const int d = brief.compute(im, a).hamming_distance(brief.compute(im, b));
  // Unrelated content: distance should be near 128 (half the bits).
  EXPECT_GT(d, 70);
}

TEST(Descriptor, HammingDistanceProperties) {
  Descriptor a, b;
  a.bits = {0xFFULL, 0, 0, 0};
  b.bits = {0x0FULL, 0, 0, 0};
  EXPECT_EQ(a.hamming_distance(a), 0);
  EXPECT_EQ(a.hamming_distance(b), 4);
  EXPECT_EQ(b.hamming_distance(a), 4);
}

TEST(Matcher, MatchesTranslatedImage) {
  // Same noise pattern, shifted: features should match at the shift.
  const auto base = noise_image(160, 9);
  img::GrayImage shifted(160, 160);
  const int shift = 6;
  for (int y = 0; y < 160; ++y) {
    for (int x = 0; x < 160; ++x) {
      shifted.at(x, y) = base.at_clamped(x - shift, y);
    }
  }
  OrbExtractor orb;
  const auto f0 = orb.extract(base);
  const auto f1 = orb.extract(shifted);
  const auto matches = match_brute_force(f0, f1);
  ASSERT_GT(matches.size(), 10u);
  int consistent = 0;
  for (const auto& m : matches) {
    const geom::Vec2 d = f1[m.index1].kp.pixel - f0[m.index0].kp.pixel;
    if (std::abs(d.x - shift) < 2.0 && std::abs(d.y) < 2.0) ++consistent;
  }
  EXPECT_GT(static_cast<double>(consistent) / static_cast<double>(matches.size()), 0.7);
}

TEST(Matcher, EmptyInputsSafe) {
  std::vector<Feature> empty;
  EXPECT_TRUE(match_brute_force(empty, empty).empty());
}

TEST(Matcher, CrossCheckIsOneToOne) {
  const auto im = noise_image(160, 11);
  OrbExtractor orb;
  const auto f = orb.extract(im);
  const auto matches = match_brute_force(f, f);
  std::vector<bool> used0(f.size(), false), used1(f.size(), false);
  for (const auto& m : matches) {
    EXPECT_FALSE(used0[m.index0]);
    EXPECT_FALSE(used1[m.index1]);
    used0[m.index0] = true;
    used1[m.index1] = true;
  }
}

TEST(Matcher, SelfMatchIsIdentity) {
  const auto im = noise_image(160, 13);
  OrbExtractor orb;
  const auto f = orb.extract(im);
  const auto matches = match_brute_force(f, f);
  EXPECT_GT(matches.size(), f.size() / 2);
  for (const auto& m : matches) {
    EXPECT_EQ(m.index0, m.index1);
    EXPECT_EQ(m.distance, 0);
  }
}

TEST(FeatureGrid, QueryRadius) {
  std::vector<Feature> feats(3);
  feats[0].kp.pixel = {10, 10};
  feats[1].kp.pixel = {50, 50};
  feats[2].kp.pixel = {12, 11};
  FeatureGrid grid(feats, 100, 100);
  const auto near = grid.query({11, 11}, 5.0);
  EXPECT_EQ(near.size(), 2u);
  const auto far = grid.query({80, 80}, 5.0);
  EXPECT_TRUE(far.empty());
}

TEST(MatcherWindowed, RespectsSearchRadius) {
  const auto im = noise_image(160, 17);
  OrbExtractor orb;
  const auto f = orb.extract(im);
  ASSERT_GT(f.size(), 5u);
  // Predictions displaced far beyond the radius: no matches allowed.
  std::vector<std::optional<geom::Vec2>> far_predictions(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    far_predictions[i] = f[i].kp.pixel + geom::Vec2{500, 500};
  }
  MatchOptions opts;
  opts.search_radius = 10.0;
  EXPECT_TRUE(match_windowed(f, far_predictions, f, opts).empty());

  // Accurate predictions: nearly everything matches to itself.
  std::vector<std::optional<geom::Vec2>> good_predictions(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    good_predictions[i] = f[i].kp.pixel;
  }
  const auto matches = match_windowed(f, good_predictions, f, opts);
  EXPECT_GT(matches.size(), f.size() / 2);
}

TEST(Orb, MultiLevelOctaves) {
  const auto im = noise_image(256, 21);
  OrbOptions opts;
  opts.pyramid_levels = 3;
  OrbExtractor orb(opts);
  const auto feats = orb.extract(im);
  bool has_higher_octave = false;
  for (const auto& f : feats) {
    if (f.kp.octave > 0) has_higher_octave = true;
    EXPECT_LT(f.kp.pixel.x, 256.0);
    EXPECT_LT(f.kp.pixel.y, 256.0);
  }
  EXPECT_TRUE(has_higher_octave);
}

// ---------------------------------------------------------------------------
// The front end in bands against its serial form: the same features, in the
// same order, at every band count.

namespace {

// OrbExtractor::extract as one serial pass: detect_fast (segment test,
// suppression, retention and orientation) per level, then BRIEF.
std::vector<Feature> serial_orb(const img::GrayImage& image,
                                const OrbOptions& opts) {
  std::vector<img::GrayImage> pyramid;
  img::build_blurred_pyramid_into(image, opts.pyramid_levels, pyramid);
  const BriefDescriptorExtractor brief;
  std::vector<Feature> all;
  double scale = 1.0;
  for (std::size_t level = 0; level < pyramid.size(); ++level) {
    DetectorOptions d = opts.detector;
    d.max_per_cell = std::max(1, d.max_per_cell >> level);
    for (Keypoint kp : detect_fast(pyramid[level], d)) {
      kp.octave = static_cast<std::uint8_t>(level);
      Feature f{kp, brief.compute(pyramid[level], kp)};
      f.kp.pixel = kp.pixel * scale;
      all.push_back(f);
    }
    scale *= 2.0;
  }
  return all;
}

void expect_same_features(const std::vector<Feature>& got,
                          const std::vector<Feature>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Keypoint& a = got[i].kp;
    const Keypoint& b = want[i].kp;
    ASSERT_TRUE(a.pixel.x == b.pixel.x && a.pixel.y == b.pixel.y &&
                a.score == b.score && a.angle == b.angle &&
                a.octave == b.octave && got[i].desc.bits == want[i].desc.bits)
        << what << " feature " << i;
  }
}

std::vector<img::GrayImage> test_frames() {
  std::vector<img::GrayImage> frames;
  for (const auto& cfg :
       {scene::make_dataset_scene("davis", 42, 90),
        scene::make_stress_scene(scene::StressRegime::kCrowd, 42, 90)}) {
    const scene::SceneSimulator sim(cfg);
    for (const int f : {0, 45, 89}) frames.push_back(sim.render(f).intensity);
  }
  return frames;
}

}  // namespace

TEST(OrbBands, EveryBandCountMatchesTheSerialFrontEnd) {
  const OrbOptions opts;
  const BriefDescriptorExtractor brief;
  OrbScratch scratch;  // reused across frames and band layouts
  const auto frames = test_frames();
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto want = serial_orb(frames[f], opts);
    ASSERT_GT(want.size(), 500u);
    expect_same_features(OrbExtractor(opts).extract(frames[f]), want,
                         "frame " + std::to_string(f) + " extract");
    for (int bands = 1; bands <= 7; ++bands) {
      expect_same_features(
          bands::extract(opts, brief, scratch, frames[f], bands), want,
          "frame " + std::to_string(f) + " bands " + std::to_string(bands));
    }
  }
}

// Two threads, each with its own extractor, work the same frames at once:
// one holds the pool while the other runs its tasks inline.
TEST(OrbBands, ConcurrentExtractorsMatchTheSerialFrontEnd) {
  const OrbOptions opts;
  const auto frames = test_frames();
  std::vector<std::vector<Feature>> want;
  for (const auto& frame : frames) want.push_back(serial_orb(frame, opts));
  std::vector<std::vector<Feature>> got[2];
  const auto extract_all = [&](int who) {
    const OrbExtractor orb(opts);
    for (int round = 0; round < 3; ++round) {
      for (const auto& frame : frames) got[who].push_back(orb.extract(frame));
    }
  };
  std::thread a(extract_all, 0);
  std::thread b(extract_all, 1);
  a.join();
  b.join();
  for (const auto& results : got) {
    ASSERT_EQ(results.size(), 3 * want.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_same_features(results[i], want[i % want.size()],
                           "result " + std::to_string(i));
    }
  }
}
