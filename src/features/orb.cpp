#include "features/orb.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "features/bands.hpp"
#include "runtime/worker_pool.hpp"

namespace edgeis::feat {
namespace {

/// FAST bands per lane: more bands than lanes evens out rows of unequal
/// texture.
constexpr int kBandsPerLane = 2;

/// A level is split into bands of at least this many rows, so a level
/// under twice this height is one band.
constexpr int kMinBandRows = 32;

/// Keypoints per orientation + BRIEF task.
constexpr std::size_t kDescribeChunk = 64;

DetectorOptions level_options(const OrbOptions& opts, std::size_t level) {
  DetectorOptions d = opts.detector;
  // Fewer keypoints at coarser levels.
  d.max_per_cell = std::max(1, d.max_per_cell >> level);
  return d;
}

// `bands` row bands per pyramid level (fewer on a short level), level by
// level. Capacities carry over from the last frame.
void plan_bands(OrbScratch& s, int bands) {
  std::size_t n = 0;
  for (std::size_t level = 0; level < s.pyramid.size(); ++level) {
    const int h = s.pyramid[level].height();
    const int count = std::clamp(h / kMinBandRows, 1, bands);
    for (int b = 0; b < count; ++b) {
      if (n == s.bands.size()) s.bands.emplace_back();
      OrbScratch::Band& band = s.bands[n++];
      band.level = level;
      band.y_begin = h * b / count;
      band.y_end = h * (b + 1) / count;
    }
  }
  s.bands.resize(n);
}

// Every band's FAST corners into its slice of s.corners, on the pool. A
// band whose slice was too small is grown here, on the calling thread, and
// the scan runs again; after the first frames the slices fit.
void scan_bands(const OrbOptions& opts, OrbScratch& s) {
  for (;;) {
    std::size_t total = 0;
    for (auto& band : s.bands) {
      band.offset = total;
      total += band.capacity;
    }
    if (s.corners.size() < total) s.corners.resize(total);
    const std::span<Corner> corners(s.corners);
    rt::WorkerPool::shared().run(s.bands.size(), [&](std::size_t i) {
      OrbScratch::Band& band = s.bands[i];
      band.found = bands::scan_fast(
          s.pyramid[band.level], level_options(opts, band.level),
          band.y_begin, band.y_end,
          corners.subspan(band.offset, band.capacity));
    });
    bool grew = false;
    for (auto& band : s.bands) {
      if (band.found <= band.capacity) continue;
      band.capacity = band.found + band.found / 4;
      grew = true;
    }
    if (!grew) return;
  }
}

}  // namespace

int bands::default_count() {
  const int lanes = rt::WorkerPool::shared().lanes();
  return lanes == 1 ? 1 : kBandsPerLane * lanes;
}

std::vector<Feature> bands::extract(const OrbOptions& opts,
                                    const BriefDescriptorExtractor& brief,
                                    OrbScratch& s, const img::GrayImage& image,
                                    int bands) {
  // Light blur suppresses point-sampling shimmer so FAST corners and
  // BRIEF bits are stable across frames.
  img::build_blurred_pyramid_into(image, opts.pyramid_levels, s.pyramid);
  plan_bands(s, bands);
  scan_bands(opts, s);

  // Per level, the bands' corners joined in band order — the row-major
  // order of a one-band scan, which the unstable score sort needs to see
  // unchanged — then suppression and retention.
  s.kept.clear();
  std::size_t i = 0;
  for (std::size_t level = 0; level < s.pyramid.size(); ++level) {
    const std::size_t begin = s.bands[i].offset;
    std::size_t end = begin;
    for (; i < s.bands.size() && s.bands[i].level == level; ++i) {
      const OrbScratch::Band& band = s.bands[i];
      if (band.offset != end) {
        const Corner* from = s.corners.data() + band.offset;
        std::copy(from, from + band.found, s.corners.data() + end);
      }
      end += band.found;
    }
    const std::size_t first_kept = s.kept.size();
    suppress_and_retain(s.pyramid[level], level_options(opts, level),
                        std::span(s.corners).subspan(begin, end - begin),
                        s.kept);
    for (std::size_t k = first_kept; k < s.kept.size(); ++k) {
      s.kept[k].octave = static_cast<std::uint8_t>(level);
    }
  }

  // Orientation and descriptor of each kept keypoint, in index chunks.
  const std::size_t n = s.kept.size();
  std::vector<Feature> all(n);
  rt::WorkerPool::shared().run(
      (n + kDescribeChunk - 1) / kDescribeChunk, [&](std::size_t chunk) {
        const std::size_t last = std::min(n, (chunk + 1) * kDescribeChunk);
        for (std::size_t k = chunk * kDescribeChunk; k < last; ++k) {
          Keypoint kp = s.kept[k];
          const img::GrayImage& level = s.pyramid[kp.octave];
          kp.angle = compute_orientation(level, static_cast<int>(kp.pixel.x),
                                         static_cast<int>(kp.pixel.y));
          Feature& f = all[k];
          f.kp = kp;
          f.desc = brief.compute(level, kp);
          // Report position at full resolution.
          f.kp.pixel = kp.pixel * std::ldexp(1.0, kp.octave);
        }
      });
  return all;
}

std::vector<Feature> OrbExtractor::extract(const img::GrayImage& image) const {
  return bands::extract(opts_, brief_, scratch_, image,
                        bands::default_count());
}

}  // namespace edgeis::feat
