// Combined ORB-style extractor: pyramid + FAST + oriented BRIEF. Keypoint
// positions are reported at full-image resolution regardless of the octave
// they were detected at (Section VI-A: "we use ORB feature for its
// efficiency in computing and robustness against the change of viewpoints").
#pragma once

#include <cstddef>
#include <vector>

#include "features/descriptor.hpp"
#include "features/detector.hpp"
#include "image/image.hpp"

namespace edgeis::feat {

struct OrbOptions {
  DetectorOptions detector;
  int pyramid_levels = 3;
};

/// An extractor's frame scratch, reused across frames and sized on the
/// calling thread: the blurred pyramid, and one buffer of FAST corners
/// holding each band's slice, level by level in band order.
struct OrbScratch {
  struct Band {
    std::size_t level = 0;
    int y_begin = 0, y_end = 0;  // image rows
    std::size_t offset = 0;      // the band's slice of `corners`
    std::size_t capacity = 0;
    std::size_t found = 0;
  };
  std::vector<img::GrayImage> pyramid;
  std::vector<Band> bands;
  std::vector<Corner> corners;
  std::vector<Keypoint> kept;
};

class OrbExtractor {
 public:
  explicit OrbExtractor(OrbOptions opts = {}) : opts_(opts) {}

  /// Extract oriented-BRIEF features over the blurred pyramid, on the
  /// process's worker pool. The scratch buffers are extractor-owned and
  /// reused across frames (mutable: reuse is invisible to callers — same
  /// output as a fresh extractor), so one extractor serves one thread at a
  /// time.
  [[nodiscard]] std::vector<Feature> extract(const img::GrayImage& image) const;

 private:
  OrbOptions opts_;
  BriefDescriptorExtractor brief_;
  mutable OrbScratch scratch_;
};

}  // namespace edgeis::feat
