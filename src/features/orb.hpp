// Combined ORB-style extractor: pyramid + FAST + oriented BRIEF. Keypoint
// positions are reported at full-image resolution regardless of the octave
// they were detected at (Section VI-A: "we use ORB feature for its
// efficiency in computing and robustness against the change of viewpoints").
#pragma once

#include <vector>

#include "features/descriptor.hpp"
#include "features/detector.hpp"
#include "image/image.hpp"

namespace edgeis::feat {

struct OrbOptions {
  DetectorOptions detector;
  int pyramid_levels = 3;
};

class OrbExtractor {
 public:
  explicit OrbExtractor(OrbOptions opts = {}) : opts_(opts) {}

  /// Extract oriented-BRIEF features over the blurred pyramid. The blur
  /// and pyramid level buffers are extractor-owned scratch reused across
  /// frames (mutable: reuse is invisible to callers — same output as a
  /// fresh extractor).
  [[nodiscard]] std::vector<Feature> extract(const img::GrayImage& image) const;

 private:
  OrbOptions opts_;
  BriefDescriptorExtractor brief_;
  mutable std::vector<img::GrayImage> pyramid_;  // frame-scratch, reused
};

}  // namespace edgeis::feat
