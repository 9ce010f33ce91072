// Oriented BRIEF (rBRIEF-style) 256-bit descriptors. The comparison-point
// pattern is generated once per patch radius from a fixed seed, so
// descriptors are stable across runs and across the two devices comparing
// them, and every extractor of a radius shares it.
#pragma once

#include <cmath>
#include <vector>

#include "features/feature.hpp"
#include "image/image.hpp"

namespace edgeis::feat {

namespace kernels {
struct BriefPattern;  // features/brief_kernels.hpp
}  // namespace kernels

class BriefDescriptorExtractor {
 public:
  /// `patch_radius` bounds the sampled pattern; pattern is drawn from an
  /// isotropic Gaussian truncated to the patch, per the BRIEF paper.
  explicit BriefDescriptorExtractor(int patch_radius = 15);

  /// Compute the descriptor for a keypoint on the image it was detected on
  /// (pyramid-level coordinates). Samples are rotated by kp.angle.
  [[nodiscard]] Descriptor compute(const img::GrayImage& image,
                                   const Keypoint& kp) const;

  /// Convenience: describe all keypoints.
  [[nodiscard]] std::vector<Feature> compute_all(
      const img::GrayImage& image, const std::vector<Keypoint>& kps) const;

  [[nodiscard]] int patch_radius() const noexcept { return patch_radius_; }

  /// Keypoints at least this many pixels from every border sample without
  /// clamping. A pattern coordinate is at most patch_radius − 1, so a
  /// rotated sample lies within (patch_radius − 1)·√2 of the keypoint;
  /// +2 covers the bilinear +1 neighbour and float rounding.
  [[nodiscard]] int interior_margin() const noexcept {
    const double reach = (patch_radius_ - 1) * std::sqrt(2.0);
    return static_cast<int>(std::ceil(reach)) + 2;
  }

 private:
  /// The process-wide pattern of a patch radius, drawn on first use.
  static const kernels::BriefPattern& pattern_for(int patch_radius);
  int patch_radius_;
  const kernels::BriefPattern* pattern_;  // shared, immutable
};

}  // namespace edgeis::feat
