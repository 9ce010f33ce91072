// Local trackers used by the compared systems (Section VI-B): a motion-
// vector tracker (EAAR-style, also the best-effort baseline's local
// adjustment) and a correlation tracker (KCF-style, EdgeDuet). Both update
// cached masks by translation only — which is precisely why they are "too
// coarse for segmentation" (Section VI-C1): rotation, scale and shape
// change are not captured.
#pragma once

#include <optional>
#include <vector>

#include "features/feature.hpp"
#include "features/matcher.hpp"
#include "image/image.hpp"
#include "mask/mask.hpp"

namespace edgeis::core {

/// Mean displacement of feature matches whose source pixel lies inside the
/// mask (a block-motion-vector stand-in). Returns nullopt with fewer than
/// `min_matches` supporting matches.
std::optional<geom::Vec2> motion_vector(
    const std::vector<feat::Feature>& prev_features,
    const std::vector<feat::Feature>& curr_features,
    const std::vector<feat::Match>& matches, const mask::InstanceMask& mask,
    int min_matches = 3);

/// Correlation (template) tracker: finds the displacement of the content of
/// `box` from the previous frame in the current frame by normalized
/// cross-correlation over a +-`search_radius` window. KCF stand-in with the
/// same failure modes (translation-only, drifts under appearance change).
class CorrelationTracker {
 public:
  explicit CorrelationTracker(int search_radius = 16, int stride = 2)
      : search_radius_(search_radius), stride_(stride) {}

  /// Returns the displacement that best aligns prev(box) with curr, or
  /// nullopt when the correlation peak is too weak to trust.
  [[nodiscard]] std::optional<geom::Vec2> track(
      const img::GrayImage& prev, const img::GrayImage& curr,
      const mask::Box& box) const;

  /// Approximate per-object tracking cost in milliseconds on the reference
  /// mobile device (proportional to template area x search positions).
  [[nodiscard]] double cost_ms(const mask::Box& box) const;

 private:
  int search_radius_;
  int stride_;
};

}  // namespace edgeis::core
