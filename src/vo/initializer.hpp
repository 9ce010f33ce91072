// Initial object modeling (Section III-A): pick a frame pair with enough
// parallax, estimate relative pose via the fundamental matrix (Eq. 1-2),
// triangulate an initial annotated map (Eq. 3) using accurate masks from
// the edge, applying the paper's feature-selection rules (blurriness and
// proximity checks; contour-band features preserved).
#pragma once

#include <optional>
#include <vector>

#include "features/feature.hpp"
#include "geometry/camera.hpp"
#include "image/image.hpp"
#include "mask/mask.hpp"
#include "runtime/rng.hpp"
#include "vo/map.hpp"

namespace edgeis::vo {

struct InitializerOptions {
  int min_matches = 60;
  int ransac_iterations = 300;
  double ransac_threshold = 2.0;       // Sampson distance
  double min_cheirality_ratio = 0.9;   // triangulated-in-front / inliers
  double min_median_parallax_deg = 1.0;
  double normalized_median_depth = 5.0;  // map scale after normalization
  double min_sharpness = 6.0;            // blurriness-check threshold
  double min_feature_spacing = 3.0;      // proximity check (pixels)
  int contour_band_px = 6;               // "near the edge of the mask"
};

struct InitializationInput {
  int frame_index0 = 0;
  int frame_index1 = 0;
  const img::GrayImage* image0 = nullptr;  // for sharpness checks
  const img::GrayImage* image1 = nullptr;
  std::vector<feat::Feature> features0;
  std::vector<feat::Feature> features1;
  // Accurate per-instance masks from the edge for both frames.
  std::vector<mask::InstanceMask> masks0;
  std::vector<mask::InstanceMask> masks1;
};

struct InitializationResult {
  geom::SE3 t_cw0;  // identity by construction (frame 0 is the world origin)
  geom::SE3 t_cw1;
  int triangulated_points = 0;
  int labeled_points = 0;
};

/// Why an initialization attempt stopped — for diagnostics and tests.
struct InitializationDebug {
  int selected_features = 0;
  int matches = 0;
  int ransac_inliers = 0;
  double cheirality_ratio = 0.0;
  double median_parallax_deg = 0.0;
  const char* fail_reason = "";
};

/// Attempt initialization. On success the map is populated with annotated
/// points and the two keyframes; on failure the map is left untouched and
/// the caller should try a different frame pair.
std::optional<InitializationResult> initialize_map(
    const geom::PinholeCamera& camera, const InitializationInput& input,
    Map& map, rt::Rng& rng, const InitializerOptions& opts = {},
    InitializationDebug* debug = nullptr);

/// Look up the instance mask containing pixel (x, y); returns nullptr when
/// the pixel is background in every mask.
const mask::InstanceMask* mask_at(const std::vector<mask::InstanceMask>& masks,
                                  double x, double y);

}  // namespace edgeis::vo
