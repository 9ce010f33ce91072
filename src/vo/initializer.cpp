#include "vo/initializer.hpp"

#include <algorithm>
#include <cmath>

#include "features/matcher.hpp"
#include "geometry/epipolar.hpp"

namespace edgeis::vo {
namespace {

/// True when the feature sits within `band` pixels of the mask contour —
/// such features are "more representative for the object's shape" and are
/// always preserved (Section III-A).
bool near_mask_contour(const mask::InstanceMask& m, double x, double y,
                       int band) {
  const int xi = static_cast<int>(x);
  const int yi = static_cast<int>(y);
  if (!m.get(xi, yi)) return false;
  for (int dy = -band; dy <= band; ++dy) {
    for (int dx = -band; dx <= band; ++dx) {
      if (!m.get(xi + dx, yi + dy)) return true;
    }
  }
  return false;
}

}  // namespace

const mask::InstanceMask* mask_at(const std::vector<mask::InstanceMask>& masks,
                                  double x, double y) {
  const int xi = static_cast<int>(x);
  const int yi = static_cast<int>(y);
  for (const auto& m : masks) {
    if (m.get(xi, yi)) return &m;
  }
  return nullptr;
}

std::optional<InitializationResult> initialize_map(
    const geom::PinholeCamera& camera, const InitializationInput& input,
    Map& map, rt::Rng& rng, const InitializerOptions& opts,
    InitializationDebug* debug) {
  InitializationDebug local_debug;
  if (debug == nullptr) debug = &local_debug;
  if (input.image0 == nullptr || input.image1 == nullptr) {
    debug->fail_reason = "missing images";
    return std::nullopt;
  }

  // ---- Feature selection (Section III-A). -------------------------------
  // Background features: drop blurred ones and ones too close to a kept
  // neighbor. Mask features: always keep the contour band, blur-check the
  // interior.
  const img::GrayImage grad0 = img::sobel_magnitude(*input.image0);

  std::vector<std::size_t> selected;
  std::vector<geom::Vec2> kept_positions;
  std::vector<bool> contour_flag(input.features0.size(), false);
  for (std::size_t i = 0; i < input.features0.size(); ++i) {
    const auto& f = input.features0[i];
    const double x = f.kp.pixel.x, y = f.kp.pixel.y;
    const mask::InstanceMask* m = mask_at(input.masks0, x, y);
    bool keep;
    if (m != nullptr && near_mask_contour(*m, x, y, opts.contour_band_px)) {
      keep = true;  // contour band: preserved unconditionally
      contour_flag[i] = true;
    } else {
      const double sharpness = img::local_sharpness(
          grad0, static_cast<int>(x), static_cast<int>(y));
      keep = sharpness >= opts.min_sharpness;
      if (keep && m == nullptr) {
        // Proximity check for background features only.
        for (const auto& kp : kept_positions) {
          if ((kp - f.kp.pixel).squared_norm() <
              opts.min_feature_spacing * opts.min_feature_spacing) {
            keep = false;
            break;
          }
        }
      }
    }
    if (keep) {
      selected.push_back(i);
      kept_positions.push_back(f.kp.pixel);
    }
  }

  std::vector<feat::Feature> sel0;
  sel0.reserve(selected.size());
  for (std::size_t i : selected) sel0.push_back(input.features0[i]);

  // ---- Matching and relative pose (Eq. 1-2). ----------------------------
  debug->selected_features = static_cast<int>(sel0.size());
  const auto matches = feat::match_brute_force(sel0, input.features1);
  debug->matches = static_cast<int>(matches.size());
  if (static_cast<int>(matches.size()) < opts.min_matches) {
    debug->fail_reason = "too few matches";
    return std::nullopt;
  }

  std::vector<geom::PixelMatch> pixel_matches;
  pixel_matches.reserve(matches.size());
  for (const auto& m : matches) {
    pixel_matches.push_back(
        {sel0[m.index0].kp.pixel, input.features1[m.index1].kp.pixel});
  }

  // The paper solves F primarily from background pairs (they are more
  // likely static); our RANSAC achieves the same effect by consensus —
  // moving-object matches fall out as outliers.
  auto fres = geom::estimate_fundamental_ransac(
      pixel_matches, rng, opts.ransac_iterations, opts.ransac_threshold);
  if (fres) debug->ransac_inliers = fres->inlier_count;
  if (!fres || fres->inlier_count < opts.min_matches) {
    debug->fail_reason = "too few RANSAC inliers";
    return std::nullopt;
  }

  const geom::Mat3 e =
      geom::essential_from_fundamental(fres->f, camera.k_matrix());

  std::vector<geom::PixelMatch> inlier_matches;
  std::vector<std::size_t> inlier_match_index;  // into `matches`
  for (std::size_t i = 0; i < pixel_matches.size(); ++i) {
    if (fres->inliers[i]) {
      inlier_matches.push_back(pixel_matches[i]);
      inlier_match_index.push_back(i);
    }
  }

  auto pose = geom::recover_pose(e, camera, inlier_matches);
  if (!pose) {
    debug->fail_reason = "pose recovery failed";
    return std::nullopt;
  }

  // Cheirality acceptance: most inliers must triangulate in front of both
  // cameras, otherwise the baseline/parallax is insufficient and the caller
  // should wait for more motion.
  const double cheirality_ratio =
      static_cast<double>(pose->good_count) /
      static_cast<double>(inlier_matches.size());
  debug->cheirality_ratio = cheirality_ratio;
  if (cheirality_ratio < opts.min_cheirality_ratio) {
    debug->fail_reason = "insufficient cheirality agreement";
    return std::nullopt;
  }

  // Median parallax check.
  std::vector<double> parallaxes;
  const geom::SE3 identity = geom::SE3::identity();
  for (std::size_t i = 0; i < inlier_matches.size(); ++i) {
    if (pose->valid[i]) {
      parallaxes.push_back(
          geom::parallax_deg(pose->points[i], identity, pose->t_10));
    }
  }
  if (parallaxes.empty()) {
    debug->fail_reason = "no parallax samples";
    return std::nullopt;
  }
  std::nth_element(parallaxes.begin(),
                   parallaxes.begin() + static_cast<std::ptrdiff_t>(parallaxes.size() / 2),
                   parallaxes.end());
  debug->median_parallax_deg = parallaxes[parallaxes.size() / 2];
  if (parallaxes[parallaxes.size() / 2] < opts.min_median_parallax_deg) {
    debug->fail_reason = "insufficient parallax";
    return std::nullopt;
  }

  // ---- Scale normalization (monocular scale is arbitrary). --------------
  std::vector<double> depths;
  for (std::size_t i = 0; i < inlier_matches.size(); ++i) {
    if (pose->valid[i]) depths.push_back(pose->points[i].z);
  }
  std::nth_element(depths.begin(), depths.begin() + static_cast<std::ptrdiff_t>(depths.size() / 2),
                   depths.end());
  const double scale =
      opts.normalized_median_depth / depths[depths.size() / 2];

  // ---- Map construction and annotation (Eq. 3 + labeling). --------------
  InitializationResult result;
  result.t_cw0 = geom::SE3::identity();
  result.t_cw1 = geom::SE3{pose->t_10.R, pose->t_10.t * scale};

  Keyframe kf0, kf1;
  kf0.frame_index = input.frame_index0;
  kf0.t_cw = result.t_cw0;
  kf0.features = sel0;
  kf0.point_ids.assign(sel0.size(), -1);
  kf0.masks = input.masks0;
  kf0.has_masks = true;
  kf1.frame_index = input.frame_index1;
  kf1.t_cw = result.t_cw1;
  kf1.features = input.features1;
  kf1.point_ids.assign(input.features1.size(), -1);
  kf1.masks = input.masks1;
  kf1.has_masks = true;

  for (std::size_t i = 0; i < inlier_matches.size(); ++i) {
    if (!pose->valid[i]) continue;
    const auto& match = matches[inlier_match_index[i]];

    MapPoint mp;
    mp.position = pose->points[i] * scale;
    mp.descriptor = sel0[match.index0].desc;
    mp.created_frame = input.frame_index0;
    mp.last_seen_frame = input.frame_index1;
    mp.observations = 2;
    mp.annotated = true;

    // Label: both observations must fall inside masks with the same class
    // (Section III-A); otherwise the point is background.
    const auto& px0 = inlier_matches[i].p0;
    const auto& px1 = inlier_matches[i].p1;
    const mask::InstanceMask* m0 = mask_at(input.masks0, px0.x, px0.y);
    const mask::InstanceMask* m1 = mask_at(input.masks1, px1.x, px1.y);
    if (m0 != nullptr && m1 != nullptr && m0->class_id == m1->class_id) {
      mp.class_id = m0->class_id;
      mp.object_instance = m0->instance_id;
      mp.near_contour = contour_flag[selected[match.index0]] ||
                        near_mask_contour(*m0, px0.x, px0.y, 6);
      ++result.labeled_points;

      ObjectTrack& track = map.object(m0->instance_id);
      track.class_id = m0->class_id;
      ++track.point_count;
    }

    const int id = map.add_point(mp);
    kf0.point_ids[match.index0] = id;
    kf1.point_ids[match.index1] = id;
    ++result.triangulated_points;
  }

  if (result.triangulated_points < opts.min_matches / 2) {
    debug->fail_reason = "too few triangulated points";
    return std::nullopt;
  }

  map.add_keyframe(std::move(kf0));
  map.add_keyframe(std::move(kf1));
  return result;
}

}  // namespace edgeis::vo
