// Motion tracking (Section III-B): per-frame device pose from annotated
// background points (Eq. 4-5), individual object poses from each object's
// point group (Eq. 6-7), map growth by triangulation against the last
// keyframe, and deferred annotation when accurate edge masks arrive.
#pragma once

#include <optional>
#include <vector>

#include "features/feature.hpp"
#include "geometry/camera.hpp"
#include "geometry/pnp.hpp"
#include "mask/mask.hpp"
#include "runtime/rng.hpp"
#include "vo/map.hpp"

namespace edgeis::vo {

struct TrackerOptions {
  double search_radius = 20.0;     // windowed-match radius (pixels)
  int min_pose_inliers = 10;       // device-pose PnP acceptance
  int min_object_points = 4;       // paper: >= 3 pairs needed for BA
  int keyframe_interval = 10;      // frames between keyframes
  double min_tracked_ratio = 0.2;  // early keyframe when tracking decays
  double moving_translation_eps = 0.15;  // displacement => "moving" (map units)
  double moving_rotation_eps_deg = 6.0;
  int moving_hysteresis = 3;  // consecutive exceedances before flagging
  int min_moving_inliers = 8; // smaller solves are too noisy to trust
  int cull_after_frames = 30;  // drop never-rematched points after this age
  std::size_t memory_budget_bytes = 1024ull * 1024ull * 1024ull;  // 1 GB
};

/// Everything downstream modules need about a tracked frame.
struct FrameObservation {
  int frame_index = 0;
  geom::SE3 t_cw;
  bool tracking_ok = false;
  std::vector<feat::Feature> features;
  std::vector<int> matched_point_ids;  // parallel to features; -1 = none
  int matched_total = 0;
  int matched_annotated = 0;
  /// Among features matched to a map point, the fraction whose point has
  /// not yet been annotated by an accurate edge mask — the "newly emerging
  /// scene" signal the CFRS transmission trigger thresholds (t = 0.25).
  double unlabeled_fraction = 1.0;
  bool created_keyframe = false;
  int pose_inliers = 0;
  /// Instance ids of objects whose pose was updated this frame.
  std::vector<int> tracked_objects;
};

class Tracker {
 public:
  Tracker(geom::PinholeCamera camera, Map* map, rt::Rng rng,
          TrackerOptions opts = {});

  /// Process one frame. The map must have been initialized (two keyframes).
  FrameObservation track(int frame_index, std::vector<feat::Feature> features);

  /// Deferred annotation: accurate masks arrived from the edge for a frame
  /// that is stored as a keyframe. Labels the map points observed in that
  /// keyframe and refreshes object point groups.
  void annotate_keyframe(int frame_index,
                         const std::vector<mask::InstanceMask>& masks);

  [[nodiscard]] const geom::SE3& current_pose() const { return last_pose_; }
  [[nodiscard]] Map& map() { return *map_; }

  /// Seed the velocity model after initialization.
  void set_initial_poses(const geom::SE3& prev, const geom::SE3& last) {
    prev_pose_ = prev;
    last_pose_ = last;
    has_history_ = true;
  }

 private:
  void create_keyframe(FrameObservation& obs);
  void triangulate_new_points(const Keyframe& previous, Keyframe& current);
  void cull_points(int frame_index);

  geom::PinholeCamera camera_;
  Map* map_;
  rt::Rng rng_;
  TrackerOptions opts_;

  geom::SE3 prev_pose_;
  geom::SE3 last_pose_;
  bool has_history_ = false;
  int last_keyframe_frame_ = 0;
  int consecutive_lost_ = 0;
};

}  // namespace edgeis::vo
