#include "vo/tracker.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "features/matcher.hpp"
#include "geometry/epipolar.hpp"
#include "vo/initializer.hpp"

namespace edgeis::vo {

Tracker::Tracker(geom::PinholeCamera camera, Map* map, rt::Rng rng,
                 TrackerOptions opts)
    : camera_(camera), map_(map), rng_(rng), opts_(opts) {
  if (!map_->keyframes().empty()) {
    last_keyframe_frame_ = map_->keyframes().back().frame_index;
  }
}

FrameObservation Tracker::track(int frame_index,
                                std::vector<feat::Feature> features) {
  FrameObservation obs;
  obs.frame_index = frame_index;
  obs.features = std::move(features);
  obs.matched_point_ids.assign(obs.features.size(), -1);

  // ---- Pose prediction: constant-velocity model. -------------------------
  // After a tracking loss the velocity is unreliable: predict from the last
  // good pose and progressively widen the search window instead
  // (lightweight relocalization).
  geom::SE3 predicted = last_pose_;
  if (has_history_ && consecutive_lost_ == 0) {
    const geom::SE3 velocity = last_pose_ * prev_pose_.inverse();
    predicted = velocity * last_pose_;
  }
  const double radius_scale =
      std::min(4.0, 1.0 + 0.75 * static_cast<double>(consecutive_lost_));

  // ---- Project map points and match into the frame. ----------------------
  auto points = map_->all_points();
  std::vector<feat::Feature> queries;
  std::vector<std::optional<geom::Vec2>> predictions;
  std::vector<MapPoint*> query_points;
  queries.reserve(points.size());
  for (MapPoint* mp : points) {
    geom::Vec3 world = mp->position;
    if (mp->object_instance != 0) {
      const auto it = map_->objects().find(mp->object_instance);
      if (it != map_->objects().end()) {
        world = it->second.displacement * world;
      }
    }
    const auto px = camera_.project_world(predicted, world);
    if (!px || !camera_.in_image(*px, -opts_.search_radius)) continue;
    feat::Feature q;
    q.kp.pixel = *px;
    q.desc = mp->descriptor;
    queries.push_back(q);
    predictions.emplace_back(*px);
    query_points.push_back(mp);
  }

  feat::MatchOptions mopts;
  mopts.search_radius = opts_.search_radius * radius_scale;
  const auto matches =
      feat::match_windowed(queries, predictions, obs.features, mopts);

  // ---- Device pose from background points (Eq. 4-5). ---------------------
  std::vector<geom::PnpCorrespondence> bg_corrs;
  struct ObjObs {
    MapPoint* point;
    geom::Vec2 pixel;
  };
  std::unordered_map<int, std::vector<ObjObs>> object_obs;

  for (const auto& m : matches) {
    MapPoint* mp = query_points[m.index0];
    obs.matched_point_ids[m.index1] = mp->id;
    ++obs.matched_total;
    if (mp->annotated) ++obs.matched_annotated;
    mp->observations += 1;
    mp->last_seen_frame = frame_index;
    // Refresh the representative descriptor so it adapts to gradual
    // viewpoint change.
    mp->descriptor = obs.features[m.index1].desc;

    const geom::Vec2 pixel = obs.features[m.index1].kp.pixel;
    if (mp->object_instance == 0) {
      bg_corrs.push_back({mp->position, pixel});
    } else {
      object_obs[mp->object_instance].push_back({mp, pixel});
    }
  }

  geom::PnpOptions pnp_opts;
  const auto pose_result =
      geom::solve_pnp(camera_, bg_corrs, predicted, pnp_opts);
  if (pose_result && pose_result->inlier_count >= opts_.min_pose_inliers) {
    obs.t_cw = pose_result->t_cw;
    obs.tracking_ok = true;
    obs.pose_inliers = pose_result->inlier_count;
    consecutive_lost_ = 0;
    prev_pose_ = last_pose_;
    last_pose_ = obs.t_cw;
    has_history_ = true;
  } else {
    // Tracking loss: fall back to the prediction so downstream modules can
    // degrade gracefully instead of crashing; keep the last good pose as
    // the relocalization anchor.
    obs.t_cw = predicted;
    obs.tracking_ok = false;
    ++consecutive_lost_;
  }

  // ---- Per-object poses (Eq. 6-7). ---------------------------------------
  for (auto& [instance_id, observations] : object_obs) {
    ObjectTrack& track = map_->object(instance_id);
    if (static_cast<int>(observations.size()) < opts_.min_object_points) {
      // Too small or too far for accurate estimation (paper, Section III-B).
      track.currently_tracked = false;
      continue;
    }
    // Solve the composite pose M = T_cw * D_o over the object's stored
    // point positions, then recover the displacement D_o.
    std::vector<geom::PnpCorrespondence> corrs;
    corrs.reserve(observations.size());
    for (const auto& o : observations) {
      corrs.push_back({o.point->position, o.pixel});
    }
    const geom::SE3 initial = obs.t_cw * track.displacement;
    const auto obj_pose = geom::solve_pnp(camera_, corrs, initial, pnp_opts);
    if (!obj_pose ||
        obj_pose->inlier_count < opts_.min_object_points) {
      track.currently_tracked = false;
      continue;
    }
    const geom::SE3 displacement = obs.t_cw.inverse() * obj_pose->t_cw;
    track.currently_tracked = true;
    track.last_pose_update_frame = frame_index;
    obs.tracked_objects.push_back(instance_id);

    // A displacement meaningfully away from identity marks the object as
    // moving (the estimated device poses w.r.t. background vs object
    // differ — Eq. 6). Hysteresis keeps PnP noise on small point groups
    // from flagging static objects, and small groups (noise-dominated
    // solves) cannot latch the flag at all. Until the object is declared
    // moving, the *applied* displacement stays identity so static objects
    // are immune to per-frame pose jitter.
    const double trans = displacement.t.norm();
    const double rot_deg =
        geom::so3_log(displacement.R).norm() * 180.0 / M_PI;
    const bool exceeds = (trans > opts_.moving_translation_eps ||
                          rot_deg > opts_.moving_rotation_eps_deg) &&
                         obj_pose->inlier_count >= opts_.min_moving_inliers;
    track.moving_streak = exceeds ? track.moving_streak + 1 : 0;
    if (track.moving_streak >= opts_.moving_hysteresis) {
      track.is_moving = true;
    }
    track.displacement =
        track.is_moving ? displacement : geom::SE3::identity();
  }

  // ---- CFRS trigger input: proportion of matched features whose map
  // point is not yet annotated by an accurate edge mask ("newly emerging
  // scenes", Section V). ----------------------------------------------------
  if (obs.matched_total > 0) {
    obs.unlabeled_fraction =
        static_cast<double>(obs.matched_total - obs.matched_annotated) /
        static_cast<double>(obs.matched_total);
  }

  // ---- Keyframe policy and map growth. ------------------------------------
  const double tracked_ratio =
      obs.features.empty()
          ? 0.0
          : static_cast<double>(obs.matched_total) /
                static_cast<double>(obs.features.size());
  const bool interval_due =
      frame_index - last_keyframe_frame_ >= opts_.keyframe_interval;
  const bool decay_due = obs.tracking_ok &&
                         tracked_ratio < opts_.min_tracked_ratio &&
                         frame_index - last_keyframe_frame_ >= 3;
  if (obs.tracking_ok && (interval_due || decay_due)) {
    create_keyframe(obs);
    obs.created_keyframe = true;
    last_keyframe_frame_ = frame_index;
    cull_points(frame_index);
  }

  map_->enforce_memory_budget(opts_.memory_budget_bytes, frame_index);
  return obs;
}

void Tracker::cull_points(int frame_index) {
  // Points that were triangulated but never re-matched are mostly junk
  // (mismatches, moving-object parallax): drop them once they have had a
  // fair chance to be observed. Keeps the map compact and the per-frame
  // projection matching clean (ORB-SLAM's point-culling policy).
  std::vector<int> doomed;
  for (const MapPoint* mp : map_->all_points()) {
    if (mp->observations <= 2 &&
        frame_index - mp->created_frame > opts_.cull_after_frames) {
      doomed.push_back(mp->id);
    }
  }
  for (int id : doomed) map_->remove_point(id);
}

void Tracker::create_keyframe(FrameObservation& obs) {
  Keyframe kf;
  kf.frame_index = obs.frame_index;
  kf.t_cw = obs.t_cw;
  kf.features = obs.features;
  kf.point_ids = obs.matched_point_ids;
  kf.has_masks = false;
  for (const auto& [instance_id, track] : map_->objects()) {
    kf.object_displacements[instance_id] = track.displacement;
  }

  if (!map_->keyframes().empty()) {
    triangulate_new_points(map_->keyframes().back(), kf);
  }
  map_->add_keyframe(std::move(kf));
}

void Tracker::triangulate_new_points(const Keyframe& previous, Keyframe& current) {
  // Collect features without a map point on both keyframes and match them.
  std::vector<feat::Feature> prev_free, curr_free;
  std::vector<std::size_t> prev_idx, curr_idx;
  for (std::size_t i = 0; i < previous.features.size(); ++i) {
    if (previous.point_ids[i] < 0) {
      prev_free.push_back(previous.features[i]);
      prev_idx.push_back(i);
    }
  }
  for (std::size_t i = 0; i < current.features.size(); ++i) {
    if (current.point_ids[i] < 0) {
      curr_free.push_back(current.features[i]);
      curr_idx.push_back(i);
    }
  }
  if (prev_free.empty() || curr_free.empty()) return;

  const auto matches = feat::match_brute_force(prev_free, curr_free);
  for (const auto& m : matches) {
    const auto p = geom::triangulate(camera_, previous.t_cw, current.t_cw,
                                     prev_free[m.index0].kp.pixel,
                                     curr_free[m.index1].kp.pixel);
    if (!p) continue;
    // Reprojection sanity check in both views.
    const auto r0 = camera_.project_world(previous.t_cw, *p);
    const auto r1 = camera_.project_world(current.t_cw, *p);
    if (!r0 || !r1) continue;
    if ((*r0 - prev_free[m.index0].kp.pixel).squared_norm() > 4.0 ||
        (*r1 - curr_free[m.index1].kp.pixel).squared_norm() > 4.0) {
      continue;
    }

    MapPoint mp;
    mp.position = *p;
    mp.descriptor = curr_free[m.index1].desc;
    mp.created_frame = current.frame_index;
    mp.last_seen_frame = current.frame_index;
    mp.observations = 2;
    mp.annotated = false;  // awaits an edge mask
    const int id = map_->add_point(mp);
    current.point_ids[curr_idx[m.index1]] = id;
    // The previous keyframe is const (already stored); its observation
    // record is not updated retroactively — the map point carries both
    // observations in its counters.
  }
  (void)prev_idx;
}

void Tracker::annotate_keyframe(int frame_index,
                                const std::vector<mask::InstanceMask>& masks) {
  Keyframe* kf = map_->keyframe_by_index(frame_index);
  if (kf == nullptr) return;
  kf->masks = masks;
  kf->has_masks = true;

  for (std::size_t i = 0; i < kf->features.size(); ++i) {
    const int pid = kf->point_ids[i];
    if (pid < 0) continue;
    MapPoint* mp = map_->find(pid);
    if (mp == nullptr) continue;

    const auto& px = kf->features[i].kp.pixel;
    const mask::InstanceMask* m = mask_at(masks, px.x, px.y);
    if (m != nullptr) {
      // Re-labeling an already-annotated point keeps the newer label: the
      // edge's latest inference is the most trustworthy.
      if (mp->object_instance != m->instance_id) {
        // Never attach new points to an object that is already moving:
        // its displacement estimate carries noise, and folding that noise
        // into stored point positions degrades every subsequent pose
        // solve for the object (error feedback). The initial point group
        // keeps tracking it, as in the paper.
        const auto moving_it = map_->objects().find(m->instance_id);
        if (moving_it != map_->objects().end() &&
            moving_it->second.is_moving) {
          mp->annotated = true;
          continue;
        }
        if (mp->object_instance != 0) {
          auto it = map_->objects().find(mp->object_instance);
          if (it != map_->objects().end()) it->second.point_count -= 1;
        }
        ObjectTrack& track = map_->object(m->instance_id);
        track.class_id = m->class_id;
        track.point_count += 1;
        // Keep the invariant "current world position = displacement *
        // stored position": a point triangulated in world coordinates
        // joins the object's creation-time frame.
        mp->position = track.displacement.inverse() * mp->position;
      }
      mp->class_id = m->class_id;
      mp->object_instance = m->instance_id;
      // Contour-band check for retention priority.
      const int xi = static_cast<int>(px.x);
      const int yi = static_cast<int>(px.y);
      mp->near_contour = false;
      for (int dy = -6; dy <= 6 && !mp->near_contour; ++dy) {
        for (int dx = -6; dx <= 6; ++dx) {
          if (!m->get(xi + dx, yi + dy)) {
            mp->near_contour = true;
            break;
          }
        }
      }
    } else if (mp->object_instance == 0) {
      // Outside every mask and previously background: confirm.
      mp->class_id = 0;
      mp->near_contour = false;
    } else {
      // Outside every mask but labeled as an object. Distinguish a
      // *boundary correction* (the edge did return a mask for this object,
      // and this point fell outside it -> the old label was wrong) from a
      // *miss* (no mask for the object at all -> demoting would destroy
      // the point group and the ability to re-detect it).
      bool object_detected = false;
      for (const auto& returned : masks) {
        if (returned.instance_id == mp->object_instance) {
          object_detected = true;
          break;
        }
      }
      // Moving objects keep their (initial) point group intact: they also
      // cannot gain replacement points, so boundary-level demotions would
      // bleed the group dry over successive edge updates.
      const auto obj_it = map_->objects().find(mp->object_instance);
      if (obj_it != map_->objects().end() && obj_it->second.is_moving) {
        object_detected = false;
      }
      if (object_detected) {
        auto it = map_->objects().find(mp->object_instance);
        if (it != map_->objects().end()) it->second.point_count -= 1;
        mp->class_id = 0;
        mp->object_instance = 0;
        mp->near_contour = false;
      }
    }
    mp->annotated = true;
  }
}

}  // namespace edgeis::vo
