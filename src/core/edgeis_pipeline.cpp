#include "core/edgeis_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/local_trackers.hpp"
#include "encoding/tiles.hpp"
#include "features/matcher.hpp"
#include "net/protocol.hpp"
#include "runtime/log.hpp"

namespace edgeis::core {
namespace {

/// Bounding box of the features of `obs` matched to map points that pass
/// `keep`, and how many such features there are.
template <typename Keep>
std::pair<mask::Box, int> matched_feature_box(const vo::FrameObservation& obs,
                                              const vo::Map& map,
                                              const geom::PinholeCamera& cam,
                                              Keep keep) {
  int count = 0;
  mask::Box box{cam.width, cam.height, 0, 0};
  for (std::size_t i = 0; i < obs.features.size(); ++i) {
    const int pid = obs.matched_point_ids[i];
    if (pid < 0) continue;
    const vo::MapPoint* mp = map.find(pid);
    if (mp == nullptr || !keep(*mp)) continue;
    const auto& px = obs.features[i].kp.pixel;
    box.x0 = std::min(box.x0, static_cast<int>(px.x));
    box.y0 = std::min(box.y0, static_cast<int>(px.y));
    box.x1 = std::max(box.x1, static_cast<int>(px.x) + 1);
    box.y1 = std::max(box.y1, static_cast<int>(px.y) + 1);
    ++count;
  }
  return {box, count};
}

}  // namespace

EdgeISPipeline::EdgeISPipeline(const scene::SceneConfig& scene_config,
                               PipelineConfig config)
    : camera_(scene_config.camera),
      config_(std::move(config)),
      instance_class_(instance_class_table(scene_config)),
      rng_(config_.seed ^ 0xed9e15ULL),
      edge_(config_.model, config_.edge, rt::Rng(config_.seed ^ 0x5e7fULL),
            net::FaultInjector(config_.faults.uplink,
                               rt::Rng(config_.seed ^ 0xfa017ULL)),
            net::SendQueue(config_.link, rt::Rng(config_.seed ^ 0x5af1ULL))),
      requests_(config_, edge_, *this),
      render_queue_(scene_config.fps),
      uplink_encoder_(config_.encoding) {}

EdgeISPipeline::~EdgeISPipeline() = default;

bool EdgeISPipeline::on_chunks(LedgerEntry& e, bool complete, double now_ms) {
  // Apply whatever has arrived: a partial set still annotates the keyframe
  // and refreshes the fallback cache.
  const bool apply =
      phase_ == Phase::kRunning && !e.is_init && tracker_ != nullptr;
  if (apply) {
    tracker_->annotate_keyframe(e.frame_index, e.arrived_masks);
    for (const auto& m : e.arrived_masks) {
      auto cached = std::find_if(
          cached_masks_.begin(), cached_masks_.end(),
          [&](const mask::InstanceMask& c) {
            return c.instance_id == m.instance_id;
          });
      if (cached != cached_masks_.end()) {
        *cached = m;
      } else {
        cached_masks_.push_back(m);
      }
    }
    last_annotation_ms_ = now_ms;
  }
  if (!complete) return apply;

  edge_stats_.push_back(e.stats);
  last_annotation_ms_ = now_ms;
  if (phase_ == Phase::kAwaitInitMasks) {
    if (init_ref_ && e.frame_index == init_ref_->frame_index) {
      init_ref_->edge_masks = std::move(e.arrived_masks);
    } else if (init_pair_second_ &&
               e.frame_index == init_pair_second_->frame_index) {
      init_pair_second_->edge_masks = std::move(e.arrived_masks);
    }
    try_initialize();
  } else if (phase_ == Phase::kRunning && !e.is_init) {
    if (rt::Log::enabled(rt::LogSub::kNet, rt::LogLevel::kDebug)) {
      std::string ids;
      for (const auto& m : e.arrived_masks) {
        ids += std::to_string(m.instance_id) + ' ';
      }
      rt::Log::debug(rt::LogSub::kNet, "resp kf=%d masks=[%s]",
                     e.frame_index, ids.c_str());
    }
    // The completed set replaces the cache wholesale: instances absent
    // from this response have left the scene and must stop rendering.
    cached_masks_ = std::move(e.arrived_masks);
  }
  return apply;
}

void EdgeISPipeline::on_canvas_resync() {
  // The canvas chain is broken: owe the edge a full keyframe.
  uplink_encoder_.mark_diverged();
  if (phase_ == Phase::kRunning) force_refresh_ = true;
}

void EdgeISPipeline::on_canvas_upload_lost() {
  uplink_encoder_.mark_diverged();
}

void EdgeISPipeline::on_init_failed() {
  init_pair_second_.reset();
  probe_map_.reset();
  probe_result_.reset();
  if (phase_ == Phase::kAwaitInitMasks) {
    phase_ = Phase::kBootstrap;
    ++bootstrap_attempts_;
  }
}

void EdgeISPipeline::on_ping_recovery() {
  // A ping carries no masks: the tracker is owed a full-quality refresh.
  if (phase_ == Phase::kRunning) force_refresh_ = true;
}

bool EdgeISPipeline::pair_geometry_ok(
    const StoredFrame& f0, int frame_index1, const img::GrayImage& image1,
    const std::vector<feat::Feature>& features1) {
  // Run the initializer into a scratch map with no masks: a success means
  // the pair has enough matches, parallax and cheirality agreement. The
  // real (labeled) initialization happens once edge masks arrive.
  vo::Map scratch;
  vo::InitializationInput input;
  input.frame_index0 = f0.frame_index;
  input.frame_index1 = frame_index1;
  input.image0 = &f0.image;
  input.image1 = &image1;
  input.features0 = f0.features;
  input.features1 = features1;
  // Same per-pair seed as the labeled initialization, and *stricter*
  // acceptance margins: the labeled run selects a slightly different
  // feature set (mask-aware selection), so the probe must pass with room
  // to spare for its success to predict the labeled run's.
  rt::Rng probe(config_.seed ^
                (static_cast<std::uint64_t>(bootstrap_attempts_) << 40) ^
                (static_cast<std::uint64_t>(f0.frame_index) << 20) ^
                static_cast<std::uint64_t>(frame_index1));
  vo::InitializerOptions strict;
  strict.min_cheirality_ratio = 0.95;
  strict.min_median_parallax_deg = 1.5;
  strict.min_matches = 80;
  const auto result = vo::initialize_map(camera_, input,
                                         scratch, probe, strict);
  if (!result) return false;

  // Third-frame validation: a structurally wrong map (the twisted
  // essential-matrix solution occasionally survives the cheirality gate
  // under noise) cannot localize an *independent* frame. Solve PnP for the
  // previously probed bootstrap frame against the scratch map; the pose
  // must land near the interpolated motion of the pair.
  auto adopt = [&]() {
    probe_map_ = std::move(scratch);
    probe_result_ = *result;
    return true;
  };
  // Never adopt unvalidated geometry: the twisted solution shows up in
  // every preset sooner or later.
  if (!probe_mid_) return false;
  const double alpha =
      static_cast<double>(probe_mid_->frame_index - f0.frame_index) /
      static_cast<double>(frame_index1 - f0.frame_index);
  if (alpha <= 0.05 || alpha >= 0.95) return false;
  const geom::SE3 rel = result->t_cw1 * result->t_cw0.inverse();
  const geom::SE3 guess = rel.pow(alpha) * result->t_cw0;

  std::vector<feat::Feature> point_feats;
  std::vector<const vo::MapPoint*> points;
  for (const vo::MapPoint* mp : scratch.all_points()) {
    feat::Feature f;
    f.desc = mp->descriptor;
    point_feats.push_back(f);
    points.push_back(mp);
  }
  const auto matches =
      feat::match_brute_force(point_feats, probe_mid_->features);
  std::vector<geom::PnpCorrespondence> corrs;
  for (const auto& m : matches) {
    corrs.push_back({points[m.index0]->position,
                     probe_mid_->features[m.index1].kp.pixel});
  }
  const auto pnp = geom::solve_pnp(camera_, corrs, guess);
  if (!pnp || pnp->inlier_count < 25) return false;
  const double rot_err_deg =
      pnp->t_cw.rotation_angle_to(guess) * 180.0 / M_PI;
  if (rot_err_deg >= 10.0) return false;
  // Adopt this validated geometry outright: when the edge masks arrive,
  // they only add labels. Re-estimating the pose from the mask-aware
  // feature selection could flip to the twisted solution, so we never do.
  return adopt();
}

void EdgeISPipeline::try_initialize() {
  if (!init_ref_ || !init_pair_second_) return;
  if (!init_ref_->edge_masks || !init_pair_second_->edge_masks) return;
  if (!probe_map_ || !probe_result_) {
    phase_ = Phase::kBootstrap;
    init_pair_second_.reset();
    ++bootstrap_attempts_;
    return;
  }

  // Adopt the probe's validated map; the arrived masks only annotate it.
  map_ = std::move(*probe_map_);
  probe_map_.reset();
  const vo::InitializationResult result = *probe_result_;
  probe_result_.reset();

  vo::TrackerOptions topts;
  topts.search_radius = 24.0;
  tracker_ = std::make_unique<vo::Tracker>(camera_, &map_,
                                           rng_.fork(), topts);
  tracker_->annotate_keyframe(init_ref_->frame_index,
                              *init_ref_->edge_masks);
  tracker_->annotate_keyframe(init_pair_second_->frame_index,
                              *init_pair_second_->edge_masks);

  // Seed the constant-velocity model with the per-frame motion of the init
  // pair: the edge round trip took many frames, and at fast gaits the
  // camera has moved far beyond the search window by now. process()
  // extrapolates from these to the current frame.
  const int gap =
      std::max(1, init_pair_second_->frame_index - init_ref_->frame_index);
  init_velocity_ =
      (result.t_cw1 * result.t_cw0.inverse()).pow(1.0 / gap);
  init_pose_ = result.t_cw1;
  init_pose_frame_ = init_pair_second_->frame_index;
  just_initialized_ = true;
  mamt_ = std::make_unique<transfer::MaskTransfer>(camera_,
                                                   &map_);
  phase_ = Phase::kRunning;
  rt::Log::debug(rt::LogSub::kCore,
                 "initialized from probe map: pair (%d,%d), %zu points",
                 init_ref_->frame_index, init_pair_second_->frame_index,
                 map_.point_count());
}

std::vector<mask::Box> EdgeISPipeline::new_area_boxes(
    const vo::FrameObservation& obs) const {
  // Bounding box of features matched to not-yet-annotated map points: the
  // "newly emerging scene" region that needs pixel-level annotation.
  const auto [box, count] = matched_feature_box(
      obs, map_, camera_,
      [](const vo::MapPoint& mp) { return !mp.annotated; });
  if (count < 10 || box.empty()) return {};
  return {box.inflated(16, camera_.width, camera_.height)};
}

void EdgeISPipeline::predict_uplink_warp(const vo::FrameObservation& obs,
                                         enc::UplinkFrameInput& in) const {
  if (!have_last_tx_pose_ || !obs.tracking_ok) return;
  const auto& cam = camera_;
  // Where does last-keyframe content sit in this frame? Reproject a
  // scene-depth point at the image center of the last transmitted frame
  // through the current pose. The dominant depth comes from the VO map:
  // the median depth of this frame's matched points tracks whatever
  // surface actually fills the image, so the predicted shift lands on
  // the true image motion instead of a guessed constant.
  constexpr double kFallbackDepthM = 8.0;
  std::vector<double> depths;
  const std::size_t n =
      std::min(obs.features.size(), obs.matched_point_ids.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (obs.matched_point_ids[i] < 0) continue;
    const vo::MapPoint* p = map_.find(obs.matched_point_ids[i]);
    if (p == nullptr) continue;
    const double z = (obs.t_cw * p->position).z;
    if (z > 0.5) depths.push_back(z);
  }
  double depth = kFallbackDepthM;
  if (depths.size() >= 8) {
    auto mid = depths.begin() + static_cast<std::ptrdiff_t>(depths.size() / 2);
    std::nth_element(depths.begin(), mid, depths.end());
    depth = *mid;
  }
  const geom::Vec2 center{static_cast<double>(cam.width) / 2.0,
                          static_cast<double>(cam.height) / 2.0};
  const geom::Vec3 p_cam_last = cam.unproject_depth(center, depth);
  const geom::Vec3 p_world = last_tx_pose_.inverse() * p_cam_last;
  const auto px = cam.project_world(obs.t_cw, p_world);
  if (!px.has_value()) return;
  in.warp_dx_px = px->x - center.x;
  in.warp_dy_px = px->y - center.y;
  in.warp_valid = true;
}

std::size_t EdgeISPipeline::transmit(
    const scene::RenderedFrame& frame, const vo::FrameObservation& obs,
    const std::vector<transfer::TransferredMask>& priors,
    const std::vector<mask::Box>& new_areas, double now_ms,
    bool full_quality) {
  const auto& cam = camera_;

  std::vector<mask::InstanceMask> prior_masks;
  prior_masks.reserve(priors.size());
  for (const auto& p : priors) prior_masks.push_back(p.mask);

  enc::UplinkFrameInput in;
  in.frame_index = frame.index;
  in.width = cam.width;
  in.height = cam.height;
  in.intensity = &frame.intensity;
  in.prior_masks = &prior_masks;
  in.new_areas = &new_areas;
  in.cfrs_enabled = config_.enable_cfrs;
  in.full_quality = full_quality;
  in.congestion = requests_.congestion();
  predict_uplink_warp(obs, in);
  enc::UplinkPlan plan = uplink_encoder_.plan(in);

  segnet::InferenceRequest req;
  req.width = cam.width;
  req.height = cam.height;
  req.oracle = build_oracle(frame, instance_class_);
  req.content_quality = plan.content_quality;
  if (config_.enable_ciia && !full_frame_refresh_) {
    for (const auto& p : priors) {
      req.priors.push_back({*p.mask.bounding_box(), p.class_id,
                            p.instance_id});
    }
    req.new_areas = new_areas;
    req.use_dynamic_anchor_placement = !req.priors.empty();
    req.use_roi_pruning = !req.priors.empty();
  }

  rt::LinkHealthStats& health = requests_.health();
  std::size_t bytes = plan.encoded.total_bytes;
  EdgeServer::Upload upload;
  if (config_.encoding.uplink == enc::UplinkMode::kDelta) {
    // Honest wire accounting: serialize the actual protocol message
    // (codec framing, tile table, epoch chain, priors) and charge its
    // framed size — the delta savings must survive the real encoding.
    std::vector<net::KeyframeMessage::Prior> wire_priors;
    for (const auto& p : req.priors) {
      const auto& box = p.initial_box;
      wire_priors.push_back(
          {box.x0, box.y0, box.x1, box.y1, p.class_id, p.instance_id});
    }
    const std::vector<mask::Box>& wire_areas = req.new_areas;
    if (plan.is_delta) {
      net::DeltaKeyframeMessage msg;
      msg.frame_index = frame.index;
      msg.width = cam.width;
      msg.height = cam.height;
      msg.tile_size = static_cast<std::uint8_t>(plan.encoded.tile_size);
      msg.epoch = plan.delta.epoch;
      msg.base_epoch = plan.delta.base_epoch;
      msg.warp_dx_tiles =
          static_cast<std::int16_t>(plan.delta.warp_dx_tiles);
      msg.warp_dy_tiles =
          static_cast<std::int16_t>(plan.delta.warp_dy_tiles);
      for (const auto& t : plan.delta.tiles) {
        msg.tiles.push_back({static_cast<std::uint16_t>(t.index),
                             static_cast<std::uint8_t>(t.cls),
                             static_cast<std::uint8_t>(t.level)});
      }
      msg.tile_payload_bytes = plan.encoded.total_bytes;
      msg.priors = wire_priors;
      msg.new_areas = wire_areas;
      bytes = net::Codec::wire_bytes(msg);
      upload = std::move(plan.delta);
      ++health.canvas_deltas;
      health.canvas_tiles_sent += plan.tiles_sent;
      health.canvas_tiles_reused += plan.tiles_reused;
    } else {
      net::KeyframeMessage msg =
          net::build_keyframe_message(plan.encoded, wire_priors, wire_areas);
      msg.canvas_epoch = plan.epoch;
      bytes = net::Codec::wire_bytes(msg);
      upload = EdgeServer::CanvasFull{std::move(plan.encoded), plan.epoch};
      ++health.canvas_full_keyframes;
      health.canvas_tiles_sent += plan.tiles_sent;
    }
  }
  requests_.send(frame.index, bytes, std::move(req), std::move(upload),
                 /*is_init=*/false, now_ms);
  last_tx_frame_ = frame.index;
  last_tx_pose_ = obs.t_cw;
  have_last_tx_pose_ = obs.tracking_ok;
  return bytes;
}

FrameOutput EdgeISPipeline::process(const scene::RenderedFrame& frame) {
  const double now_ms = frame.timestamp * 1000.0;
  FrameOutput out;
  out.frame_index = frame.index;

  // Per-frame span with sequential stage children. The simulated stage
  // costs accrue into a single latency scalar; the spans lay them out
  // back-to-back, so child durations always sum exactly to the frame's
  // mobile latency. The span starts at the frame timestamp unless the
  // previous frame overran the frame interval, in which case it starts
  // where that one ended (the device is still busy) — mobile-track spans
  // never overlap. Tracing must not perturb the run: it reads state but
  // never touches the RNG or the cost model.
  const double span_begin_ms = std::max(now_ms, trace_frame_end_ms_);
  rt::ScopedSpan frame_span(tracer_, rt::track::kMobile, "frame",
                            span_begin_ms,
                            {{"frame", frame.index},
                             {"degraded", requests_.degraded()}});
  double stage_start = span_begin_ms;
  auto stage = [&](const char* name, double dur_ms,
                   rt::TraceArgs args = {}) {
    if (tracer_ == nullptr) return;
    if (dur_ms > 1e-12) {
      tracer_->begin(rt::track::kMobile, name, stage_start,
                     std::move(args));
      tracer_->end(rt::track::kMobile, stage_start + dur_ms);
    }
    stage_start += dur_ms;
  };
  // Responses, deadlines, retransmissions and recovery probes first:
  // the ledger's events (annotations, resyncs, a failed init pair) land
  // before this frame is processed.
  out.tx_bytes = requests_.advance(frame.index, now_ms);

  // ---------------- Mobile front end: ORB extraction. --------------------
  std::vector<feat::Feature> features = orb_.extract(frame.intensity);
  const double frontend_ms =
      cost_model_.feature_extract_base_ms +
      cost_model_.feature_extract_us_per_feature *
          static_cast<double>(features.size()) / 1000.0;
  stage("extract", frontend_ms, {{"features", features.size()}});
  double latency_ms = frontend_ms + cost_model_.render_ms;
  // Every exit: render this frame's masks, stamp the link state and close
  // the frame span.
  auto finish = [&](std::vector<mask::InstanceMask> masks) {
    out.mobile_latency_ms = latency_ms;
    out.rendered_masks =
        render_queue_.push_and_render(frame.index, std::move(masks),
                                      latency_ms);
    out.awaiting_response = requests_.awaiting_response();
    out.degraded = requests_.degraded();
    if (last_annotation_ms_ >= 0.0) {
      out.staleness_ms = now_ms - last_annotation_ms_;
    }
    if (tracer_ != nullptr) {
      stage("render", cost_model_.render_ms,
            {{"masks", out.rendered_masks.size()}});
      // End the frame exactly where the last stage ended: stage_start is
      // the floating-point sum of the stage durations, which can differ
      // from span_begin + latency in the last bits, and the E events must
      // never step backwards in time.
      trace_frame_end_ms_ = stage_start;
      frame_span.set_end(trace_frame_end_ms_);
    }
  };

  // ---------------- Bootstrap / await phases. ----------------------------
  if (phase_ == Phase::kBootstrap) {
    if (!init_ref_ ||
        frame.index - init_ref_->frame_index > bootstrap_reset_interval_) {
      init_ref_ =
          StoredFrame{frame.index, frame.intensity, features,
                      build_oracle(frame, instance_class_), std::nullopt};
      probe_mid_.reset();
    } else if (!requests_.degraded() &&
               frame.index - init_ref_->frame_index >= 20 &&
               pair_geometry_ok(*init_ref_, frame.index, frame.intensity,
                                features)) {
      init_pair_second_ =
          StoredFrame{frame.index, frame.intensity, features,
                      build_oracle(frame, instance_class_), std::nullopt};
      // Send both chosen frames to the edge for accurate masks
      // (Section III-A), full quality: annotation precision matters most.
      // Each goes through the ledger: a lost init annotation times out and
      // sends the bootstrap back to pair selection instead of wedging.
      for (const StoredFrame* sf : {&*init_ref_, &*init_pair_second_}) {
        segnet::InferenceRequest req;
        req.width = camera_.width;
        req.height = camera_.height;
        req.oracle = sf->oracle;
        req.content_quality = 1.0;
        const auto encoded = enc::encode_uniform(
            sf->frame_index, req.width, req.height,
            enc::CompressionLevel::kHigh);
        requests_.send(sf->frame_index, encoded.total_bytes,
                       std::move(req), {}, /*is_init=*/true, now_ms);
        out.tx_bytes += encoded.total_bytes;
      }
      out.transmitted = true;
      phase_ = Phase::kAwaitInitMasks;
    }
    if (phase_ == Phase::kBootstrap && init_ref_ &&
        frame.index == init_ref_->frame_index + 10) {
      // The independent validation frame: halfway into the minimum pair
      // gap, so every frozen pair is validated at alpha ~ 0.3-0.5.
      probe_mid_ = StoredFrame{frame.index, frame.intensity, features,
                               {}, std::nullopt};
    }
  }
  if (phase_ != Phase::kRunning) {  // bootstrap, or awaiting init masks
    finish({});
    return out;
  }

  // ---------------- Running. ----------------------------------------------
  if (just_initialized_) {
    // Extrapolate the initialization-pair velocity over the edge round
    // trip so the first tracked frame's prediction lands near the truth.
    const int elapsed = std::max(1, frame.index - init_pose_frame_);
    const geom::SE3 now_est = init_velocity_.pow(elapsed) * init_pose_;
    const geom::SE3 prev_est =
        init_velocity_.pow(elapsed - 1) * init_pose_;
    tracker_->set_initial_poses(prev_est, now_est);
    just_initialized_ = false;
  }
  vo::FrameObservation obs = tracker_->track(frame.index, std::move(features));
  out.tracking_ok = obs.tracking_ok;
  if (!obs.tracking_ok) {
    rt::Log::debug(rt::LogSub::kCore,
                   "track fail f%d: matched=%d inliers=%d feats=%zu",
                   frame.index, obs.matched_total, obs.pose_inliers,
                   obs.features.size());
  }
  // Sustained tracking loss (fast motion, scene change beyond the search
  // window): discard the map and re-initialize from scratch, as a real
  // deployment would. Cached masks keep rendering meanwhile.
  consecutive_lost_frames_ = obs.tracking_ok ? 0 : consecutive_lost_frames_ + 1;
  if (consecutive_lost_frames_ > 25) {
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kMobile, "tracker.reset", now_ms,
                       {{"frame", frame.index}});
    }
    map_ = vo::Map{};
    tracker_.reset();
    mamt_.reset();
    requests_.clear();  // in-flight responses would land in a dead map
    // Any canvas upload that was in flight is now unaccounted for: the
    // mirror may disagree with the edge, so restart the delta chain.
    uplink_encoder_.mark_diverged();
    force_refresh_ = false;
    init_ref_.reset();
    init_pair_second_.reset();
    phase_ = Phase::kBootstrap;
    consecutive_lost_frames_ = 0;
    ++bootstrap_attempts_;
    tx_count_ = 0;
    finish(cached_masks_);
    return out;
  }
  const double track_dur_ms =
      cost_model_.track_us_per_matched_point *
          static_cast<double>(obs.matched_total) / 1000.0 +
      cost_model_.pnp_ms_per_solve *
          (1.0 + static_cast<double>(obs.tracked_objects.size()));
  latency_ms += track_dur_ms;
  stage("track", track_dur_ms,
        {{"matched", obs.matched_total},
         {"objects", obs.tracked_objects.size()},
         {"tracking_ok", obs.tracking_ok}});

  // Masks for this frame: MAMT transfer, or the motion-vector fallback for
  // the ablation with MAMT disabled.
  const double latency_before_transfer_ms = latency_ms;
  std::vector<transfer::TransferredMask> preds;
  std::vector<mask::InstanceMask> frame_masks;
  if (config_.enable_mamt) {
    preds = mamt_->predict(obs);
    if (rt::Log::enabled(rt::LogSub::kCore, rt::LogLevel::kDebug) &&
        frame.index % 15 == 0) {
      std::string vis, pred, obj;
      for (int v : mamt_->visible_instances(obs)) {
        vis += std::to_string(v) + ' ';
      }
      for (const auto& p : preds) pred += std::to_string(p.instance_id) + ' ';
      for (const auto& [oid, trk] : map_.objects()) {
        obj += std::to_string(oid) + ':' + std::to_string(trk.point_count) +
               (trk.is_moving ? "M " : " ");
      }
      rt::Log::debug(rt::LogSub::kCore,
                     "f%d visible=[%s] preds=[%s] objpts=[%s]", frame.index,
                     vis.c_str(), pred.c_str(), obj.c_str());
    }
    int contour_points = 0;
    for (const auto& p : preds) {
      frame_masks.push_back(p.mask);
      contour_points += p.contour_points;
    }
    latency_ms += cost_model_.transfer_us_per_contour_point *
                  contour_points / 1000.0;

    // Continuity fallback: a visible object whose contour transfer failed
    // this frame (no eligible source, too few depth features) keeps its
    // previous mask, advanced by the motion vector of its own features —
    // better a slightly stale mask than none at all.
    if (!prev_features_.empty() && !last_rendered_.empty()) {
      std::vector<feat::Match> mv_matches;
      bool matched_once = false;
      for (int instance_id : mamt_->visible_instances(obs)) {
        bool has = false;
        for (const auto& p : preds) {
          if (p.instance_id == instance_id) has = true;
        }
        if (has) continue;
        auto it = last_rendered_.find(instance_id);
        if (it == last_rendered_.end()) continue;
        if (!matched_once) {
          mv_matches = feat::match_brute_force(prev_features_, obs.features);
          matched_once = true;
          latency_ms += 2.0;
        }
        const auto mv = motion_vector(prev_features_, obs.features,
                                      mv_matches, it->second);
        mask::InstanceMask moved =
            mv ? it->second.translated(static_cast<int>(std::lround(mv->x)),
                                       static_cast<int>(std::lround(mv->y)))
               : it->second;
        frame_masks.push_back(std::move(moved));
      }
    }
    last_rendered_.clear();
    for (const auto& m : frame_masks) {
      last_rendered_[m.instance_id] = m;
    }
  } else {
    // Motion-vector local update of the cached edge masks.
    if (!prev_features_.empty() && !cached_masks_.empty()) {
      const auto matches =
          feat::match_brute_force(prev_features_, obs.features);
      for (auto& m : cached_masks_) {
        const auto mv = motion_vector(prev_features_, obs.features, matches,
                                      m);
        if (mv) {
          m = m.translated(static_cast<int>(std::lround(mv->x)),
                           static_cast<int>(std::lround(mv->y)));
        }
      }
      latency_ms += 2.0;  // motion-vector estimation cost
    }
    frame_masks = cached_masks_;
  }
  stage("transfer", latency_ms - latency_before_transfer_ms,
        {{"masks", frame_masks.size()}, {"mamt", config_.enable_mamt}});

  // ---------------- CFRS transmission decision. ---------------------------
  bool want_tx = false;
  if (obs.created_keyframe) {
    if (config_.enable_cfrs) {
      // An object whose pose moved this far (m) since the last
      // transmission needs a fresh annotation; every keyframe this many
      // frames after the last transmission is a refresh.
      constexpr double kObjectMotionTxThreshold = 0.15;
      constexpr int kMaxTxIntervalFrames = 15;
      const bool new_content =
          obs.unlabeled_fraction > config_.new_content_threshold;
      bool object_moved = false;
      for (auto& [instance_id, track] : map_.objects()) {
        const geom::SE3 delta =
            track.displacement_at_last_tx.inverse() * track.displacement;
        if (delta.t.norm() > kObjectMotionTxThreshold ||
            geom::so3_log(delta.R).norm() * 180.0 / M_PI > 6.0) {
          object_moved = true;
          break;
        }
      }
      const bool refresh_due =
          frame.index - last_tx_frame_ >= kMaxTxIntervalFrames;
      want_tx = new_content || object_moved || refresh_due;
      // Periodic refreshes and the first few transmissions after
      // initialization run without priors (full-frame inference): objects
      // the mobile side has too few labeled points to box would otherwise
      // never gain (or regain) anchor coverage.
      full_frame_refresh_ =
          (refresh_due && !new_content && !object_moved) || tx_count_ < 3;
    } else {
      want_tx = true;  // no selection: every keyframe goes to the edge
    }
    // Transmission gate: a request that has not produced any chunk yet
    // blocks the next keyframe (its fate is unknown; piling on a second
    // upload would only worsen a congested link). Once its response is
    // streaming down, the uplink is free again — full duplex lets the
    // next keyframe overlap the remainder of the stream. The ledger — not
    // the delivery queue — is the gate: a chunk lost on the downlink
    // leaves nothing to deliver but the request is still outstanding
    // until its timeout, and must not wedge transmission forever.
    if (requests_.has_blocking_request()) want_tx = false;
    rt::Log::debug(rt::LogSub::kCore,
                   "kf@%d unlab=%.2f last_tx=%d outstanding=%zu want=%d",
                   frame.index, obs.unlabeled_fraction, last_tx_frame_,
                   requests_.size(), (int)want_tx);
  }
  // Degraded: stop paying transmission cost; MAMT carries the masks.
  if (requests_.degraded()) want_tx = false;
  // Link recovery refresh: the first opportunity after a ping answered,
  // request a full-quality annotation to clear the accumulated staleness.
  if (force_refresh_ && !requests_.degraded() &&
      !requests_.has_outstanding_request()) {
    want_tx = true;
    full_frame_refresh_ = true;
    force_refresh_ = false;
    ++requests_.health().refresh_requests;
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kLedger, "recovery_refresh", now_ms, {});
    }
  }
  if (tracer_ != nullptr && obs.created_keyframe) {
    tracer_->instant(rt::track::kMobile, "cfrs.decide", now_ms,
                     {{"transmit", want_tx},
                      {"unlabeled_fraction", obs.unlabeled_fraction},
                      {"full_frame_refresh", full_frame_refresh_},
                      {"cfrs", config_.enable_cfrs}});
  }

  if (want_tx) {
    auto new_areas = new_area_boxes(obs);
    // With MAMT disabled (ablation), CIIA still needs priors to instruct
    // the edge model: the motion-vector-updated cached masks stand in for
    // transferred masks, as the compared "track+detect" variant would use.
    if (!config_.enable_mamt) {
      for (const auto& m : frame_masks) {
        if (m.pixel_count() == 0) continue;
        transfer::TransferredMask pseudo;
        pseudo.mask = m;
        pseudo.instance_id = m.instance_id;
        pseudo.class_id = m.class_id;
        preds.push_back(std::move(pseudo));
      }
    }
    // Visible objects without a transferred mask still need anchor
    // coverage on the edge, otherwise dynamic anchor placement would never
    // re-detect them: box them from their matched feature pixels.
    if (config_.enable_mamt && mamt_) {
      for (int instance_id : mamt_->visible_instances(obs)) {
        bool has_pred = false;
        for (const auto& p : preds) {
          if (p.instance_id == instance_id) has_pred = true;
        }
        if (has_pred) continue;
        const auto [box, count] = matched_feature_box(
            obs, map_, camera_, [&](const vo::MapPoint& mp) {
              return mp.object_instance == instance_id;
            });
        if (count >= 3 && !box.empty()) {
          new_areas.push_back(box.inflated(48, camera_.width,
                                           camera_.height));
        }
      }
    }
    out.tx_bytes = transmit(
        frame, obs, preds, new_areas, now_ms,
        /*full_quality=*/!config_.enable_cfrs || full_frame_refresh_);
    out.transmitted = true;
    ++tx_count_;
    const int tiles = (camera_.width / 64 + 1) *
                      (camera_.height / 64 + 1);
    const double encode_dur_ms =
        cost_model_.encode_us_per_tile * tiles / 1000.0;
    latency_ms += encode_dur_ms;
    stage("encode", encode_dur_ms,
          {{"tiles", tiles}, {"bytes", out.tx_bytes}});
    for (auto& [instance_id, track] : map_.objects()) {
      track.displacement_at_last_tx = track.displacement;
    }
  }

  if (last_annotation_ms_ >= 0.0) {
    requests_.health().mask_staleness_ms.add(now_ms - last_annotation_ms_);
  }
  prev_features_ = obs.features;
  out.map_memory_bytes = map_.memory_bytes();
  finish(std::move(frame_masks));
  return out;
}

}  // namespace edgeis::core
