#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "encoding/tiles.hpp"
#include "features/matcher.hpp"

namespace edgeis::core {
namespace {

std::unordered_map<int, int> class_table(const scene::SceneConfig& cfg) {
  std::unordered_map<int, int> table;
  for (const auto& obj : cfg.objects) {
    table[obj.instance_id] = static_cast<int>(obj.cls);
  }
  return table;
}

std::vector<segnet::OracleInstance> oracle_from_frame(
    const scene::RenderedFrame& frame,
    const std::unordered_map<int, int>& instance_class) {
  std::vector<segnet::OracleInstance> oracle;
  for (const auto& [instance_id, class_id] : instance_class) {
    auto m = mask::mask_from_id_image(frame.instance_ids,
                                      static_cast<std::uint16_t>(instance_id));
    if (m.pixel_count() == 0) continue;
    m.class_id = class_id;
    segnet::OracleInstance oi;
    oi.box = *m.bounding_box();
    oi.class_id = class_id;
    oi.instance_id = instance_id;
    oi.mask = std::move(m);
    oracle.push_back(std::move(oi));
  }
  return oracle;
}

}  // namespace

// ---------------------------------------------------------------------------
// PureMobilePipeline
// ---------------------------------------------------------------------------

PureMobilePipeline::PureMobilePipeline(const scene::SceneConfig& scene_config,
                                       PipelineConfig config)
    : scene_config_(scene_config),
      config_(std::move(config)),
      instance_class_(class_table(scene_config)),
      model_(config_.model, rt::Rng(config_.seed ^ 0x90b11eULL)),
      rng_(config_.seed ^ 0x11eULL) {}

FrameOutput PureMobilePipeline::process(const scene::RenderedFrame& frame) {
  const double now_ms = frame.timestamp * 1000.0;
  FrameOutput out;
  out.frame_index = frame.index;

  // Frame budget span; the on-device inference is an X event because it
  // runs for many frame intervals and must be allowed to overlap them.
  rt::ScopedSpan frame_span(tracer_, rt::track::kMobile, "frame", now_ms,
                            {{"frame", frame.index}});
  frame_span.set_end(now_ms + 1000.0 / scene_config_.fps);

  if (in_flight_ && in_flight_->first <= now_ms) {
    latest_masks_ = std::move(in_flight_->second);
    in_flight_.reset();
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kMobile, "masks_adopted", now_ms,
                       {{"masks", latest_masks_.size()}});
    }
  }

  if (!in_flight_ && now_ms >= busy_until_ms_) {
    // Start inference on the freshest frame; the device is busy until done.
    segnet::InferenceRequest req;
    req.width = scene_config_.camera.width;
    req.height = scene_config_.camera.height;
    req.oracle = oracle_from_frame(frame, instance_class_);
    req.content_quality = 1.0;
    auto result = model_.infer(req);
    const double compute_ms =
        result.stats.total_ms() * config_.mobile.model_compute_scale;
    std::vector<mask::InstanceMask> masks;
    masks.reserve(result.instances.size());
    for (auto& inst : result.instances) masks.push_back(std::move(inst.mask));
    busy_until_ms_ = now_ms + compute_ms;
    if (tracer_ != nullptr) {
      tracer_->complete(rt::track::kMobile, "infer", now_ms, compute_ms,
                        {{"frame", frame.index},
                         {"instances", result.instances.size()}});
    }
    in_flight_ = {busy_until_ms_, std::move(masks)};
  }

  // CPU is pegged by inference: the full frame budget is busy time.
  out.mobile_latency_ms = 1000.0 / scene_config_.fps;
  out.rendered_masks = latest_masks_;
  out.tracking_ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// TrackDetectPipeline
// ---------------------------------------------------------------------------

TrackDetectPipeline::TrackDetectPipeline(
    const scene::SceneConfig& scene_config, PipelineConfig config,
    TrackDetectPolicy policy, bool best_effort_motion_vector)
    : scene_config_(scene_config),
      config_(std::move(config)),
      policy_(policy),
      best_effort_motion_vector_(best_effort_motion_vector),
      instance_class_(class_table(scene_config)),
      rng_(config_.seed ^ 0x7d7dULL),
      edge_(config_.model, config_.edge, rt::Rng(config_.seed ^ 0xab1eULL),
            net::FaultInjector(config_.faults.uplink,
                               rt::Rng(config_.seed ^ 0xfa017ULL)),
            net::SendQueue(config_.link, rt::Rng(config_.seed ^ 0x7d5af1ULL))),
      render_queue_(scene_config.fps),
      downlink_faults_(config_.faults.downlink,
                       rt::Rng(config_.seed ^ 0xfa02eULL)) {}

std::string TrackDetectPipeline::name() const {
  switch (policy_) {
    case TrackDetectPolicy::kBestEffort:
      return best_effort_motion_vector_ ? "best-effort-mv" : "best-effort";
    case TrackDetectPolicy::kEaar: return "eaar";
    case TrackDetectPolicy::kEdgeDuet: return "edgeduet";
  }
  return "track-detect";
}

std::vector<segnet::OracleInstance> TrackDetectPipeline::build_oracle(
    const scene::RenderedFrame& frame) const {
  return oracle_from_frame(frame, instance_class_);
}

FrameOutput TrackDetectPipeline::process(const scene::RenderedFrame& frame) {
  const double now_ms = frame.timestamp * 1000.0;
  const auto& cam = scene_config_.camera;
  FrameOutput out;
  out.frame_index = frame.index;

  // Same stage-span layout as EdgeISPipeline::process(): sequential spans
  // whose durations sum to the mobile latency, starting at the frame
  // timestamp or wherever the previous (overrunning) frame span ended.
  const double span_begin_ms = std::max(now_ms, trace_frame_end_ms_);
  rt::ScopedSpan frame_span(tracer_, rt::track::kMobile, "frame",
                            span_begin_ms, {{"frame", frame.index}});
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

  // Deliver due chunks in arrival order: the cached masks are replaced
  // wholesale, but only once every chunk of a frame's response has
  // arrived.
  {
    const auto due = std::stable_partition(
        pending_.begin(), pending_.end(), [&](const PendingResponse& p) {
          return p.deliver_at_ms <= now_ms;
        });
    std::stable_sort(pending_.begin(), due,
                     [](const PendingResponse& a, const PendingResponse& b) {
                       return a.deliver_at_ms < b.deliver_at_ms;
                     });
    for (auto it = pending_.begin(); it != due; ++it) {
      accept_chunk(std::move(it->response), now_ms);
    }
    pending_.erase(pending_.begin(), due);
  }

  auto features = orb_.extract(frame.intensity);
  double latency_ms =
      cost_model_.feature_extract_base_ms +
      cost_model_.feature_extract_us_per_feature *
          static_cast<double>(features.size()) / 1000.0 +
      cost_model_.render_ms;
  stage("extract", latency_ms - cost_model_.render_ms,
        {{"features", features.size()}});
  const double latency_before_track_ms = latency_ms;

  // ---- Local mask update. -------------------------------------------------
  const bool use_motion_vector =
      policy_ == TrackDetectPolicy::kEaar ||
      (policy_ == TrackDetectPolicy::kBestEffort && best_effort_motion_vector_);
  if (use_motion_vector && !prev_features_.empty()) {
    const auto matches = feat::match_brute_force(prev_features_, features);
    for (auto& m : cached_masks_) {
      const auto mv =
          motion_vector(prev_features_, features, matches, m);
      if (mv) {
        m = translate_mask(m, static_cast<int>(std::lround(mv->x)),
                           static_cast<int>(std::lround(mv->y)));
      }
    }
    latency_ms += 2.0 + 1.2 * static_cast<double>(cached_masks_.size());
  } else if (policy_ == TrackDetectPolicy::kEdgeDuet &&
             !prev_image_.empty()) {
    for (auto& m : cached_masks_) {
      const auto box = m.bounding_box();
      if (!box) continue;
      const auto shift = kcf_.track(prev_image_, frame.intensity, *box);
      latency_ms += kcf_.cost_ms(*box) * config_.mobile.cpu_scale;
      if (shift) {
        m = translate_mask(m, static_cast<int>(std::lround(shift->x)),
                           static_cast<int>(std::lround(shift->y)));
      }
    }
  }

  stage("track", latency_ms - latency_before_track_ms,
        {{"masks", cached_masks_.size()}});

  // ---- Transmission policy. -----------------------------------------------
  bool want_tx = false;
  switch (policy_) {
    case TrackDetectPolicy::kBestEffort:
      want_tx = true;  // every frame offered
      break;
    case TrackDetectPolicy::kEaar:
    case TrackDetectPolicy::kEdgeDuet:
      want_tx = frame.index - last_tx_frame_ >= 5;  // keyframe cadence
      break;
  }
  if (!pending_.empty()) want_tx = false;  // client drops while busy

  if (want_tx) {
    enc::EncodedFrame encoded;
    std::vector<mask::Box> boxes;
    for (const auto& m : cached_masks_) {
      if (auto b = m.bounding_box()) {
        boxes.push_back(b->inflated(24, cam.width, cam.height));
      }
    }
    switch (policy_) {
      case TrackDetectPolicy::kBestEffort:
        encoded = enc::encode_uniform(frame.index, cam.width, cam.height,
                                      enc::CompressionLevel::kHigh);
        break;
      case TrackDetectPolicy::kEaar:
        if (boxes.empty()) {
          encoded = enc::encode_uniform(frame.index, cam.width, cam.height,
                                        enc::CompressionLevel::kHigh);
        } else {
          encoded = enc::encode_eaar(frame.index, cam.width, cam.height,
                                     boxes);
        }
        break;
      case TrackDetectPolicy::kEdgeDuet:
        if (boxes.empty()) {
          encoded = enc::encode_uniform(frame.index, cam.width, cam.height,
                                        enc::CompressionLevel::kHigh);
        } else {
          encoded = enc::encode_edgeduet(frame.index, cam.width, cam.height,
                                         boxes);
        }
        break;
    }

    segnet::InferenceRequest req;
    req.width = cam.width;
    req.height = cam.height;
    req.oracle = build_oracle(frame);
    req.content_quality = encoded.content_quality;
    // No CIIA: these systems run the unmodified model.
    edge_.submit_streamed(frame.index, now_ms, encoded.total_bytes, req);
    auto responses = edge_.poll(1e18);
    for (auto& r : responses) {
      const double down_ms =
          net::transmit_ms(config_.link, r.payload_bytes, rng_);
      const auto fate = downlink_faults_.on_message(r.ready_ms);
      // Independent transmit sample for the duplicate copy (it is its own
      // transmission, not a replay of the primary's timing). Sampled under
      // the exact pre-trace condition so tracing never shifts the RNG.
      double dup_down_ms = 0.0;
      if (!fate.drop && fate.duplicate) {
        dup_down_ms = net::transmit_ms(config_.link, r.payload_bytes, rng_);
      }
      net::trace_transfer(tracer_, /*uplink=*/false, r.ready_ms, down_ms,
                          r.payload_bytes, fate, r.frame_index, r.attempt,
                          dup_down_ms, /*queue_wait_ms=*/0.0,
                          r.chunk_count > 1 ? r.chunk_index : -1,
                          r.chunk_count);
      // A lost chunk leaves its frame incomplete: these systems just
      // retry with a later frame.
      if (fate.drop) continue;
      if (fate.duplicate) {
        pending_.push_back({r.ready_ms + dup_down_ms * fate.latency_scale +
                                fate.duplicate_delay_ms,
                            r});
      }
      pending_.push_back({r.ready_ms + down_ms * fate.latency_scale +
                              fate.extra_delay_ms,
                          std::move(r)});
    }
    out.transmitted = true;
    out.tx_bytes = encoded.total_bytes;
    last_tx_frame_ = frame.index;
    const int tiles = (cam.width / 64 + 1) * (cam.height / 64 + 1);
    const double encode_dur_ms =
        cost_model_.encode_us_per_tile * tiles / 1000.0;
    latency_ms += encode_dur_ms;
    stage("encode", encode_dur_ms,
          {{"tiles", tiles}, {"bytes", out.tx_bytes}});
  }

  prev_features_ = std::move(features);
  prev_image_ = frame.intensity;
  out.awaiting_response = !pending_.empty();
  out.mobile_latency_ms = latency_ms;
  stage("render", cost_model_.render_ms, {{"masks", cached_masks_.size()}});
  if (tracer_ != nullptr) {
    // See EdgeISPipeline: the frame ends exactly at the last stage end so
    // mobile-track timestamps never step backwards by a rounding bit.
    trace_frame_end_ms_ = stage_start;
    frame_span.set_end(trace_frame_end_ms_);
  }
  out.rendered_masks = render_queue_.push_and_render(
      frame.index, cached_masks_, latency_ms);
  out.tracking_ok = true;
  // Same staleness semantics as EdgeISPipeline: age of the newest adopted
  // edge annotation, negative until the first response lands. The
  // scenario-matrix bench buckets per-frame accuracy on this, so the
  // baseline comparison is apples to apples.
  if (last_annotation_ms_ >= 0.0) {
    out.staleness_ms = now_ms - last_annotation_ms_;
  }
  return out;
}

void TrackDetectPipeline::accept_chunk(EdgeServer::Response r,
                                       double now_ms) {
  const auto count = static_cast<std::size_t>(r.chunk_count);
  if (r.frame_index != assembly_frame_) {
    // A new frame's response: the gate keeps one frame in flight, so the
    // previous frame's set is finished or lost for good.
    assembly_frame_ = r.frame_index;
    assembly_have_.assign(count, false);
    assembly_masks_.assign(count, {});
  } else if (count != assembly_have_.size()) {
    // The other inference of a duplicated request, framed differently:
    // never merged into the set already being assembled (the
    // net::ChunkAssembler mismatch rule).
    return;
  }
  const auto i = static_cast<std::size_t>(r.chunk_index);
  if (assembly_have_[i]) return;  // duplicate, or the set is done
  assembly_have_[i] = true;
  assembly_masks_[i] = std::move(r.masks);
  if (std::find(assembly_have_.begin(), assembly_have_.end(), false) !=
      assembly_have_.end()) {
    return;
  }
  cached_masks_.clear();
  for (auto& part : assembly_masks_) {
    for (auto& m : part) cached_masks_.push_back(std::move(m));
  }
  last_annotation_ms_ = now_ms;
}

}  // namespace edgeis::core
