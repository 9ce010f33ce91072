#include "core/edgeis_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/local_trackers.hpp"
#include "encoding/tiles.hpp"
#include "features/matcher.hpp"
#include "net/link.hpp"
#include "net/protocol.hpp"
#include "runtime/log.hpp"

namespace edgeis::core {

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
      render_queue_(scene_config.fps),
      downlink_faults_(config_.faults.downlink,
                       rt::Rng(config_.seed ^ 0xfa02eULL)),
      downlink_queue_(config_.link, rt::Rng(config_.seed ^ 0xd0171ULL)),
      rto_(config_.rto, 2.0 * config_.link.base_latency_ms +
                            config_.rto.initial_compute_guess_ms) {
  uplink_encoder_ = enc::make_uplink_encoder(config_.encoding);
  edge_.configure_canvas(config_.encoding.canvas);
}

EdgeISPipeline::~EdgeISPipeline() = default;

void EdgeISPipeline::deliver_due_responses(double now_ms) {
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->deliver_at_ms > now_ms) {
      ++it;
      continue;
    }
    EdgeServer::Response resp = std::move(it->response);
    it = pending_.erase(it);

    // Match the response to its ledger entry. Unmatched deliveries are
    // duplicates or answers to abandoned requests: ignore them wholesale —
    // annotating an ancient keyframe would only corrupt the tracker.
    const auto entry = std::find_if(
        ledger_.begin(), ledger_.end(), [&](const LedgerEntry& e) {
          return !e.dead && e.request_id == resp.frame_index &&
                 e.is_ping == resp.is_ping;
        });
    if (entry == ledger_.end()) {
      ++health_.stale_responses;
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "stale_response", now_ms,
                         {{"request", resp.frame_index},
                          {"attempt", resp.attempt}});
      }
      continue;
    }
    // Admission-control pushback from a shared GPU. The server answered —
    // the link is fine — so a reject neither exits degraded mode nor
    // feeds the RTT estimator; it only means "come back later". An
    // inference reject inflates the timeout backoff like a loss would, so
    // a client hammering a saturated gate backs off exponentially and
    // eventually parks itself in degraded mode (MAMT carries the masks
    // forward locally) until a clean probe proves the queue drained. A
    // busy ping echo is that probe failing: the client stays parked.
    if (resp.rejected) {
      if (resp.is_ping) {
        ++health_.busy_pings;
        if (tracer_ != nullptr) {
          tracer_->instant(rt::track::kLedger, "ping_busy", now_ms,
                           {{"request", resp.frame_index}});
        }
        ledger_.erase(entry);
        continue;
      }
      ++health_.admission_rejects;
      rto_.on_timeout();
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "admission_reject", now_ms,
                         {{"request", resp.frame_index},
                          {"attempt", resp.attempt}});
      }
      trace_rto_counters(now_ms);
      const bool was_init = entry->is_init;
      ledger_.erase(entry);
      // A rejected init-pair half voids the pair (both halves must be
      // annotated); bootstrap restarts once the gate opens.
      if (was_init) abort_initialization();
      continue;
    }
    // Canvas-delta pushback: the edge refused to reconstruct (epoch
    // mismatch or cold canvas). The link answered — clear the timeout
    // inflation — but the canvas chain is broken: mark the encoder
    // diverged and owe the edge a full keyframe. Never an init request
    // (bootstrap uploads are always full keyframes).
    if (resp.canvas_resync) {
      ++health_.canvas_resyncs;
      rto_.reset_backoff();
      if (uplink_encoder_ != nullptr) uplink_encoder_->mark_diverged();
      if (phase_ == Phase::kRunning) force_refresh_ = true;
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "canvas_resync", now_ms,
                         {{"request", resp.frame_index},
                          {"attempt", resp.attempt}});
      }
      ledger_.erase(entry);
      continue;
    }
    // Feed the RTT estimator. Karn's rule: a retransmitted request is
    // ambiguous (which attempt does this response answer?) and is never
    // sampled; it does not deflate the timeout backoff either — the
    // inflated RTO stands until a never-retransmitted request (or ping)
    // completes cleanly. An attempt-0 response overtaken by a
    // retransmission proves the deadline fired on a slow response, not a
    // lost one — the definition of a spurious retransmission. Streamed
    // responses sample per chunk: every chunk of a clean first attempt is
    // an independent observation of the (stream-position-weighted) round
    // trip. Resent chunks answer a retransmitted request — never sampled.
    if (resp.attempt < entry->attempt) {
      ++health_.spurious_retransmissions;
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "spurious_retransmission",
                         now_ms, {{"request", resp.frame_index}});
      }
    }
    if (entry->attempt == 0 && !resp.is_resend) {
      rto_.sample(now_ms - entry->sent_ms);
      trace_rto_counters(now_ms);
    } else {
      // Forward progress on a retransmitted attempt is unsampleable under
      // Karn's rule, but the link answered: the timeout inflation is no
      // longer warranted. Without this, a stream that loses one chunk per
      // round would compound its backoff into degraded mode while chunks
      // are demonstrably arriving.
      rto_.reset_backoff();
    }
    if (degraded_) {
      // Any delivery proves the link is back. A ping carries no masks, so
      // recovery via ping owes the tracker a full-quality refresh; an
      // inference chunk is itself fresh annotation.
      degraded_ = false;
      if (resp.is_ping && phase_ == Phase::kRunning) force_refresh_ = true;
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "degraded.exit", now_ms,
                         {{"via_ping", resp.is_ping}});
      }
    }
    if (resp.is_ping) {
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "ping_response", now_ms,
                         {{"request", resp.frame_index},
                          {"attempt", resp.attempt},
                          {"rtt_ms", now_ms - entry->sent_ms}});
      }
      ledger_.erase(entry);
      ++health_.responses_received;
      continue;
    }
    accept_chunk(entry, resp, now_ms);
  }
}

bool EdgeISPipeline::accept_chunk(std::vector<LedgerEntry>::iterator it,
                                  EdgeServer::Response& resp,
                                  double now_ms) {
  LedgerEntry& e = *it;
  if (e.chunks.accept(resp.frame_index, resp.chunk_index, resp.chunk_count) !=
      net::ChunkAssembler::Accept::kApplied) {
    // Downlink duplicate, a resend racing the original, or the other
    // inference of a duplicated request framed differently: never merged.
    ++health_.duplicate_chunks;
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kLedger, "duplicate_chunk", now_ms,
                       {{"request", resp.frame_index},
                        {"chunk", resp.chunk_index}});
    }
    return false;
  }
  ++health_.chunks_received;
  e.stats = resp.stats;
  e.response_bytes += resp.payload_bytes;
  for (auto& m : resp.masks) e.arrived_masks.push_back(std::move(m));
  const bool complete = e.chunks.complete();
  if (tracer_ != nullptr) {
    tracer_->instant(rt::track::kLedger, "chunk", now_ms,
                     {{"request", resp.frame_index},
                      {"attempt", resp.attempt},
                      {"chunk", resp.chunk_index},
                      {"received", e.chunks.received()},
                      {"expected", e.chunks.expected()},
                      {"resend", resp.is_resend},
                      {"bytes", resp.payload_bytes}});
  }

  // Apply whatever has arrived: a partial set still annotates the keyframe
  // and refreshes the fallback cache, so the renderer never waits for the
  // stream's tail (the point of streaming the response at all).
  if (phase_ == Phase::kRunning && !e.is_init && tracker_ != nullptr) {
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
    if (!complete) {
      ++health_.partial_applies;
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "partial_apply", now_ms,
                         {{"frame", e.frame_index},
                          {"received", e.chunks.received()},
                          {"expected", e.chunks.expected()}});
      }
    }
  }

  if (!complete) {
    // Streaming progress must not time out between chunks: every applied
    // chunk renews the entry's deadline and cancels a pending backoff.
    e.deadline_ms = now_ms + rto_.rto_ms();
    e.resend_at_ms = -1.0;
    return false;
  }

  if (tracer_ != nullptr) {
    // `attempt` is the ledger's (0 = sent once), so on attempt 0 rtt_ms
    // and the first-send-to-response span measure the same interval. The
    // completing chunk's echo is on its `chunk` instant.
    tracer_->instant(rt::track::kLedger, "response", now_ms,
                     {{"request", e.request_id},
                      {"attempt", e.attempt},
                      {"rtt_ms", now_ms - e.sent_ms},
                      {"chunks", e.chunks.expected()},
                      {"bytes", e.response_bytes}});
  }
  edge_stats_.push_back(e.stats);
  last_annotation_ms_ = now_ms;

  if (phase_ == Phase::kAwaitInitMasks) {
    if (init_ref_ && e.frame_index == init_ref_->frame_index) {
      init_ref_->edge_masks = std::move(e.arrived_masks);
    } else if (init_pair_second_ &&
               e.frame_index == init_pair_second_->frame_index) {
      init_pair_second_->edge_masks = std::move(e.arrived_masks);
    }
    ledger_.erase(it);
    ++health_.responses_received;
    try_initialize();
    return true;
  }
  if (phase_ == Phase::kRunning && !e.is_init) {
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
  ledger_.erase(it);
  ++health_.responses_received;
  return true;
}

void EdgeISPipeline::send_attempt(LedgerEntry& e, double now_ms) {
  if (e.is_ping) {
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kLedger, "send", now_ms,
                       {{"request", e.request_id},
                        {"attempt", e.attempt},
                        {"bytes", e.bytes},
                        {"ping", true}});
    }
    edge_.submit_ping(e.request_id, now_ms);
  } else if (e.chunks.received() > 0 && !e.chunks.complete()) {
    // Partial response on the books: retransmit the *missing chunk set*,
    // not the keyframe. The request names chunks by index (the receiver
    // never learned the instance ids of chunks that didn't arrive); the
    // edge answers from its result cache without re-running inference.
    net::ResendRequestMessage req;
    req.frame_index = e.frame_index;
    req.chunk_indices = e.chunks.missing_chunks();
    const std::vector<int>& missing = req.chunk_indices;
    const std::size_t bytes = net::Codec::wire_bytes(req);
    ++health_.resend_requests;
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kLedger, "resend_missing", now_ms,
                       {{"request", e.request_id},
                        {"attempt", e.attempt},
                        {"missing", missing.size()},
                        {"of", e.chunks.expected()},
                        {"bytes", bytes}});
    }
    if (!edge_.submit_resend(e.frame_index, now_ms, bytes, missing,
                             e.attempt)) {
      // Result cache miss (should not happen once a chunk arrived):
      // fall back to a full retransmission.
      edge_.submit_streamed(e.frame_index, now_ms, e.bytes, e.request,
                            e.attempt);
    }
  } else {
    if (tracer_ != nullptr) {
      if (e.uplink_kind == UplinkKind::kLegacy) {
        tracer_->instant(rt::track::kLedger, "send", now_ms,
                         {{"request", e.request_id},
                          {"attempt", e.attempt},
                          {"bytes", e.bytes},
                          {"ping", false}});
      } else {
        tracer_->instant(rt::track::kLedger, "send", now_ms,
                         {{"request", e.request_id},
                          {"attempt", e.attempt},
                          {"bytes", e.bytes},
                          {"ping", false},
                          {"delta",
                           e.uplink_kind == UplinkKind::kCanvasDelta}});
      }
    }
    switch (e.uplink_kind) {
      case UplinkKind::kLegacy:
        edge_.submit_streamed(e.frame_index, now_ms, e.bytes, e.request,
                              e.attempt);
        break;
      case UplinkKind::kCanvasFull:
        edge_.submit_canvas_full(e.frame_index, now_ms, e.bytes, e.request,
                                 e.attempt, e.canvas_full, e.canvas_epoch);
        break;
      case UplinkKind::kCanvasDelta:
        edge_.submit_canvas_delta(e.frame_index, now_ms, e.bytes, e.request,
                                  e.attempt, e.canvas_delta);
        break;
    }
  }
  e.sent_ms = now_ms;
  e.deadline_ms = now_ms + rto_.rto_ms();
  e.resend_at_ms = -1.0;
}

void EdgeISPipeline::queue_response_with_faults(EdgeServer::Response r) {
  // The response enters the downlink direction of the full-duplex pair:
  // chunks of one response (and interleaved ping echoes) serialize
  // back-to-back through the queue, each with its own propagation sample
  // and fault fate.
  const auto out = downlink_queue_.enqueue(
      r.ready_ms, std::max<std::size_t>(r.payload_bytes, 1),
      downlink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/false, out.slot.enter_ms,
                      out.slot.transit_ms, r.payload_bytes, out.fate,
                      r.frame_index, r.attempt, out.duplicate_transit_ms,
                      out.slot.queue_wait_ms,
                      r.chunk_count > 1 ? r.chunk_index : -1, r.chunk_count,
                      r.is_resend);
  if (out.fate.drop) return;  // the ledger deadline will notice
  if (out.fate.duplicate) {
    pending_.push_back({out.duplicate_deliver_ms, r});
  }
  pending_.push_back({out.deliver_ms, std::move(r)});
}

void EdgeISPipeline::trace_rto_counters(double now_ms) const {
  if (tracer_ == nullptr) return;
  tracer_->counter(rt::track::kLedger, "srtt_ms", now_ms, rto_.srtt_ms());
  tracer_->counter(rt::track::kLedger, "rttvar_ms", now_ms,
                   rto_.rttvar_ms());
  tracer_->counter(rt::track::kLedger, "rto_ms", now_ms, rto_.rto_ms());
  tracer_->counter(rt::track::kLedger, "rto_backoff", now_ms,
                   rto_.backoff());
}

void EdgeISPipeline::service_ledger(double now_ms) {
  bool init_failed = false;
  for (auto& e : ledger_) {
    if (e.dead || e.abandoned) continue;
    if (e.resend_at_ms >= 0.0) {
      if (now_ms >= e.resend_at_ms) {
        ++e.attempt;
        ++health_.retransmissions;
        if (tracer_ != nullptr) {
          tracer_->instant(rt::track::kLedger, "retransmit", now_ms,
                           {{"request", e.request_id},
                            {"attempt", e.attempt}});
        }
        send_attempt(e, now_ms);
      }
      continue;
    }
    if (now_ms < e.deadline_ms) continue;
    ++health_.attempt_timeouts;
    // Inflate the RTO: the next attempt (of any request) waits longer
    // before concluding loss. Any response deflates it again.
    rto_.on_timeout();
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kLedger, "timeout", now_ms,
                       {{"request", e.request_id},
                        {"attempt", e.attempt},
                        {"ping", e.is_ping}});
      trace_rto_counters(now_ms);
    }
    const bool progressed = e.chunks.received() > e.chunks_at_last_timeout;
    e.chunks_at_last_timeout = e.chunks.received();
    if (e.is_ping || (e.attempt >= config_.max_retries && !progressed)) {
      // Pings never retry: the probe cadence replaces them.
      e.dead = true;
      if (!e.is_ping) {
        ++health_.requests_failed;
        // A dead canvas upload may or may not have reached the edge; the
        // mirror can no longer be trusted to match — force a full resync.
        if (e.uplink_kind != UplinkKind::kLegacy &&
            uplink_encoder_ != nullptr) {
          uplink_encoder_->mark_diverged();
        }
        if (e.is_init) init_failed = true;
        if (tracer_ != nullptr) {
          tracer_->instant(rt::track::kLedger, "request_failed", now_ms,
                           {{"request", e.request_id},
                            {"init", e.is_init}});
        }
      }
    } else {
      // exp2 of an unbounded attempt count overflows to inf and schedules
      // the resend past the end of the scenario; clamp to the same bound
      // as the RTO itself.
      e.resend_at_ms =
          now_ms + std::min(config_.retry_backoff_base_ms *
                                std::exp2(std::min(e.attempt, 16)),
                            config_.rto.max_rto_ms);
    }
  }

  if (!degraded_ && rto_.backoff() >= config_.degraded_entry_rto_inflation) {
    degraded_ = true;
    ++health_.degraded_entries;
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kLedger, "degraded.enter", now_ms,
                       {{"rto_backoff", rto_.backoff()},
                        {"outstanding", ledger_.size()}});
    }
    // Stop paying the link: no more retransmissions for outstanding
    // inference requests. Their uplink cost is sunk, so keep them
    // listen-only — a response that was merely late (bandwidth collapse,
    // not loss) still annotates the tracker and proves the link is back.
    // MAMT keeps serving masks off the last labeled keyframe; only the
    // probe cadence touches the radio until the link answers again.
    // Initialization pairs are the exception: both halves must arrive for
    // the pair to be usable, so a degraded entry voids them outright and
    // bootstrap restarts once the link recovers.
    for (auto& e : ledger_) {
      if (e.is_ping || e.dead || e.abandoned) continue;
      if (e.is_init) {
        e.dead = true;
        ++health_.requests_failed;
        init_failed = true;
      } else {
        e.abandoned = true;
        e.resend_at_ms = -1.0;
        // No further retransmissions: whether this canvas upload made it
        // to the edge is unknowable, so the delta chain must restart.
        if (e.uplink_kind != UplinkKind::kLegacy &&
            uplink_encoder_ != nullptr) {
          uplink_encoder_->mark_diverged();
        }
        if (tracer_ != nullptr) {
          tracer_->instant(rt::track::kLedger, "abandon", now_ms,
                           {{"request", e.request_id},
                            {"attempt", e.attempt}});
        }
      }
    }
  }

  std::erase_if(ledger_, [](const LedgerEntry& e) { return e.dead; });
  if (init_failed) abort_initialization();
}

void EdgeISPipeline::abort_initialization() {
  // An init-pair annotation never arrived: both requests are void. Fall
  // back to bootstrap; the existing reference-reset interval picks a fresh
  // pair once the link cooperates.
  std::erase_if(ledger_, [](const LedgerEntry& e) { return e.is_init; });
  init_pair_second_.reset();
  probe_map_.reset();
  probe_result_.reset();
  if (phase_ == Phase::kAwaitInitMasks) {
    phase_ = Phase::kBootstrap;
    ++bootstrap_attempts_;
  }
}

bool EdgeISPipeline::has_outstanding_request() const {
  for (const auto& e : ledger_) {
    if (!e.is_ping && !e.dead && !e.abandoned) return true;
  }
  return false;
}

bool EdgeISPipeline::has_blocking_request() const {
  for (const auto& e : ledger_) {
    if (e.is_ping || e.dead || e.abandoned) continue;
    if (!e.chunks.started()) return true;
  }
  return false;
}

rt::LinkHealthStats EdgeISPipeline::link_health() const {
  rt::LinkHealthStats h = health_;
  const auto& up = edge_.uplink_faults().stats();
  const auto& down = downlink_faults_.stats();
  h.uplink_drops = up.total_lost();
  h.downlink_drops = down.total_lost();
  h.duplicates_injected = up.duplicated + down.duplicated;
  h.reorders_injected = up.reordered + down.reordered;
  h.srtt_ms = rto_.srtt_ms();
  h.rttvar_ms = rto_.rttvar_ms();
  h.rto_ms = rto_.rto_ms();
  h.rtt_samples = rto_.samples();
  h.rto_backoffs = rto_.timeouts();
  return h;
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
  strict.min_median_displacement_px = 0.0;
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
  int count = 0;
  mask::Box box{camera_.width, camera_.height, 0, 0};
  for (std::size_t i = 0; i < obs.features.size(); ++i) {
    const int pid = obs.matched_point_ids[i];
    if (pid < 0) continue;
    const vo::MapPoint* mp = map_.find(pid);
    if (mp == nullptr || mp->annotated) continue;
    const auto& px = obs.features[i].kp.pixel;
    box.x0 = std::min(box.x0, static_cast<int>(px.x));
    box.y0 = std::min(box.y0, static_cast<int>(px.y));
    box.x1 = std::max(box.x1, static_cast<int>(px.x) + 1);
    box.y1 = std::max(box.y1, static_cast<int>(px.y) + 1);
    ++count;
  }
  if (count < 10 || box.empty()) return {};
  return {box.inflated(16, camera_.width,
                       camera_.height)};
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
  in.congestion = rto_.congestion();
  predict_uplink_warp(obs, in);
  enc::UplinkPlan plan = uplink_encoder_->plan(in);

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

  // A fresh request supersedes any listen-only survivors of a degraded
  // episode: their answer, if it ever comes, would now be older than this
  // keyframe. Only now do they count as failed.
  std::erase_if(ledger_, [&](const LedgerEntry& e) {
    if (!e.abandoned) return false;
    ++health_.requests_failed;
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kLedger, "superseded", now_ms,
                       {{"request", e.request_id}});
    }
    return true;
  });

  LedgerEntry entry;
  entry.request_id = frame.index;
  entry.frame_index = frame.index;
  entry.request = std::move(req);
  if (config_.encoding.uplink == enc::UplinkMode::kDelta) {
    // Honest wire accounting: serialize the actual protocol message
    // (codec framing, tile table, epoch chain, priors) and charge its
    // framed size — the delta savings must survive the real encoding.
    std::vector<net::KeyframeMessage::Prior> wire_priors;
    std::vector<mask::Box> wire_areas;
    if (config_.enable_ciia && !full_frame_refresh_) {
      for (const auto& p : priors) {
        const auto box = *p.mask.bounding_box();
        wire_priors.push_back(
            {box.x0, box.y0, box.x1, box.y1, p.class_id, p.instance_id});
      }
      wire_areas = new_areas;
    }
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
      entry.bytes = net::Codec::wire_bytes(msg);
      entry.uplink_kind = UplinkKind::kCanvasDelta;
      entry.canvas_delta = plan.delta;
      ++health_.canvas_deltas;
      health_.canvas_tiles_sent += plan.tiles_sent;
      health_.canvas_tiles_reused += plan.tiles_reused;
    } else {
      net::KeyframeMessage msg =
          net::build_keyframe_message(plan.encoded, wire_priors, wire_areas);
      msg.canvas_epoch = plan.epoch;
      entry.bytes = net::Codec::wire_bytes(msg);
      entry.uplink_kind = UplinkKind::kCanvasFull;
      entry.canvas_full = plan.encoded;
      entry.canvas_epoch = plan.epoch;
      ++health_.canvas_full_keyframes;
      health_.canvas_tiles_sent += plan.tiles_sent;
    }
  } else {
    entry.bytes = plan.encoded.total_bytes;
  }
  const std::size_t tx_bytes = entry.bytes;
  ++health_.requests_sent;
  send_attempt(entry, now_ms);
  ledger_.push_back(std::move(entry));
  last_tx_frame_ = frame.index;
  last_tx_pose_ = obs.t_cw;
  have_last_tx_pose_ = obs.tracking_ok;
  return tx_bytes;
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
                            {{"frame", frame.index}, {"degraded", degraded_}});
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
  auto stamp_link_state = [&](FrameOutput& o) {
    o.awaiting_response = !ledger_.empty();
    o.degraded = degraded_;
    if (last_annotation_ms_ >= 0.0) {
      o.staleness_ms = now_ms - last_annotation_ms_;
    }
    if (tracer_ != nullptr) {
      stage("render", cost_model_.render_ms,
            {{"masks", o.rendered_masks.size()}});
      // End the frame exactly where the last stage ended: stage_start is
      // the floating-point sum of the stage durations, which can differ
      // from span_begin + latency in the last bits, and the E events must
      // never step backwards in time.
      trace_frame_end_ms_ = stage_start;
      frame_span.set_end(trace_frame_end_ms_);
    }
  };

  if (degraded_) {
    health_.time_in_degraded_ms += now_ms - prev_frame_ms_;
    ++health_.degraded_frames;
  }
  // Drain the edge's completed work into the downlink queue in completion
  // order (the queue's serializer needs admissions in time order), then
  // deliver whatever the downlink has landed by now.
  for (auto& r : edge_.poll(now_ms)) {
    queue_response_with_faults(std::move(r));
  }
  deliver_due_responses(now_ms);
  service_ledger(now_ms);
  if (degraded_ || rto_.backoff() >= 2) {
    // Probe for recovery on a fixed cadence: a 64-byte ping instead of a
    // full keyframe, so an outage costs (almost) nothing to wait out.
    // The probe starts *before* degraded mode commits — two consecutive
    // unanswered deadlines already make the link suspect — and rides the
    // full-duplex uplink queue behind any keyframe still serializing, so
    // liveness evidence accrues while inference requests are in flight.
    // The cadence is the only gate: probes are cheap enough that a lost
    // one must not block the next for its whole (inflated) RTO lifetime.
    if (frame.index - last_probe_frame_ >= config_.probe_interval_frames) {
      LedgerEntry ping;
      ping.request_id = next_ping_id_--;
      ping.is_ping = true;
      ping.bytes = 64;
      ++health_.probes_sent;
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kLedger, "degraded.probe", now_ms,
                         {{"request", ping.request_id}});
      }
      send_attempt(ping, now_ms);
      ledger_.push_back(std::move(ping));
      last_probe_frame_ = frame.index;
      out.tx_bytes += 64;
    }
  }
  prev_frame_ms_ = now_ms;

  // ---------------- Mobile front end: ORB extraction. --------------------
  std::vector<feat::Feature> features = orb_.extract(frame.intensity);
  const double frontend_ms =
      cost_model_.feature_extract_base_ms +
      cost_model_.feature_extract_us_per_feature *
          static_cast<double>(features.size()) / 1000.0;
  stage("extract", frontend_ms, {{"features", features.size()}});
  double latency_ms = frontend_ms + cost_model_.render_ms;

  // ---------------- Bootstrap / await phases. ----------------------------
  if (phase_ == Phase::kBootstrap) {
    if (!init_ref_ ||
        frame.index - init_ref_->frame_index > bootstrap_reset_interval_) {
      init_ref_ =
          StoredFrame{frame.index, frame.intensity, features,
                      build_oracle(frame, instance_class_), std::nullopt};
      probe_mid_.reset();
    } else if (!degraded_ && frame.index - init_ref_->frame_index >= 20 &&
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
        LedgerEntry entry;
        entry.request_id = sf->frame_index;
        entry.frame_index = sf->frame_index;
        entry.is_init = true;
        entry.bytes = encoded.total_bytes;
        entry.request = std::move(req);
        ++health_.requests_sent;
        send_attempt(entry, now_ms);
        ledger_.push_back(std::move(entry));
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
    out.mobile_latency_ms = latency_ms;
    out.rendered_masks =
        render_queue_.push_and_render(frame.index, {}, latency_ms);
    stamp_link_state(out);
    return out;
  }
  if (phase_ == Phase::kAwaitInitMasks) {
    out.mobile_latency_ms = latency_ms;
    out.rendered_masks =
        render_queue_.push_and_render(frame.index, {}, latency_ms);
    stamp_link_state(out);
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
    pending_.clear();
    ledger_.clear();  // in-flight responses would land in a dead map
    // Any canvas upload that was in flight is now unaccounted for: the
    // mirror may disagree with the edge, so restart the delta chain.
    if (uplink_encoder_ != nullptr) uplink_encoder_->mark_diverged();
    force_refresh_ = false;
    init_ref_.reset();
    init_pair_second_.reset();
    phase_ = Phase::kBootstrap;
    consecutive_lost_frames_ = 0;
    ++bootstrap_attempts_;
    tx_count_ = 0;
    out.mobile_latency_ms = latency_ms;
    out.rendered_masks = render_queue_.push_and_render(
        frame.index, cached_masks_, latency_ms);
    stamp_link_state(out);
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
      const bool new_content =
          obs.unlabeled_fraction > config_.new_content_threshold;
      bool object_moved = false;
      for (auto& [instance_id, track] : map_.objects()) {
        const geom::SE3 delta =
            track.displacement_at_last_tx.inverse() * track.displacement;
        if (delta.t.norm() > config_.object_motion_tx_threshold ||
            geom::so3_log(delta.R).norm() * 180.0 / M_PI > 6.0) {
          object_moved = true;
          break;
        }
      }
      const bool refresh_due =
          frame.index - last_tx_frame_ >= config_.max_tx_interval_frames;
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
    // leaves pending_ empty but the request is still outstanding until
    // its timeout, and must not wedge transmission forever.
    if (has_blocking_request()) want_tx = false;
    rt::Log::debug(rt::LogSub::kCore,
                   "kf@%d unlab=%.2f last_tx=%d outstanding=%zu want=%d",
                   frame.index, obs.unlabeled_fraction, last_tx_frame_,
                   ledger_.size(), (int)want_tx);
  }
  // Degraded: stop paying transmission cost; MAMT carries the masks.
  if (degraded_) want_tx = false;
  // Link recovery refresh: the first opportunity after a ping answered,
  // request a full-quality annotation to clear the accumulated staleness.
  if (force_refresh_ && !degraded_ && !has_outstanding_request()) {
    want_tx = true;
    full_frame_refresh_ = true;
    force_refresh_ = false;
    ++health_.refresh_requests;
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
        mask::Box box{camera_.width,
                      camera_.height, 0, 0};
        int count = 0;
        for (std::size_t i = 0; i < obs.features.size(); ++i) {
          const int pid = obs.matched_point_ids[i];
          if (pid < 0) continue;
          const vo::MapPoint* mp = map_.find(pid);
          if (mp == nullptr || mp->object_instance != instance_id) continue;
          const auto& px = obs.features[i].kp.pixel;
          box.x0 = std::min(box.x0, static_cast<int>(px.x));
          box.y0 = std::min(box.y0, static_cast<int>(px.y));
          box.x1 = std::max(box.x1, static_cast<int>(px.x) + 1);
          box.y1 = std::max(box.y1, static_cast<int>(px.y) + 1);
          ++count;
        }
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
    health_.mask_staleness_ms.add(now_ms - last_annotation_ms_);
  }
  prev_features_ = obs.features;
  out.map_memory_bytes = map_.memory_bytes();
  out.mobile_latency_ms = latency_ms;
  out.rendered_masks = render_queue_.push_and_render(
      frame.index, std::move(frame_masks), latency_ms);
  stamp_link_state(out);
  return out;
}

}  // namespace edgeis::core
