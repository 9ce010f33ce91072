// The edgeIS system (Fig. 4): VO-driven mask transfer on the mobile side
// (MAMT), contour-instructed acceleration on the edge (CIIA), and content-
// based transmission selection in between (CFRS). Each module can be
// toggled independently for the Fig. 16 ablation.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/edge_server.hpp"
#include "core/pipeline.hpp"
#include "core/render_queue.hpp"
#include "features/orb.hpp"
#include "net/faults.hpp"
#include "runtime/metrics.hpp"
#include "runtime/stats.hpp"
#include "scene/scene.hpp"
#include "transfer/mask_transfer.hpp"
#include "vo/initializer.hpp"
#include "vo/tracker.hpp"

namespace edgeis::core {

class EdgeISPipeline : public Pipeline {
 public:
  EdgeISPipeline(const scene::SceneConfig& scene_config,
                 PipelineConfig config);
  ~EdgeISPipeline() override;

  [[nodiscard]] std::string name() const override { return "edgeis"; }
  FrameOutput process(const scene::RenderedFrame& frame) override;
  /// Attach a span tracer for the coming run (frame stage spans, ledger
  /// events, RTO counter series; the edge server and both link directions
  /// are instrumented through it too). Nullptr detaches.
  void set_tracer(rt::Tracer* tracer) override {
    tracer_ = tracer;
    edge_.set_tracer(tracer);
  }

  /// Edge-side inference statistics of the most recent completed request
  /// (for the Fig. 14 acceleration study).
  [[nodiscard]] const std::vector<segnet::InferenceStats>& edge_stats() const {
    return edge_stats_;
  }

  [[nodiscard]] bool initialized() const { return phase_ == Phase::kRunning; }

  /// Join a multi-client fleet: route this client's streamed submissions
  /// through one shared EdgeGpu (admission gate + batched CIIA). Call
  /// before the first frame. The pipeline keeps its own session state —
  /// ledger, result cache, RTO estimator, fault scripts — so only GPU
  /// *timing* is shared.
  void attach_shared_gpu(EdgeGpu* gpu) { edge_.attach_gpu(*gpu); }

  /// Ledger / degraded-mode accounting, merged with the link-level fault
  /// counters of both injectors. Deterministic for a fixed seed + script.
  [[nodiscard]] rt::LinkHealthStats link_health() const;

  /// Attach a live metrics registry: the ledger / degraded-mode counters
  /// are bumped as they happen through handles pre-registered once here
  /// (plain pointer bumps on the hot path, no per-event name lookups),
  /// per-frame mask staleness feeds a bounded quantile sketch, and the
  /// RTO estimator state is exported as gauges. Nullptr detaches.
  /// Non-owning; attach before the run.
  void set_metrics(rt::MetricsRegistry* metrics);
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] int bootstrap_attempts() const { return bootstrap_attempts_; }

  /// One missing-chunk retransmission, for tests and benches: the resend
  /// request must be strictly smaller than both the original keyframe
  /// upload and the full response it recovers a part of.
  struct ResendAudit {
    int request_id = 0;
    int chunks_total = 0;
    int chunks_missing = 0;                 // at the time of the resend
    std::size_t original_request_bytes = 0; // the keyframe upload
    std::size_t resend_request_bytes = 0;   // the missing-set request
    std::size_t full_response_bytes = 0;    // all chunks (set on completion)
    std::size_t resent_bytes = 0;           // re-emitted chunks only
    bool completed = false;
  };
  [[nodiscard]] const std::vector<ResendAudit>& resend_audits() const {
    return resend_audits_;
  }

 private:
  enum class Phase { kBootstrap, kAwaitInitMasks, kRunning };

  struct StoredFrame {
    int frame_index = 0;
    img::GrayImage image;
    std::vector<feat::Feature> features;
    std::vector<segnet::OracleInstance> oracle;
    std::optional<std::vector<mask::InstanceMask>> edge_masks;
  };

  struct PendingResponse {
    double deliver_at_ms = 0.0;
    EdgeServer::Response response;
  };

  /// How a keyframe entry goes onto the uplink. kLegacy is the pre-canvas
  /// streamed path; the canvas kinds route through the edge server's
  /// canvas surfaces and carry the payload needed to retransmit.
  enum class UplinkKind { kLegacy, kCanvasFull, kCanvasDelta };

  /// One outstanding request. Kept until its response is matched or every
  /// retry is exhausted; `request` is retained for retransmission.
  struct LedgerEntry {
    int request_id = 0;       // frame index; pings use negative ids
    int frame_index = 0;
    bool is_ping = false;
    bool is_init = false;     // an initialization-pair annotation request
    bool dead = false;        // failed, pending removal
    // Listen-only: degraded mode gave up on this request — no further
    // retransmissions, and it no longer blocks the half-duplex gate — but
    // its uplink cost is already paid, so a late response still completes
    // it (and proves the link is back). Purged when superseded by a new
    // transmission.
    bool abandoned = false;
    int attempt = 0;          // 0 = first send
    double sent_ms = 0.0;     // uplink entry time of the live attempt
    double deadline_ms = 0.0; // response deadline of the live attempt
    double resend_at_ms = -1.0;  // >= 0: waiting out the backoff
    std::size_t bytes = 0;
    segnet::InferenceRequest request;
    // Canvas uplink payloads (UplinkKind != kLegacy): what a retransmitted
    // attempt must re-submit. A retransmitted delta re-applies cleanly —
    // the canvas treats a same-epoch re-apply as a duplicate.
    UplinkKind uplink_kind = UplinkKind::kLegacy;
    enc::EncodedFrame canvas_full;
    enc::CanvasDelta canvas_delta;
    std::uint32_t canvas_epoch = 0;
    // Streamed (full-duplex) partial-response accounting. The response
    // arrives as one chunk per instance; each applied chunk extends the
    // deadline, and a deadline that fires with a partial set triggers a
    // missing-chunk resend instead of a full retransmission.
    int chunks_expected = 0;   // 0 until the first chunk arrives
    int chunks_received = 0;
    // Chunk count at the previous deadline expiry: the retry budget
    // guards liveness, not progress — a timeout that follows fresh chunks
    // schedules another (tiny) missing-set resend even past max_retries,
    // while a stalled stream exhausts the budget as before. Bounded: each
    // extra round requires strictly more chunks on the books.
    int chunks_at_last_timeout = 0;
    std::vector<bool> chunk_have;
    std::vector<mask::InstanceMask> arrived_masks;  // cumulative
    segnet::InferenceStats stats;        // carried by every chunk
    std::size_t response_bytes = 0;      // distinct chunk payloads so far
    std::size_t resent_bytes = 0;        // re-emitted chunk payloads
    int resend_audit = -1;  // index into resend_audits_, -1 = none
  };

  std::vector<segnet::OracleInstance> build_oracle(
      const scene::RenderedFrame& frame) const;
  void deliver_due_responses(double now_ms);
  /// Expire attempts, schedule/execute retransmissions, enter degraded
  /// mode after enough consecutive timeouts.
  void service_ledger(double now_ms);
  /// Put one attempt of `e` on the uplink and queue whatever the edge
  /// completes (downlink faults applied).
  void send_attempt(LedgerEntry& e, double now_ms);
  void queue_response_with_faults(EdgeServer::Response r);
  /// Emit the RTT-estimator state as counter series on the ledger track
  /// (trace satellite of LinkHealthStats). No-op without a tracer.
  void trace_rto_counters(double now_ms) const;
  /// A chunk of `e` arrived: record it, apply it if running, complete the
  /// entry when the set closes. `it` is the entry's ledger position;
  /// returns true when the entry was erased (completed).
  bool accept_chunk(std::vector<LedgerEntry>::iterator it,
                    EdgeServer::Response& resp, double now_ms);
  void abort_initialization();
  [[nodiscard]] bool has_outstanding_request() const;
  /// Full-duplex transmission gate: only a request that has not yet
  /// produced any chunk blocks the next keyframe. Once a response is
  /// streaming down, the uplink is free — the next keyframe overlaps the
  /// remainder of the stream.
  [[nodiscard]] bool has_blocking_request() const;
  void try_initialize();
  /// Geometry-only feasibility check for an initialization pair.
  bool pair_geometry_ok(const StoredFrame& f0, int frame_index1,
                        const img::GrayImage& image1,
                        const std::vector<feat::Feature>& features1);
  /// Submit a frame to the edge. Returns bytes put on the uplink. `obs`
  /// carries the VO pose the delta encoder warps the canvas with.
  std::size_t transmit(const scene::RenderedFrame& frame,
                       const vo::FrameObservation& obs,
                       const std::vector<transfer::TransferredMask>& priors,
                       const std::vector<mask::Box>& new_areas, double now_ms,
                       bool full_quality);
  /// Predicted whole-frame pixel shift since the last transmission, from
  /// the VO pose pair (current vs last-tx). Sets `warp_valid` on success.
  void predict_uplink_warp(const vo::FrameObservation& obs,
                           enc::UplinkFrameInput& in) const;
  std::vector<mask::Box> new_area_boxes(
      const vo::FrameObservation& obs) const;

  scene::SceneConfig scene_config_;
  PipelineConfig config_;
  rt::Tracer* tracer_ = nullptr;  // non-owning; null = tracing off
  /// Pre-registered metric handles (set_metrics); all null when detached.
  struct LiveMetrics {
    rt::Counter* requests_sent = nullptr;
    rt::Counter* retransmissions = nullptr;
    rt::Counter* attempt_timeouts = nullptr;
    rt::Counter* requests_failed = nullptr;
    rt::Counter* responses_received = nullptr;
    rt::Counter* stale_responses = nullptr;
    rt::Counter* spurious_retransmissions = nullptr;
    rt::Counter* chunks_received = nullptr;
    rt::Counter* duplicate_chunks = nullptr;
    rt::Counter* partial_applies = nullptr;
    rt::Counter* resend_requests = nullptr;
    rt::Counter* admission_rejects = nullptr;
    rt::Counter* busy_pings = nullptr;
    rt::Counter* probes_sent = nullptr;
    rt::Counter* degraded_entries = nullptr;
    rt::Counter* degraded_frames = nullptr;
    rt::Counter* refresh_requests = nullptr;
    rt::Counter* canvas_deltas = nullptr;
    rt::Counter* canvas_resyncs = nullptr;
    rt::Gauge* srtt_ms = nullptr;
    rt::Gauge* rto_ms = nullptr;
    rt::QuantileSketch* mask_staleness_ms = nullptr;
  };
  LiveMetrics live_;
  // End of the previous frame's span: a frame whose latency exceeds the
  // frame interval pushes the next span later (the device is still busy),
  // keeping mobile-track B/E spans non-overlapping and in ts order.
  double trace_frame_end_ms_ = 0.0;
  std::unordered_map<int, int> instance_class_;  // instance id -> class id

  feat::OrbExtractor orb_;
  rt::Rng rng_;
  EdgeServer edge_;
  RenderQueue render_queue_;
  sim::MobileCostModel cost_model_;

  Phase phase_ = Phase::kBootstrap;
  std::optional<StoredFrame> init_ref_;
  std::optional<StoredFrame> init_pair_second_;
  /// Most recent bootstrap frame before the current one: the independent
  /// third frame the probe validates initialization geometry against.
  std::optional<StoredFrame> probe_mid_;
  /// The probe's validated scratch map and poses — adopted wholesale when
  /// the edge masks arrive (labels only; geometry is never re-estimated).
  std::optional<vo::Map> probe_map_;
  std::optional<vo::InitializationResult> probe_result_;
  int bootstrap_reset_interval_ = 60;
  int bootstrap_attempts_ = 0;

  vo::Map map_;
  std::unique_ptr<vo::Tracker> tracker_;
  std::unique_ptr<transfer::MaskTransfer> mamt_;

  std::vector<PendingResponse> pending_;
  // Failure handling: request ledger + degraded-mode state machine.
  net::FaultInjector downlink_faults_;
  // Downlink direction of the full-duplex pair (the uplink queue lives in
  // the edge server, beside the uplink fault injector).
  net::SendQueue downlink_queue_;
  std::vector<ResendAudit> resend_audits_;
  // Adaptive per-attempt deadlines: Jacobson/Karels RTT estimator seeded
  // from the link profile, fed by completed requests and ping probes.
  net::RttEstimator rto_;
  std::vector<LedgerEntry> ledger_;
  rt::LinkHealthStats health_;
  bool degraded_ = false;
  bool force_refresh_ = false;    // full-quality refresh due after recovery
  int next_ping_id_ = -1;
  int last_probe_frame_ = -1000000;
  double last_annotation_ms_ = -1.0;
  double prev_frame_ms_ = 0.0;
  int last_tx_frame_ = -1000;
  bool full_frame_refresh_ = false;
  // Uplink encoding policy (full-CFRS vs canvas-delta) and the pose the
  // last keyframe was transmitted at — the warp baseline for the next
  // delta.
  std::unique_ptr<enc::UplinkEncoder> uplink_encoder_;
  geom::SE3 last_tx_pose_;
  bool have_last_tx_pose_ = false;
  int tx_count_ = 0;
  int consecutive_lost_frames_ = 0;
  // Velocity-model seeding across the initialization round trip.
  bool just_initialized_ = false;
  geom::SE3 init_velocity_;
  geom::SE3 init_pose_;
  int init_pose_frame_ = 0;
  std::vector<segnet::InferenceStats> edge_stats_;

  // KLT front-end state (config_.klt_non_keyframes): pyramids of the
  // previous and current frame, swapped each frame so the buffers are
  // reused. `klt_prev_frame_` guards against stale pyramids across
  // bootstrap returns and tracker resets — KLT only engages when the
  // stored pyramid belongs to the immediately preceding frame.
  std::vector<img::GrayImage> klt_prev_pyr_;
  std::vector<img::GrayImage> klt_cur_pyr_;
  int klt_prev_frame_ = -1000;

  // Fallback local tracking state for the MAMT-off ablation and for the
  // per-object continuity fallback.
  std::vector<feat::Feature> prev_features_;
  std::vector<mask::InstanceMask> cached_masks_;
  std::unordered_map<int, mask::InstanceMask> last_rendered_;
};

}  // namespace edgeis::core
