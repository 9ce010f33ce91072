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
#include "core/request_ledger.hpp"
#include "features/orb.hpp"
#include "runtime/stats.hpp"
#include "scene/scene.hpp"
#include "transfer/mask_transfer.hpp"
#include "vo/initializer.hpp"
#include "vo/tracker.hpp"

namespace edgeis::core {

class EdgeISPipeline : public Pipeline, private LedgerListener {
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
    requests_.set_tracer(tracer);
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
  [[nodiscard]] rt::LinkHealthStats link_health() const {
    return requests_.link_health();
  }

  [[nodiscard]] bool degraded() const { return requests_.degraded(); }
  [[nodiscard]] int bootstrap_attempts() const { return bootstrap_attempts_; }

 private:
  enum class Phase { kBootstrap, kAwaitInitMasks, kRunning };

  struct StoredFrame {
    int frame_index = 0;
    img::GrayImage image;
    std::vector<feat::Feature> features;
    std::vector<segnet::OracleInstance> oracle;
    std::optional<std::vector<mask::InstanceMask>> edge_masks;
  };

  // LedgerListener: the mobile side's reaction to the ledger's events.
  bool on_chunks(LedgerEntry& e, bool complete, double now_ms) override;
  void on_canvas_resync() override;
  void on_canvas_upload_lost() override;
  /// An init-pair annotation never arrived: both requests are void. Fall
  /// back to bootstrap; the reference-reset interval picks a fresh pair
  /// once the link cooperates.
  void on_init_failed() override;
  void on_ping_recovery() override;

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

  geom::PinholeCamera camera_;  // all it keeps of SceneConfig
  PipelineConfig config_;
  rt::Tracer* tracer_ = nullptr;  // non-owning; null = tracing off
  // End of the previous frame's span: a frame whose latency exceeds the
  // frame interval pushes the next span later (the device is still busy),
  // keeping mobile-track B/E spans non-overlapping and in ts order.
  double trace_frame_end_ms_ = 0.0;
  std::unordered_map<int, int> instance_class_;  // instance id -> class id

  feat::OrbExtractor orb_;
  rt::Rng rng_;
  EdgeServer edge_;
  // Failure handling: request ledger + degraded-mode state machine.
  RequestLedger requests_;
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

  bool force_refresh_ = false;    // full-quality refresh due after recovery
  double last_annotation_ms_ = -1.0;
  int last_tx_frame_ = -1000;
  bool full_frame_refresh_ = false;
  // Uplink encoding policy (full-CFRS vs canvas-delta) and the pose the
  // last keyframe was transmitted at — the warp baseline for the next
  // delta.
  enc::UplinkEncoder uplink_encoder_;
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

  // Fallback local tracking state for the MAMT-off ablation and for the
  // per-object continuity fallback.
  std::vector<feat::Feature> prev_features_;
  std::vector<mask::InstanceMask> cached_masks_;
  std::unordered_map<int, mask::InstanceMask> last_rendered_;
};

}  // namespace edgeis::core
