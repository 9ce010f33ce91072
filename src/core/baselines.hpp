// The compared systems of Section VI-B, re-implemented over the same
// substrates edgeIS uses:
//  - PureMobilePipeline: the full DL model on the device (TFLite-style),
//    frame-skipping because inference is ~12x slower than the edge GPU.
//  - TrackDetectPipeline: the classic edge-assisted "track+detect" family,
//    parameterized by policy:
//      * kBestEffort — every frame offered to the edge, stale masks
//        rendered as received (optionally motion-vector adjusted: that
//        variant is the ablation baseline of Section VI-E1),
//      * kEaar      — EAAR-style: motion-vector local tracking per object
//        + RoI-box encoding,
//      * kEdgeDuet  — EdgeDuet-style: correlation (KCF-like) tracking +
//        tile-level offloading that prioritizes small objects.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/edge_server.hpp"
#include "core/local_trackers.hpp"
#include "core/pipeline.hpp"
#include "core/render_queue.hpp"
#include "features/orb.hpp"
#include "net/protocol.hpp"
#include "scene/scene.hpp"

namespace edgeis::core {

class PureMobilePipeline : public Pipeline {
 public:
  PureMobilePipeline(const scene::SceneConfig& scene_config,
                     PipelineConfig config);

  [[nodiscard]] std::string name() const override { return "pure-mobile"; }
  FrameOutput process(const scene::RenderedFrame& frame) override;
  void set_tracer(rt::Tracer* tracer) override { tracer_ = tracer; }

 private:
  geom::PinholeCamera camera_;  // with fps_, all it keeps of SceneConfig
  double fps_;
  PipelineConfig config_;
  std::unordered_map<int, int> instance_class_;
  segnet::SegmentationModel model_;
  rt::Rng rng_;
  rt::Tracer* tracer_ = nullptr;

  double busy_until_ms_ = 0.0;
  std::vector<mask::InstanceMask> latest_masks_;
  std::optional<std::pair<double, std::vector<mask::InstanceMask>>> in_flight_;
};

enum class TrackDetectPolicy { kBestEffort, kEaar, kEdgeDuet };

class TrackDetectPipeline : public Pipeline {
 public:
  TrackDetectPipeline(const scene::SceneConfig& scene_config,
                      PipelineConfig config, TrackDetectPolicy policy,
                      bool best_effort_motion_vector = false);

  [[nodiscard]] std::string name() const override;
  FrameOutput process(const scene::RenderedFrame& frame) override;
  void set_tracer(rt::Tracer* tracer) override {
    tracer_ = tracer;
    edge_.set_tracer(tracer);
  }

 private:
  /// One response chunk was delivered: file it under its frame, and adopt
  /// the frame's masks once its chunk set is complete.
  void accept_chunk(EdgeServer::Response r, double now_ms);

  geom::PinholeCamera camera_;  // all it keeps of SceneConfig
  PipelineConfig config_;
  TrackDetectPolicy policy_;
  bool best_effort_motion_vector_;
  std::unordered_map<int, int> instance_class_;
  rt::Tracer* tracer_ = nullptr;

  feat::OrbExtractor orb_;
  rt::Rng rng_;
  EdgeServer edge_;
  RenderQueue render_queue_;
  // Same fault script as edgeIS faces (uplink faults and the uplink send
  // queue live in edge_), so the comparison under lossy links is apples
  // to apples.
  net::FaultInjector downlink_faults_;
  sim::MobileCostModel cost_model_;
  CorrelationTracker kcf_;

  struct PendingResponse {
    double deliver_at_ms = 0.0;
    EdgeServer::Response response;
  };
  std::vector<PendingResponse> pending_;

  std::vector<mask::InstanceMask> cached_masks_;
  // Reassembly of the response in flight; masks by chunk index. The
  // "client drops while busy" gate keeps one frame's chunks in flight at a
  // time.
  net::ChunkAssembler assembly_;
  std::vector<std::vector<mask::InstanceMask>> assembly_masks_;
  std::vector<feat::Feature> prev_features_;
  img::GrayImage prev_image_;
  int last_tx_frame_ = -1000;
  // When the cached masks were last refreshed from an edge response (sim
  // ms); < 0 until the first adoption. Feeds FrameOutput::staleness_ms
  // with the same semantics as EdgeISPipeline::last_annotation_ms_.
  double last_annotation_ms_ = -1.0;
  // See EdgeISPipeline::trace_frame_end_ms_: keeps frame spans
  // non-overlapping when latency exceeds the frame interval.
  double trace_frame_end_ms_ = 0.0;
};

}  // namespace edgeis::core
