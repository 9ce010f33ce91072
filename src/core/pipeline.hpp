// Pipeline interface and run harness. Each compared system (edgeIS and the
// four baselines of Section VI-B) implements Pipeline; run_pipeline()
// drives it over a scene, scores rendered masks against ground truth per
// frame, and aggregates accuracy / latency / resource statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline_config.hpp"
#include "eval/metrics.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"
#include "scene/scene.hpp"
#include "segnet/model.hpp"
#include "sim/device.hpp"

namespace edgeis::core {

struct FrameOutput {
  int frame_index = 0;
  std::vector<mask::InstanceMask> rendered_masks;
  double mobile_latency_ms = 0.0;  // per-frame processing cost on device
  bool transmitted = false;
  std::size_t tx_bytes = 0;
  std::size_t map_memory_bytes = 0;
  bool tracking_ok = true;
  bool awaiting_response = false;  // a request is outstanding (radio awake)
  bool degraded = false;           // serving masks locally, link given up
  /// Age of the newest edge annotation behind the rendered masks, in ms;
  /// negative until the first annotation arrives (bootstrap). The fleet
  /// driver feeds this to per-client SLO trackers.
  double staleness_ms = -1.0;
};

class Pipeline {
 public:
  virtual ~Pipeline() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual FrameOutput process(const scene::RenderedFrame& frame) = 0;
  /// Attach a span tracer (see runtime/trace.hpp) for the coming run, or
  /// detach with nullptr. Non-owning; the tracer must outlive the run.
  /// Instrumented pipelines emit per-frame stage spans, link-transfer
  /// spans, and ledger events; the default is no instrumentation.
  virtual void set_tracer(rt::Tracer* tracer) { (void)tracer; }
};

/// A frame rendered from an edge annotation older than this counts as
/// stale (RunResult's clean/stale split, the fleet report, and the default
/// per-client staleness SLO).
inline constexpr double kStaleThresholdMs = 1000.0;

struct RunResult {
  eval::Summary summary;
  eval::Evaluator evaluator;
  // Scored frames bucketed by annotation freshness: a frame is stale when
  // degraded, before the first annotation, or when its annotation is
  // older than kStaleThresholdMs; clean otherwise.
  rt::SampleSet clean_iou;  // object-frame IoU on clean frames
  rt::SampleSet stale_iou;  // ... on stale frames
  rt::SampleSet staleness;  // per-frame annotation age (>= 0 only)
  int frames_stale = 0;
  // Resource accounting over the run.
  double mean_cpu_utilization = 0.0;
  std::size_t peak_memory_bytes = 0;
  double battery_percent = 0.0;
  std::size_t total_tx_bytes = 0;
  int transmissions = 0;
  // Memory trajectory (frame index, bytes) sampled every `memory_sample`.
  std::vector<std::pair<int, std::size_t>> memory_curve;
};

/// Per-client accumulation of one pipeline run: the body of the old
/// run_pipeline() frame loop, factored out so the fleet driver
/// (core/fleet.hpp) can interleave N clients on one event scheduler and
/// still aggregate each client exactly as a solo run would. Call record()
/// once per processed frame in index order, then finish() once.
class RunAccumulator {
 public:
  RunAccumulator(const sim::DeviceProfile& mobile, double fps,
                 int warmup_frames, int memory_sample)
      : monitor_(mobile, fps),
        warmup_frames_(warmup_frames),
        memory_sample_(memory_sample) {}

  void record(const scene::SceneSimulator& sim,
              const scene::RenderedFrame& frame, const FrameOutput& out,
              rt::Tracer* tracer);
  RunResult finish();

 private:
  sim::ResourceMonitor monitor_;
  int warmup_frames_;
  int memory_sample_;
  RunResult result_;
};

/// Instance id -> class id of every object in the scene.
std::unordered_map<int, int> instance_class_table(
    const scene::SceneConfig& config);

/// The segmentation model's ground truth for `frame`: one OracleInstance
/// per entry of `instance_class` visible in it, in the map's iteration
/// order (which fixes the order of the model's per-instance RNG draws).
/// The masks come from one `mask::masks_from_id_image` call.
std::vector<segnet::OracleInstance> build_oracle(
    const scene::RenderedFrame& frame,
    const std::unordered_map<int, int>& instance_class);

/// Drive `pipeline` over all frames of `sim`'s scene on a discrete-event
/// scheduler (one self-rescheduling frame source — the N-client fleet
/// driver interleaves N such sources on one clock). Scoring starts after
/// `warmup_frames` (initialization / first edge round trip); resource
/// accounting covers the whole run. A non-null `tracer` is attached to the
/// pipeline for the run (per-frame stage spans, link transfers, ledger
/// events) and additionally receives per-frame counter series
/// (latency_ms, map_memory_kb, cumulative tx_kb) plus a sim-time log
/// clock; tracing must never change the simulation's outputs.
RunResult run_pipeline(const scene::SceneSimulator& sim, Pipeline& pipeline,
                       int warmup_frames = 45, int memory_sample = 10,
                       rt::Tracer* tracer = nullptr);

}  // namespace edgeis::core
