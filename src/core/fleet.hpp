// Fleet-scale serving: N EdgeISPipeline clients interleaved on one
// discrete-event scheduler against one shared edge GPU. Each client is a
// full session — its own scene, ledger, result cache, RTO estimator and
// fault script — so faults scripted for one client never touch another's
// state; only GPU *timing* (admission gate, batched CIIA passes) couples
// them. A fleet of one reproduces run_pipeline() exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "core/edge_server.hpp"
#include "core/edgeis_pipeline.hpp"
#include "core/pipeline.hpp"
#include "runtime/metrics.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"
#include "scene/scene.hpp"

namespace edgeis::core {

/// One fleet client: its scene and pipeline configuration.
struct FleetClientSpec {
  scene::SceneConfig scene;
  PipelineConfig pipeline;
};

struct FleetConfig {
  std::vector<FleetClientSpec> clients;
  GpuConfig gpu;
  int warmup_frames = 45;
  int memory_sample = 10;
  /// Trace sampling: with a tracer attached and trace_sample >= 0, only
  /// the first trace_sample clients keep full B/E stage spans; the rest
  /// are sampled down to Tracer::Detail::kInstants (X/i/C survive — all
  /// the critical-path analyzer consumes, so waterfalls are unaffected).
  /// -1 = full detail for every client.
  int trace_sample = -1;
  /// Observer of every client's full event stream (flight recorder),
  /// regardless of trace sampling. When no tracer is passed to run_fleet
  /// but a sink is set, an internal silent tracer drives it (events flow
  /// to the sink; nothing is retained). Non-owning.
  rt::Tracer::EventSink* sink = nullptr;
  /// Metrics registry shared by every client, filled after the run: each
  /// client's LinkHealthStats is published into it (ledger counters become
  /// fleet totals, the staleness sketch pools all clients client by
  /// client), and per-client SLO gauges land under client<i>. keys.
  /// Non-owning; may be null.
  rt::MetricsRegistry* metrics = nullptr;
  /// Staleness SLO fed to each client's SloTracker.
  double staleness_slo_ms = kStaleThresholdMs;
};

/// N copies of one client spec with decorrelated randomness: client 0
/// keeps `base` exactly (the fleet-of-one equivalence anchor); client i>0
/// mixes i into the pipeline seed (splitmix64 increment) and offsets the
/// scene noise seed.
FleetConfig uniform_fleet(int clients, const scene::SceneConfig& scene,
                          const PipelineConfig& base, GpuConfig gpu = {});

struct FleetClientResult {
  RunResult run;
  rt::LinkHealthStats health;
  rt::SloTracker::Summary slo;  // staleness-SLO dwell / violations
  bool ended_degraded = false;
  int bootstrap_attempts = 0;
};

struct FleetResult {
  std::vector<FleetClientResult> clients;
  GpuStats gpu;
  // Pooled across clients: IoU over object-frames, per-frame latency.
  double mean_iou = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Fraction of per-frame staleness samples above kStaleThresholdMs.
  double stale_rate = 0.0;
  int degraded_clients = 0;  // clients that entered degraded mode at all
  /// Pooled SLO accounting (sums of the per-client summaries).
  rt::SloTracker::Summary slo;
  /// Pooled uplink accounting: bytes every client put on the wire, and
  /// the canvas-delta economy (tiles shipped vs filled from the edge
  /// canvas; resyncs = refused deltas). All zero except uplink_bytes
  /// under UplinkMode::kFull.
  std::size_t uplink_bytes = 0;
  long long canvas_tiles_sent = 0;
  long long canvas_tiles_reused = 0;
  int canvas_deltas = 0;
  int canvas_full_keyframes = 0;
  int canvas_resyncs = 0;
  /// FleetConfig::metrics footprint at run end (0 without a registry) —
  /// the measured "bounded memory" claim of sketch-backed metrics.
  std::size_t metrics_memory_bytes = 0;
};

/// Run every client's frame source interleaved on one event scheduler
/// against one shared EdgeGpu. Deterministic for a fixed config: frames
/// fire in capture order with FIFO tie-breaks across clients. A non-null
/// tracer records each client under its own pid group (client 0 keeps the
/// canonical tracks; the edge GPU track is shared by construction).
FleetResult run_fleet(const FleetConfig& config,
                      rt::Tracer* tracer = nullptr);

}  // namespace edgeis::core
