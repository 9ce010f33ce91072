#include "core/fleet.hpp"

#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "runtime/log.hpp"
#include "sim/scheduler.hpp"

namespace edgeis::core {

FleetConfig uniform_fleet(int clients, const scene::SceneConfig& scene,
                          const PipelineConfig& base, GpuConfig gpu) {
  FleetConfig config;
  config.gpu = gpu;
  config.clients.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    FleetClientSpec spec{scene, base};
    if (i > 0) {
      spec.pipeline.seed =
          base.seed ^
          (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i));
      spec.scene.noise_seed =
          scene.noise_seed + static_cast<std::uint64_t>(i);
    }
    config.clients.push_back(std::move(spec));
  }
  return config;
}

FleetResult run_fleet(const FleetConfig& config, rt::Tracer* tracer) {
  struct Client {
    std::unique_ptr<scene::SceneSimulator> sim;
    std::unique_ptr<EdgeISPipeline> pipeline;
    std::unique_ptr<RunAccumulator> acc;
    rt::SloTracker slo{kStaleThresholdMs};
    double last_frame_ms = 0.0;
    int pid_offset = 0;
  };

  EdgeGpu gpu(config.gpu);
  std::vector<Client> clients;
  clients.reserve(config.clients.size());
  // A flight-recorder sink needs an event stream even in untraced runs:
  // drive it from an internal tracer that retains nothing (kSilent).
  rt::Tracer sink_driver;
  if (tracer == nullptr && config.sink != nullptr) {
    sink_driver.set_default_detail(rt::Tracer::Detail::kSilent);
    tracer = &sink_driver;
  }
  // The edge GPU is one machine serving every client: its track stays
  // canonical no matter whose pid offset is active when it emits.
  if (tracer != nullptr) {
    tracer->mark_shared_pid(rt::track::kEdge.pid);
    tracer->set_sink(config.sink);
  }

  for (std::size_t i = 0; i < config.clients.size(); ++i) {
    const auto& spec = config.clients[i];
    Client c;
    c.sim = std::make_unique<scene::SceneSimulator>(spec.scene);
    c.pipeline = std::make_unique<EdgeISPipeline>(spec.scene, spec.pipeline);
    c.pipeline->attach_shared_gpu(&gpu);
    c.acc = std::make_unique<RunAccumulator>(
        spec.pipeline.mobile, spec.scene.fps, config.warmup_frames,
        config.memory_sample);
    // Stride 4 keeps per-client pid groups {1+4i, 3+4i} disjoint from
    // each other and from the shared edge pid (2).
    c.pid_offset = 4 * static_cast<int>(i);
    if (tracer != nullptr && i > 0) {
      tracer->set_pid_offset(c.pid_offset);
      char mobile[32];
      char link[32];
      std::snprintf(mobile, sizeof(mobile), "mobile[%zu]", i);
      std::snprintf(link, sizeof(link), "link[%zu]", i);
      tracer->annotate_track(rt::track::kMobile, mobile, "pipeline");
      tracer->annotate_track(rt::track::kLedger, mobile, "ledger");
      tracer->annotate_track(rt::track::kUplink, link, "uplink");
      tracer->annotate_track(rt::track::kDownlink, link, "downlink");
      tracer->set_pid_offset(0);
    }
    if (tracer != nullptr && config.trace_sample >= 0 &&
        static_cast<int>(i) >= config.trace_sample) {
      tracer->set_session_detail(static_cast<int>(i),
                                 rt::Tracer::Detail::kInstants);
    }
    c.slo = rt::SloTracker(config.staleness_slo_ms);
    c.pipeline->set_tracer(tracer);
    clients.push_back(std::move(c));
  }

  double sim_now_ms = 0.0;
  rt::ScopedLogClock log_clock([&sim_now_ms] { return sim_now_ms; });

  // N self-rescheduling frame sources on one clock. Simultaneous capture
  // instants resolve in client registration order (the scheduler's FIFO
  // tie-break), so an N-client run is deterministic per config.
  sim::EventScheduler sched;
  std::function<void(std::size_t, int)> tick = [&](std::size_t ci,
                                                   int frame_index) {
    Client& c = clients[ci];
    if (tracer != nullptr) tracer->set_pid_offset(c.pid_offset);
    const scene::RenderedFrame frame = c.sim->render(frame_index);
    sim_now_ms = frame.timestamp * 1000.0;
    const FrameOutput out = c.pipeline->process(frame);
    c.acc->record(*c.sim, frame, out, tracer);
    c.slo.observe_frame(sim_now_ms, out.staleness_ms, out.degraded);
    c.last_frame_ms = sim_now_ms;
    if (tracer != nullptr) tracer->set_pid_offset(0);
    if (frame_index + 1 < c.sim->total_frames()) {
      const double interval_ms = 1000.0 / c.sim->config().fps;
      sched.schedule(static_cast<double>(frame_index + 1) * interval_ms,
                     [&tick, ci, frame_index] { tick(ci, frame_index + 1); });
    }
  };
  for (std::size_t ci = 0; ci < clients.size(); ++ci) {
    if (clients[ci].sim->total_frames() > 0) {
      sched.schedule(0.0, [&tick, ci] { tick(ci, 0); });
    }
  }
  sched.run();

  FleetResult out;
  out.gpu = gpu.stats();
  rt::SampleSet pooled_iou;
  rt::SampleSet pooled_latency;
  std::size_t stale = 0;
  std::size_t staleness_samples = 0;
  for (std::size_t ci = 0; ci < clients.size(); ++ci) {
    auto& c = clients[ci];
    c.pipeline->set_tracer(nullptr);
    // The last frame's state dwells one frame interval before the run
    // ends; attribute that tail before reading the summary.
    c.slo.finish(c.last_frame_ms + 1000.0 / c.sim->config().fps);
    FleetClientResult r;
    r.health = c.pipeline->link_health();
    r.slo = c.slo.summary();
    r.ended_degraded = c.pipeline->degraded();
    r.bootstrap_attempts = c.pipeline->bootstrap_attempts();
    r.run = c.acc->finish();
    out.slo.clean_ms += r.slo.clean_ms;
    out.slo.stale_ms += r.slo.stale_ms;
    out.slo.degraded_ms += r.slo.degraded_ms;
    out.slo.frames += r.slo.frames;
    out.slo.violation_frames += r.slo.violation_frames;
    out.slo.violations += r.slo.violations;
    if (config.metrics != nullptr) {
      rt::publish(r.health, *config.metrics);
      char key[64];
      std::snprintf(key, sizeof(key), "client%03zu.slo_violations", ci);
      config.metrics->gauge_set(key, r.slo.violations);
      std::snprintf(key, sizeof(key), "client%03zu.stale_ms", ci);
      config.metrics->gauge_set(key, r.slo.stale_ms);
      std::snprintf(key, sizeof(key), "client%03zu.degraded_ms", ci);
      config.metrics->gauge_set(key, r.slo.degraded_ms);
    }
    for (double x : r.run.evaluator.iou_samples().samples()) {
      pooled_iou.add(x);
    }
    for (double x : r.run.evaluator.latency_samples().samples()) {
      pooled_latency.add(x);
    }
    for (double x : r.health.mask_staleness_ms.samples()) {
      ++staleness_samples;
      if (x > kStaleThresholdMs) ++stale;
    }
    if (r.health.degraded_entries > 0) ++out.degraded_clients;
    out.uplink_bytes += r.run.total_tx_bytes;
    out.canvas_tiles_sent += r.health.canvas_tiles_sent;
    out.canvas_tiles_reused += r.health.canvas_tiles_reused;
    out.canvas_deltas += r.health.canvas_deltas;
    out.canvas_full_keyframes += r.health.canvas_full_keyframes;
    out.canvas_resyncs += r.health.canvas_resyncs;
    out.clients.push_back(std::move(r));
  }
  out.mean_iou = pooled_iou.mean();
  out.p50_latency_ms = pooled_latency.percentile(50.0);
  out.p99_latency_ms = pooled_latency.percentile(99.0);
  out.stale_rate =
      staleness_samples > 0
          ? static_cast<double>(stale) / static_cast<double>(staleness_samples)
          : 0.0;
  if (config.metrics != nullptr) {
    config.metrics->gauge_set("slo_violations", out.slo.violations);
    config.metrics->gauge_set("stale_rate", out.stale_rate);
    out.metrics_memory_bytes = config.metrics->approx_memory_bytes();
    config.metrics->gauge_set(
        "metrics_memory_bytes",
        static_cast<double>(out.metrics_memory_bytes));
  }
  if (tracer != nullptr) tracer->set_sink(nullptr);
  return out;
}

}  // namespace edgeis::core
