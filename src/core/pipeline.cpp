#include "core/pipeline.hpp"

#include <functional>
#include <utility>

#include "runtime/log.hpp"
#include "sim/scheduler.hpp"

namespace edgeis::core {

std::unordered_map<int, int> instance_class_table(
    const scene::SceneConfig& config) {
  std::unordered_map<int, int> table;
  for (const auto& obj : config.objects) {
    table[obj.instance_id] = static_cast<int>(obj.cls);
  }
  return table;
}

std::vector<segnet::OracleInstance> build_oracle(
    const scene::RenderedFrame& frame,
    const std::unordered_map<int, int>& instance_class) {
  const auto present = mask::masks_from_id_image(frame.instance_ids);
  std::vector<segnet::OracleInstance> oracle;
  for (const auto& [instance_id, class_id] : instance_class) {
    const mask::InstanceMask* m = mask::find_instance(present, instance_id);
    if (m == nullptr) continue;
    segnet::OracleInstance oi;
    oi.mask = *m;
    oi.mask.class_id = class_id;
    oi.box = *m->bounding_box();
    oi.class_id = class_id;
    oi.instance_id = instance_id;
    oracle.push_back(std::move(oi));
  }
  return oracle;
}

void RunAccumulator::record(const scene::SceneSimulator& sim,
                            const scene::RenderedFrame& frame,
                            const FrameOutput& out, rt::Tracer* tracer) {
  const int i = frame.index;
  monitor_.record_frame(out.mobile_latency_ms, out.map_memory_bytes,
                        out.tx_bytes, out.awaiting_response);
  if (out.transmitted) {
    ++result_.transmissions;
    result_.total_tx_bytes += out.tx_bytes;
  }
  if (memory_sample_ > 0 && i % memory_sample_ == 0) {
    result_.memory_curve.emplace_back(i, out.map_memory_bytes);
  }
  if (tracer != nullptr) {
    const double sim_now_ms = frame.timestamp * 1000.0;
    tracer->counter(rt::track::kMobile, "latency_ms", sim_now_ms,
                    out.mobile_latency_ms);
    tracer->counter(rt::track::kMobile, "map_memory_kb", sim_now_ms,
                    static_cast<double>(out.map_memory_bytes) / 1024.0);
    tracer->counter(rt::track::kMobile, "tx_kb_total", sim_now_ms,
                    static_cast<double>(result_.total_tx_bytes) / 1024.0);
  }

  if (i < warmup_frames_) return;
  const auto gts = sim.ground_truth_masks(frame);
  auto fs = eval::score_frame(i, out.rendered_masks, gts,
                              out.mobile_latency_ms);
  const bool stale = out.degraded || out.staleness_ms < 0.0 ||
                     out.staleness_ms > kStaleThresholdMs;
  if (stale) ++result_.frames_stale;
  if (out.staleness_ms >= 0.0) result_.staleness.add(out.staleness_ms);
  for (const auto& o : fs.objects) {
    (stale ? result_.stale_iou : result_.clean_iou).add(o.iou);
  }
  result_.evaluator.add(std::move(fs));
}

RunResult RunAccumulator::finish() {
  result_.summary = result_.evaluator.summarize();
  result_.mean_cpu_utilization = monitor_.mean_cpu_utilization();
  result_.peak_memory_bytes = monitor_.peak_memory_bytes();
  result_.battery_percent = monitor_.battery_percent();
  return std::move(result_);
}

RunResult run_pipeline(const scene::SceneSimulator& sim, Pipeline& pipeline,
                       int warmup_frames, int memory_sample,
                       rt::Tracer* tracer) {
  RunAccumulator acc(sim::iphone11(), sim.config().fps, warmup_frames,
                     memory_sample);

  pipeline.set_tracer(tracer);
  // Stamp log lines with the simulation clock for the duration of the run
  // so they line up with trace timestamps.
  double sim_now_ms = 0.0;
  rt::ScopedLogClock log_clock([&sim_now_ms] { return sim_now_ms; });

  // One self-rescheduling frame source: frame i fires at its capture
  // instant, processes, and schedules frame i+1. The pipeline derives its
  // own clock from frame.timestamp, so event times only order events — a
  // solo run behaves exactly as the plain loop this replaced.
  sim::EventScheduler sched;
  const double interval_ms = 1000.0 / sim.config().fps;
  std::function<void(int)> tick = [&](int i) {
    const scene::RenderedFrame frame = sim.render(i);
    sim_now_ms = frame.timestamp * 1000.0;
    const FrameOutput out = pipeline.process(frame);
    acc.record(sim, frame, out, tracer);
    if (i + 1 < sim.total_frames()) {
      sched.schedule(static_cast<double>(i + 1) * interval_ms,
                     [&tick, i] { tick(i + 1); });
    }
  };
  if (sim.total_frames() > 0) {
    sched.schedule(0.0, [&tick] { tick(0); });
  }
  sched.run();
  pipeline.set_tracer(nullptr);

  return acc.finish();
}

}  // namespace edgeis::core
