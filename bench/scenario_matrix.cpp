// Open-world stress suite: the scenario matrix. Every stress preset
// (object entry/exit, a sweeping occluder, lighting shifts, camera shake,
// the crowded regime — scene/presets.hpp) is crossed with a link
// condition (clean / mid-clip bandwidth collapse / hard outage), and each
// cell runs edgeIS (canvas-delta uplink, the production path) against the
// best-effort+mv track-detect baseline over the exact same frames and
// faults. This is the standing gate that scores every optimization on
// the hard regimes, not just the calm steady-state scenes the per-figure
// benches use.
//
// Per-frame accuracy is bucketed by annotation freshness (core::RunResult
// clean/stale split, filled by run_pipeline): a frame is
// *clean* when the rendered masks are backed by an edge annotation newer
// than the staleness threshold and the pipeline is not degraded, *stale*
// otherwise. The iou_clean/iou_stale split is the number that tells you
// whether an optimization helped the steady state, the recovery tail, or
// neither — a calm-scene IoU gain that collapses iou_stale is a
// regression this matrix catches.
//
// HEADLINE lines are diffed nightly against
// bench/expected/scenario_matrix_headline.txt by scripts/check_headline.py;
// per-PR CI runs `--smoke` (a 2x2 preset x link subset) against the same
// expectations with --subset. `--cell NAME` runs one cell; `--trace
// out.json` exports a Chrome trace of the edgeIS row of the traced cell
// (default stress-crowd+outage-2.5s, override with --trace-cell). Tracing
// must never change a printed number.
#include <cstring>
#include <string>

#include "bench/common.hpp"

using namespace edgeis;

namespace {

struct LinkCondition {
  const char* name;
  net::DuplexFaultScript script;
};

core::PipelineConfig cell_config(const net::DuplexFaultScript& script) {
  core::PipelineConfig cfg;
  cfg.link = net::lte();
  cfg.edge = sim::jetson_agx_xavier();
  cfg.faults = script;
  cfg.probe_interval_frames = 10;
  return cfg;
}

void print_row(const std::string& cell, const char* label,
               const core::RunResult& r, double degraded_ms,
               double hit_rate) {
  eval::print_table_row(
      {label, eval::fmt_percent(r.summary.mean_iou),
       eval::fmt_percent(r.clean_iou.mean()),
       eval::fmt_percent(r.stale_iou.mean()),
       std::to_string(r.frames_stale),
       eval::fmt(r.staleness.percentile(95.0), 0),
       eval::fmt(degraded_ms, 0),
       eval::fmt(static_cast<double>(r.total_tx_bytes) / 1e6, 2),
       eval::fmt_percent(hit_rate)});
  std::printf(
      "HEADLINE scenario=%s system=%s iou=%.4f iou_clean=%.4f "
      "iou_stale=%.4f frames_stale=%d stale_p95=%.0f degraded_ms=%.0f "
      "tx_bytes=%zu hit_rate=%.4f\n",
      cell.c_str(), label, r.summary.mean_iou, r.clean_iou.mean(),
      r.stale_iou.mean(), r.frames_stale, r.staleness.percentile(95.0),
      degraded_ms, r.total_tx_bytes, hit_rate);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* only_cell = nullptr;
  const char* trace_path = nullptr;
  const char* trace_cell = "stress-crowd+outage-2.5s";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--cell") == 0 && i + 1 < argc) {
      only_cell = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-cell") == 0 && i + 1 < argc) {
      trace_cell = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--cell PRESET+LINK] "
                   "[--trace out.json] [--trace-cell PRESET+LINK]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::banner("Scenario matrix",
                "stress presets x link conditions, edgeIS vs baseline");

  const int frames = 240;  // 8 s @ 30 fps
  using net::FaultScript;
  const LinkCondition links[] = {
      {"clean", FaultScript::none()},
      // Mid-clip bandwidth collapse: round trips stretch 10x for 5 s.
      {"throttle-10x", FaultScript::throttle(2000.0, 7000.0, 10.0)},
      // Hard blackout across several keyframe round trips.
      {"outage-2.5s", FaultScript::outage(3000.0, 5500.0)},
  };

  // The PR smoke subset: two hard presets x {clean, outage}. The rows are
  // a strict subset of the full grid, so the same expectation file checks
  // both (check_headline.py --subset).
  const auto in_smoke = [](scene::StressRegime regime, const char* link) {
    const bool preset_ok = regime == scene::StressRegime::kEntryExit ||
                           regime == scene::StressRegime::kOcclusion;
    const bool link_ok = std::strcmp(link, "clean") == 0 ||
                         std::strcmp(link, "outage-2.5s") == 0;
    return preset_ok && link_ok;
  };

  eval::print_table_header({"system", "IoU", "IoU-cln", "IoU-stl", "stl fr",
                            "stl p95", "degr ms", "tx MB", "cv hit"});

  rt::Tracer tracer;
  bool traced = false;
  for (const scene::StressRegime regime : scene::kAllStressRegimes) {
    const char* preset = scene::stress_regime_name(regime);
    const auto scene_cfg = scene::make_stress_scene(regime, 42, frames);
    const scene::SceneSimulator sim(scene_cfg);
    for (const auto& link : links) {
      const std::string cell = std::string(preset) + "+" + link.name;
      if (smoke && !in_smoke(regime, link.name)) continue;
      if (only_cell != nullptr && cell != only_cell) continue;
      std::printf("[%s]\n", cell.c_str());

      {  // edgeIS on the canvas-delta uplink (the production path).
        auto cfg = cell_config(link.script);
        cfg.encoding.uplink = enc::UplinkMode::kDelta;
        core::EdgeISPipeline p(scene_cfg, cfg);
        const bool trace_this = trace_path != nullptr && cell == trace_cell;
        traced |= trace_this;
        const auto r = core::run_pipeline(sim, p, bench::kWarmupFrames,
                                          /*memory_sample=*/0,
                                          trace_this ? &tracer : nullptr);
        const auto h = p.link_health();
        const long long tiles = h.canvas_tiles_sent + h.canvas_tiles_reused;
        const double hit_rate =
            tiles > 0 ? static_cast<double>(h.canvas_tiles_reused) /
                            static_cast<double>(tiles)
                      : 0.0;
        print_row(cell, "edgeIS-delta", r, h.time_in_degraded_ms, hit_rate);
      }
      {  // Track-detect baseline facing the identical frames and faults.
        core::TrackDetectPipeline p(scene_cfg, cell_config(link.script),
                                    core::TrackDetectPolicy::kBestEffort,
                                    /*best_effort_motion_vector=*/true);
        const auto r = core::run_pipeline(sim, p, bench::kWarmupFrames);
        print_row(cell, "best-effort+mv", r, /*degraded_ms=*/0.0,
                  /*hit_rate=*/0.0);
      }
    }
  }

  std::printf(
      "\nExpected shape: the clean column tracks steady-state accuracy and\n"
      "the stale column the recovery tail. edgeIS holds iou_stale through\n"
      "outages by serving MAMT-transferred masks (degraded_ms > 0, canvas\n"
      "resyncs on recovery drop hit_rate), while best-effort+mv renders\n"
      "ever-staler masks through the blackout. Occlusion and entry/exit\n"
      "suppress iou_clean for the tracking-based baseline: a transferred\n"
      "mask cannot cover content it has never seen.\n");

  if (trace_path != nullptr) {
    if (!traced) {
      std::fprintf(stderr, "error: --trace-cell %s not in the grid run\n",
                   trace_cell);
      return 2;
    }
    if (!tracer.write_json(trace_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_path);
      return 1;
    }
    std::printf("trace: edgeIS row of %s -> %s (%zu events)\n", trace_cell,
                trace_path, tracer.event_count());
  }
  return 0;
}
