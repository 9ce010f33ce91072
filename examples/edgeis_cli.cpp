// Command-line runner: evaluate any system on any dataset preset over any
// link without recompiling. Useful for quick comparisons and scripting.
//
//   edgeis_cli [--system edgeis|eaar|edgeduet|besteffort|mobile]
//              [--dataset davis|kitti|xiph|field]
//              [--link wifi5|wifi24|lte]
//              [--frames N] [--seed S]
//              [--no-mamt] [--no-ciia] [--no-cfrs]
//              [--uplink full|delta]
//              [--trace out.json] [--metrics out.json]
//
// --uplink selects the keyframe send path (edgeIS only): "full" re-sends
// the whole CFRS-encoded frame each transfer (the default); "delta" ships
// only the tiles that diverge from the pose-warped edge canvas
// (encoding/uplink_encoder.hpp) and prints the canvas economy.
//
// --trace writes a Chrome trace-event JSON of the whole run (open in
// Perfetto / chrome://tracing; validate with scripts/trace_summary.py).
// --metrics writes a JSON snapshot of the run's summary metrics and, for
// edgeIS, the LinkHealthStats block. Both are deterministic: same seed +
// same fault script => byte-identical files.
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/baselines.hpp"
#include "core/edgeis_pipeline.hpp"
#include "runtime/log.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "scene/presets.hpp"

using namespace edgeis;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--system edgeis|eaar|edgeduet|besteffort|mobile]\n"
               "          [--dataset davis|kitti|xiph|field] [--link "
               "wifi5|wifi24|lte]\n"
               "          [--frames N] [--seed S] [--no-mamt] [--no-ciia] "
               "[--no-cfrs]\n"
               "          [--uplink full|delta]\n"
               "          [--trace out.json] [--metrics out.json]\n",
               argv0);
}

/// Parse all of `text` as an unsigned decimal integer no larger than
/// `hi`. Anything else — empty, a sign, trailing junk, out of range — is a
/// usage error.
bool parse_unsigned(const char* text, unsigned long long hi,
                    unsigned long long& out) {
  // strtoull skips leading blanks and accepts a sign (wrapping "-5" to a
  // huge value), so insist on a leading digit.
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v > hi) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rt::Log::init_from_env();
  std::string system = "edgeis";
  std::string dataset = "davis";
  std::string link = "wifi5";
  std::string trace_path;
  std::string metrics_path;
  int frames = 180;
  std::uint64_t seed = 42;
  core::PipelineConfig cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--system") system = next();
    else if (arg == "--dataset") dataset = next();
    else if (arg == "--link") link = next();
    else if (arg == "--frames") {
      unsigned long long v = 0;
      if (!parse_unsigned(next(), INT_MAX, v) || v == 0) {
        usage(argv[0]);
        return 2;
      }
      frames = static_cast<int>(v);
    }
    else if (arg == "--seed") {
      unsigned long long v = 0;
      if (!parse_unsigned(next(), UINT64_MAX, v)) {
        usage(argv[0]);
        return 2;
      }
      seed = v;
    }
    else if (arg == "--no-mamt") cfg.enable_mamt = false;
    else if (arg == "--no-ciia") cfg.enable_ciia = false;
    else if (arg == "--no-cfrs") cfg.enable_cfrs = false;
    else if (arg == "--uplink") {
      const std::string mode = next();
      if (mode == "full") cfg.encoding.uplink = enc::UplinkMode::kFull;
      else if (mode == "delta") cfg.encoding.uplink = enc::UplinkMode::kDelta;
      else {
        usage(argv[0]);
        return 2;
      }
    }
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--metrics") metrics_path = next();
    else {
      usage(argv[0]);
      return 2;
    }
  }

  if (link == "wifi5") cfg.link = net::wifi_5ghz();
  else if (link == "wifi24") cfg.link = net::wifi_24ghz();
  else if (link == "lte") cfg.link = net::lte();
  else {
    usage(argv[0]);
    return 2;
  }
  cfg.seed = seed;

  scene::SceneConfig scene_cfg;
  try {
    scene_cfg = scene::make_dataset_scene(dataset, seed, frames);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::unique_ptr<core::Pipeline> pipeline;
  if (system == "edgeis") {
    pipeline = std::make_unique<core::EdgeISPipeline>(scene_cfg, cfg);
  } else if (system == "eaar") {
    pipeline = std::make_unique<core::TrackDetectPipeline>(
        scene_cfg, cfg, core::TrackDetectPolicy::kEaar);
  } else if (system == "edgeduet") {
    pipeline = std::make_unique<core::TrackDetectPipeline>(
        scene_cfg, cfg, core::TrackDetectPolicy::kEdgeDuet);
  } else if (system == "besteffort") {
    pipeline = std::make_unique<core::TrackDetectPipeline>(
        scene_cfg, cfg, core::TrackDetectPolicy::kBestEffort);
  } else if (system == "mobile") {
    pipeline = std::make_unique<core::PureMobilePipeline>(scene_cfg, cfg);
  } else {
    usage(argv[0]);
    return 2;
  }

  scene::SceneSimulator sim(scene_cfg);
  rt::Tracer tracer;
  const bool tracing = !trace_path.empty();
  // With --metrics, the edgeIS pipeline streams its ledger counters, RTT
  // estimator gauges and the mask-staleness sketch into the registry live
  // (pre-registered handles, no per-event lookups); the remaining summary
  // fields are filled in after the run below.
  rt::MetricsRegistry reg;
  auto* eis_live = metrics_path.empty()
                       ? nullptr
                       : dynamic_cast<core::EdgeISPipeline*>(pipeline.get());
  if (eis_live != nullptr) eis_live->set_metrics(&reg);
  const auto r =
      core::run_pipeline(sim, *pipeline, /*warmup_frames=*/45,
                         /*memory_sample=*/10, tracing ? &tracer : nullptr);
  if (eis_live != nullptr) eis_live->set_metrics(nullptr);

  std::printf("system=%s dataset=%s link=%s frames=%d seed=%llu\n",
              pipeline->name().c_str(), dataset.c_str(), link.c_str(),
              frames, static_cast<unsigned long long>(seed));
  std::printf("mean_iou=%.4f\n", r.summary.mean_iou);
  std::printf("false_rate_strict=%.4f\n", r.summary.false_rate_strict);
  std::printf("false_rate_loose=%.4f\n", r.summary.false_rate_loose);
  std::printf("mean_latency_ms=%.2f\n", r.summary.mean_latency_ms);
  std::printf("p95_latency_ms=%.2f\n", r.summary.p95_latency_ms);
  std::printf("transmissions=%d\n", r.transmissions);
  std::printf("tx_kbytes=%zu\n", r.total_tx_bytes / 1024);
  std::printf("cpu_utilization=%.3f\n", r.mean_cpu_utilization);
  std::printf("peak_memory_mb=%.2f\n",
              static_cast<double>(r.peak_memory_bytes) / 1048576.0);
  if (cfg.encoding.uplink == enc::UplinkMode::kDelta) {
    if (auto* eis = dynamic_cast<core::EdgeISPipeline*>(pipeline.get())) {
      const auto h = eis->link_health();
      const long long total = h.canvas_tiles_sent + h.canvas_tiles_reused;
      std::printf("canvas_deltas=%d\n", h.canvas_deltas);
      std::printf("canvas_full_keyframes=%d\n", h.canvas_full_keyframes);
      std::printf("canvas_resyncs=%d\n", h.canvas_resyncs);
      std::printf("canvas_hit_rate=%.4f\n",
                  total > 0 ? static_cast<double>(h.canvas_tiles_reused) /
                                  static_cast<double>(total)
                            : 0.0);
    }
  }

  if (tracing) {
    if (!tracer.write_json(trace_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace=%s events=%zu\n", trace_path.c_str(),
                tracer.event_count());
  }

  if (!metrics_path.empty()) {
    reg.gauge_set("mean_iou", r.summary.mean_iou);
    reg.gauge_set("false_rate_strict", r.summary.false_rate_strict);
    reg.gauge_set("false_rate_loose", r.summary.false_rate_loose);
    reg.gauge_set("mean_latency_ms", r.summary.mean_latency_ms);
    reg.gauge_set("p95_latency_ms", r.summary.p95_latency_ms);
    reg.gauge_set("cpu_utilization", r.mean_cpu_utilization);
    reg.gauge_set("battery_percent", r.battery_percent);
    reg.counter_add("transmissions", r.transmissions);
    reg.counter_add("tx_bytes", static_cast<double>(r.total_tx_bytes));
    reg.counter_add("peak_memory_bytes",
                    static_cast<double>(r.peak_memory_bytes));
    if (eis_live != nullptr) {
      // The ledger counters, srtt/rto gauges and the staleness sketch
      // were streamed live through set_metrics during the run; only the
      // fields without live handles are filled from the health summary.
      const auto h = eis_live->link_health();
      reg.counter_add("uplink_drops", h.uplink_drops);
      reg.counter_add("downlink_drops", h.downlink_drops);
      reg.gauge_set("time_in_degraded_ms", h.time_in_degraded_ms);
      reg.gauge_set("rttvar_ms", h.rttvar_ms);
    }
    if (!reg.write_json(metrics_path)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::printf("metrics=%s\n", metrics_path.c_str());
  }
  return 0;
}
