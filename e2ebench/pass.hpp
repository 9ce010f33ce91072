// One pass over a workload: set up every client, then drive the frame loop
// through the library's public API, timing each call into a layer on the
// host clock and collecting the sim-clock outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/edge_server.hpp"
#include "image/image.hpp"
#include "mask/mask.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"
#include "workloads.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nominal time of reference_kernel_s() on a quiet 4-core Xeon box.
inline constexpr double kReferenceKernelS = 0.41e-3;

/// Time one run of a fixed, cache-resident compute kernel that belongs to
/// the harness (never to the library). Measured between client-frames, its
/// time against kReferenceKernelS gives the box's momentary slowdown —
/// shared cores and frequency swings on this class of machine move it by
/// up to 2x within seconds — and the harness divides that out of every
/// host time it reports.
double reference_kernel_s();

/// Host timings of one client-frame (seconds). `frame_s` is the whole loop
/// body; the four calls are its child spans and the rest is harness
/// bookkeeping. `ref_s` is the reference kernel run right after the frame,
/// outside the frame span.
struct FrameTiming {
  double frame_s = 0.0;
  double render_s = 0.0;
  double process_s = 0.0;
  double gt_s = 0.0;     // 0 on warmup frames (not scored)
  double score_s = 0.0;
  double ref_s = kReferenceKernelS;
  bool transmitted = false;
  bool scored = false;
};

/// Everything a pass produces on the sim clock.
struct SimOutputs {
  rt::SampleSet iou;            // per scored object-frame
  // Per client-frame once its client runs (has applied an edge
  // annotation; bootstrap frames do no tracking): device latency and the
  // age of the newest applied annotation.
  rt::SampleSet running_ms;
  rt::SampleSet staleness_ms;
  // Per scored client-frame, as the committed bench rows count them.
  rt::SampleSet scored_ms;
  rt::SampleSet scored_staleness_ms;  // ... that has an annotation
  std::size_t tx_bytes = 0;
  long client_frames = 0;
  long scored_frames = 0;
  long gt_objects = 0;          // GT masks over scored frames
  long transmitted_frames = 0;
  rt::LinkHealthStats health;   // counts summed over clients
  long staleness_samples = 0;   // health.mask_staleness_ms, pooled
  long stale_samples = 0;       // ... above core::kStaleThresholdMs
  core::GpuStats gpu;           // shared GPU only
  long requests_completed = 0;  // edge_stats() entries, pooled
  double anchors_total = 0.0;
  double rois_total = 0.0;
  long invalid_frames = 0;      // outputs failing the sanity check
};

/// Replay inputs kept from a pass: a sample of client 0's rendered frames
/// and their ground-truth masks.
struct ReplaySample {
  std::vector<img::GrayImage> images;
  std::vector<mask::InstanceMask> gt_masks;
};

struct PassOptions {
  rt::Tracer* tracer = nullptr;  // sim tracer (traced pass only)
  /// Stop at this instant, mid-pass if need be (untimed passes run whole).
  Clock::time_point deadline = Clock::time_point::max();
  bool reference = true;         // run the reference kernel per frame
  ReplaySample* replay = nullptr;
};

struct PassResult {
  bool complete = false;
  std::vector<FrameTiming> frames;  // execution order (frame-major)
  /// Digest of the per-frame outputs after each client-frame, so a pass
  /// cut short is checked against the same prefix of a complete one.
  std::vector<std::uint64_t> running_digest;
  /// Digest of the whole pass: every frame plus the end-of-run counters.
  std::uint64_t digest = 0;
  SimOutputs sim;
};

PassResult run_pass(const Workload& w, const PassOptions& opt = {});

/// Host seconds of one set-up of workload `name` at `seed`: its configs,
/// simulators, pipelines and GPU, up to where the first frame would render.
/// The state is torn down again (untimed).
double time_set_up(const std::string& name, std::uint64_t seed);

}  // namespace e2ebench
