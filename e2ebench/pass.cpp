#include "pass.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/edgeis_pipeline.hpp"
#include "core/fleet.hpp"
#include "eval/metrics.hpp"
#include "scene/scene.hpp"

namespace e2ebench {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

void fold(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}
template <typename T>
void fold(std::uint64_t& h, T v) {
  fold(h, &v, sizeof(v));
}

struct Client {
  std::unique_ptr<scene::SceneSimulator> sim;
  std::unique_ptr<core::EdgeISPipeline> pipeline;
};

struct PassState {
  std::unique_ptr<core::EdgeGpu> gpu;
  std::vector<Client> clients;
};

PassState set_up(const Workload& w) {
  PassState s;
  if (w.shared_gpu) s.gpu = std::make_unique<core::EdgeGpu>(w.gpu);
  s.clients.reserve(w.clients.size());
  for (const auto& spec : w.clients) {
    Client c;
    c.sim = std::make_unique<scene::SceneSimulator>(spec.scene);
    c.pipeline =
        std::make_unique<core::EdgeISPipeline>(spec.scene, spec.pipeline);
    if (s.gpu) c.pipeline->attach_shared_gpu(s.gpu.get());
    s.clients.push_back(std::move(c));
  }
  return s;
}

/// Finite, non-negative latency and masks of the frame's size.
bool frame_output_valid(const scene::RenderedFrame& frame,
                        const core::FrameOutput& out) {
  if (!std::isfinite(out.mobile_latency_ms) || out.mobile_latency_ms < 0.0) {
    return false;
  }
  return std::all_of(out.rendered_masks.begin(), out.rendered_masks.end(),
                     [&](const mask::InstanceMask& m) {
                       return m.width() == frame.intensity.width() &&
                              m.height() == frame.intensity.height();
                     });
}

/// Pool one client's end-of-run counters into `so`.
void collect(const core::EdgeISPipeline& pipeline, SimOutputs& so,
             std::uint64_t& digest) {
  const auto h = pipeline.link_health();
  auto& t = so.health;
  t.requests_sent += h.requests_sent;
  t.requests_failed += h.requests_failed;
  t.responses_received += h.responses_received;
  t.retransmissions += h.retransmissions;
  t.attempt_timeouts += h.attempt_timeouts;
  t.resend_requests += h.resend_requests;
  t.admission_rejects += h.admission_rejects;
  t.probes_sent += h.probes_sent;
  t.degraded_entries += h.degraded_entries;
  t.degraded_frames += h.degraded_frames;
  t.canvas_resyncs += h.canvas_resyncs;
  t.canvas_tiles_sent += h.canvas_tiles_sent;
  t.canvas_tiles_reused += h.canvas_tiles_reused;
  for (double x : h.mask_staleness_ms.samples()) {
    ++so.staleness_samples;
    if (x > core::kStaleThresholdMs) ++so.stale_samples;
  }
  for (const auto& st : pipeline.edge_stats()) {
    ++so.requests_completed;
    so.anchors_total += st.anchors_evaluated;
    so.rois_total += st.rois_after_pruning;
  }
  fold(digest, h.requests_sent);
  fold(digest, h.requests_failed);
  fold(digest, h.admission_rejects);
  fold(digest, h.retransmissions);
  fold(digest, h.canvas_tiles_sent);
}

}  // namespace

double reference_kernel_s() {
  constexpr int kW = 128;
  constexpr int kH = 96;
  static std::vector<std::uint8_t> a(kW * kH, 7);
  static std::vector<std::uint8_t> b(kW * kH, 0);
  static volatile unsigned sink = 0;
  const auto sweep = [] {
    for (int y = 1; y < kH - 1; ++y) {
      for (int x = 1; x < kW - 1; ++x) {
        const int i = y * kW + x;
        const int acc = a[i - kW - 1] + a[i - kW] + a[i - kW + 1] + a[i - 1] +
                        3 * a[i] + a[i + 1] + a[i + kW - 1] + a[i + kW] +
                        a[i + kW + 1];
        b[i] = static_cast<std::uint8_t>((acc * 37 + x * y) >> 3);
      }
    }
    std::swap(a, b);
  };
  sweep();  // untimed: bring the tiles into cache
  const auto t0 = Clock::now();
  for (int k = 0; k < 16; ++k) sweep();
  const double s = seconds_between(t0, Clock::now());
  sink = sink + a[kW + 1];
  return s;
}

double time_set_up(const std::string& name, std::uint64_t seed) {
  const auto t0 = Clock::now();
  Workload w;
  make_workload(name, seed, w);
  const PassState s = set_up(w);
  return seconds_between(t0, Clock::now());
}

/// Frames are driven frame-major, client-minor. Every preset runs at the
/// same fps, so this is exactly the capture order of run_fleet's event
/// scheduler (simultaneous captures resolve in client order) and, for one
/// client, run_pipeline's. The self-test pins both equivalences.
PassResult run_pass(const Workload& w, const PassOptions& opt) {
  PassResult r;
  PassState s = set_up(w);

  rt::Tracer* tracer = opt.tracer;
  if (tracer != nullptr) {
    // As run_fleet: the edge GPU is one machine, so its track stays
    // canonical; each client's tracks get a pid offset of 4 per client.
    if (w.shared_gpu) tracer->mark_shared_pid(rt::track::kEdge.pid);
    for (auto& c : s.clients) c.pipeline->set_tracer(tracer);
  }

  int max_frames = 0;
  for (const auto& c : s.clients) {
    max_frames = std::max(max_frames, c.sim->total_frames());
  }
  const std::size_t capacity =
      static_cast<std::size_t>(max_frames) * s.clients.size();
  r.frames.reserve(capacity);
  r.running_digest.reserve(capacity);
  constexpr int kReplayStride = 10;
  SimOutputs& so = r.sim;
  std::uint64_t digest = kFnvOffset;
  bool stopped = false;
  for (int i = 0; i < max_frames && !stopped; ++i) {
    for (std::size_t ci = 0; ci < s.clients.size(); ++ci) {
      Client& c = s.clients[ci];
      if (i >= c.sim->total_frames()) continue;
      if (tracer != nullptr) tracer->set_pid_offset(4 * static_cast<int>(ci));
      FrameTiming ft;
      const auto t0 = Clock::now();
      const scene::RenderedFrame frame = c.sim->render(i);
      const auto t1 = Clock::now();
      const core::FrameOutput out = c.pipeline->process(frame);
      const auto t2 = Clock::now();
      ft.render_s = seconds_between(t0, t1);
      ft.process_s = seconds_between(t1, t2);
      ft.transmitted = out.transmitted;

      ++so.client_frames;
      if (out.staleness_ms >= 0.0) {
        so.running_ms.add(out.mobile_latency_ms);
        so.staleness_ms.add(out.staleness_ms);
      }
      if (out.transmitted) {
        so.tx_bytes += out.tx_bytes;
        ++so.transmitted_frames;
      }
      if (!frame_output_valid(frame, out)) ++so.invalid_frames;
      fold(digest, out.mobile_latency_ms);
      fold(digest, out.transmitted);
      fold(digest, out.tx_bytes);
      fold(digest, out.staleness_ms);
      fold(digest, out.degraded);
      fold(digest, out.tracking_ok);
      fold(digest, out.rendered_masks.size());

      if (i >= w.warmup_frames) {
        const auto t3 = Clock::now();
        auto gts = c.sim->ground_truth_masks(frame);
        const auto t4 = Clock::now();
        const auto fs = eval::score_frame(i, out.rendered_masks, gts,
                                          out.mobile_latency_ms);
        const auto t5 = Clock::now();
        ft.gt_s = seconds_between(t3, t4);
        ft.score_s = seconds_between(t4, t5);
        ft.scored = true;
        ++so.scored_frames;
        so.gt_objects += static_cast<long>(gts.size());
        so.scored_ms.add(out.mobile_latency_ms);
        if (out.staleness_ms >= 0.0) {
          so.scored_staleness_ms.add(out.staleness_ms);
        }
        for (const auto& o : fs.objects) {
          so.iou.add(o.iou);
          fold(digest, o.iou);
        }
        if (opt.replay != nullptr && ci == 0 && i % kReplayStride == 0) {
          opt.replay->images.push_back(frame.intensity);
          for (auto& g : gts) opt.replay->gt_masks.push_back(std::move(g));
        }
      }
      if (tracer != nullptr) tracer->set_pid_offset(0);
      ft.frame_s = seconds_between(t0, Clock::now());
      if (opt.reference) ft.ref_s = reference_kernel_s();
      r.frames.push_back(ft);
      r.running_digest.push_back(digest);
    }
    if (Clock::now() >= opt.deadline) stopped = true;
  }
  r.complete = !stopped || r.frames.size() == capacity;

  for (auto& c : s.clients) {
    c.pipeline->set_tracer(nullptr);
    collect(*c.pipeline, so, digest);
  }
  if (s.gpu) {
    so.gpu = s.gpu->stats();
    fold(digest, so.gpu.batches);
    fold(digest, so.gpu.admission_rejects);
    fold(digest, so.gpu.busy_ms);
  }
  r.digest = digest;
  return r;
}

}  // namespace e2ebench
