// End-to-end benchmark harness. Drives the edgeis library through its
// public API (SceneSimulator, EdgeISPipeline::process, EdgeGpu +
// attach_shared_gpu, eval::score_frame, link_health(), rt::Tracer +
// CritPathAnalysis) over one workload and reports both clocks:
//
//  - host clock: what the simulator itself costs (frames_per_s, setup_s,
//    peak_rss_mb);
//  - sim clock: what the modelled system does (IoU, mobile latency,
//    annotation staleness, uplink bytes, answered requests). Exact per seed.
//
// A run sets up several times, then repeats *passes* over the workload
// until --seconds of host time are used; the first pass always completes.
// Every pass is the same deterministic simulation, so every pass's digest
// of per-frame outputs must equal the first's (a pass cut short at the
// deadline is checked on its prefix). With --trace 1 one extra complete
// pass runs with the sim tracer attached: it yields the per-layer metrics,
// and its digest must equal the untraced one.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. e2ebench/README.md defines every metric.
//
//   e2ebench --workload solo-davis|crowd-outage|fleet-4|fleet-8 --seed N
//            --seconds S --trace 0|1 [--trace-out host_spans.json]
//   e2ebench --self-test
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/edgeis_pipeline.hpp"
#include "core/fleet.hpp"
#include "features/orb.hpp"
#include "pass.hpp"
#include "runtime/critpath.hpp"

using namespace e2ebench;

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Box speed right now, as a multiplier on host times: the median of three
/// reference-kernel runs against the kernel's nominal time.
double slowdown_now() {
  return median({reference_kernel_s(), reference_kernel_s(),
                 reference_kernel_s()}) /
         kReferenceKernelS;
}

/// Per client-frame of one pass: the factor that converts its host times
/// to nominal box speed — the reference kernel's nominal time over the
/// median of its runs around that frame (9 client-frames wide).
std::vector<double> nominal_scale(const PassResult& p) {
  const std::size_t n = p.frames.size();
  std::vector<double> scale(n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> window;
    for (std::size_t k = j >= 4 ? j - 4 : 0; k < std::min(n, j + 5); ++k) {
      window.push_back(p.frames[k].ref_s);
    }
    scale[j] = kReferenceKernelS / median(window);
  }
  return scale;
}

/// Host seconds of one whole pass at nominal box speed: each client-frame
/// position costs the mean of its normalized frame time over the passes
/// that reached it (a pass cut short contributes its prefix). With
/// `normalize` off, the raw wall times.
double pass_host_s(const std::vector<const PassResult*>& passes,
                   bool normalize = true) {
  const std::size_t n = passes.front()->frames.size();
  std::vector<double> sum(n, 0.0);
  std::vector<int> count(n, 0);
  for (const PassResult* p : passes) {
    const auto scale = nominal_scale(*p);
    for (std::size_t j = 0; j < p->frames.size() && j < n; ++j) {
      sum[j] += p->frames[j].frame_s * (normalize ? scale[j] : 1.0);
      ++count[j];
    }
  }
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) total += sum[j] / count[j];
  return total;
}

/// Share of unique edge requests that ended unanswered: retries exhausted
/// or refused at the admission gate.
double request_fail_rate(const SimOutputs& so) {
  return ratio(so.health.requests_failed + so.health.admission_rejects,
               so.health.requests_sent);
}

/// The sim-clock end-to-end metrics of one complete pass.
std::vector<Metric> sim_metrics(const SimOutputs& so) {
  return {
      {"iou_mean", so.iou.mean(), "ratio"},
      {"mobile_ms_p50", so.running_ms.percentile(50.0), "ms"},
      {"mobile_ms_p95", so.running_ms.percentile(95.0), "ms"},
      {"staleness_ms_mean", so.staleness_ms.mean(), "ms"},
      {"uplink_kb_per_frame",
       ratio(static_cast<double>(so.tx_bytes) / 1024.0,
             static_cast<double>(so.client_frames)),
       "KiB"},
      {"request_answered_rate", 1.0 - request_fail_rate(so), "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced pass.

std::vector<Metric> layer_metrics(const Workload& w, const PassResult& traced,
                                  const rt::Tracer& tracer,
                                  const ReplaySample& replay,
                                  double untraced_pass_s,
                                  double raw_frames_per_s, double slowdown) {
  const SimOutputs& so = traced.sim;
  const auto scale = nominal_scale(traced);
  double render = 0, process = 0, gt = 0, score = 0;
  double tracking = 0, keyframe = 0, raw_frame = 0, raw_calls = 0;
  long n_key = 0;
  for (std::size_t j = 0; j < traced.frames.size(); ++j) {
    const FrameTiming& ft = traced.frames[j];
    render += ft.render_s * scale[j];
    process += ft.process_s * scale[j];
    gt += ft.gt_s * scale[j];
    score += ft.score_s * scale[j];
    (ft.transmitted ? keyframe : tracking) += ft.process_s * scale[j];
    n_key += ft.transmitted ? 1 : 0;
    raw_frame += ft.frame_s;
    raw_calls += ft.render_s + ft.process_s + ft.gt_s + ft.score_s;
  }
  const auto count = [](auto v) { return static_cast<double>(v); };
  const double n = count(traced.frames.size());
  const double n_scored = count(so.scored_frames);
  const double n_images = count(replay.images.size());
  const double n_masks = count(replay.gt_masks.size());

  // Replays on the workload's own frames, outside the frame loop, at
  // nominal box speed.
  feat::OrbExtractor orb;
  long features = 0;
  long boxes = 0;
  double replay_slowdown = slowdown_now();
  auto t0 = Clock::now();
  for (const auto& img : replay.images) {
    features += static_cast<long>(orb.extract(img).size());
  }
  const double orb_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  for (const auto& m : replay.gt_masks) {
    for (const auto& poly : mask::find_contours(m)) {
      const auto filled = mask::rasterize_polygon(poly, m.width(), m.height());
      boxes += filled.bounding_box().has_value() ? 1 : 0;
    }
  }
  const double contour_s = seconds_between(t0, Clock::now());
  replay_slowdown = 0.5 * (replay_slowdown + slowdown_now());
  std::printf("replays: %zu frames, %ld features; %zu GT masks, %ld boxes\n",
              replay.images.size(), features, replay.gt_masks.size(), boxes);

  // Sim-clock mobile stage split over every client's mobile track (all
  // frames), and the critical-path rollup of post-warmup requests.
  std::map<std::string, double> stage_ms;
  for (std::size_t ci = 0; ci < w.clients.size(); ++ci) {
    const rt::TraceTrack mobile{
        rt::track::kMobile.pid + 4 * static_cast<int>(ci),
        rt::track::kMobile.tid};
    for (const auto& [name, st] : tracer.aggregate(mobile)) {
      stage_ms[name] += st.total_ms;
    }
  }
  const auto per_frame = [&](double total_ms) {
    return ratio(total_ms, count(so.client_frames));
  };
  const auto& scene0 = w.clients.front().scene;
  const double warmup_ms = w.warmup_frames / scene0.fps * 1000.0;
  const auto roll =
      rt::CritPathAnalysis::from_trace(tracer, warmup_ms).rollup();
  const auto mean = roll.mean();

  // Edge GPU accounting: the shared EdgeGpu's own stats in the fleet; a
  // private edge server runs one request per model pass (its infer spans).
  double batches = so.gpu.batches;
  double batched = so.gpu.batched_requests;
  double busy_ms = so.gpu.busy_ms;
  if (!w.shared_gpu) {
    const auto edge = tracer.aggregate(rt::track::kEdge);
    if (const auto it = edge.find("infer"); it != edge.end()) {
      batches = it->second.count;
      batched = it->second.count;
      busy_ms = it->second.total_ms;
    }
  }
  const double sim_span_ms = scene0.total_frames / scene0.fps * 1000.0;
  const double tiles = count(so.health.canvas_tiles_sent +
                             so.health.canvas_tiles_reused);
  const double traced_pass_s = pass_host_s({&traced});
  return {
      {"scene.render_host_ms", 1e3 * ratio(render, n), "ms"},
      {"scene.gt_host_ms", 1e3 * ratio(gt, n_scored), "ms"},
      {"scene.objects_per_frame", ratio(count(so.gt_objects), n_scored),
       "count"},
      {"eval.score_host_ms", 1e3 * ratio(score, n_scored), "ms"},
      {"core.process_host_ms", 1e3 * ratio(process, n), "ms"},
      {"core.tracking_host_ms", 1e3 * ratio(tracking, n - count(n_key)),
       "ms"},
      {"core.keyframe_host_ms", 1e3 * ratio(keyframe, count(n_key)), "ms"},
      {"core.keyframe_share", ratio(count(n_key), n), "ratio"},
      {"features.orb_host_ms", 1e3 * ratio(orb_s / replay_slowdown, n_images),
       "ms"},
      {"features.per_frame", ratio(count(features), n_images), "count"},
      {"mask.contour_host_ms",
       1e3 * ratio(contour_s / replay_slowdown, n_masks), "ms"},
      {"core.render_sim_ms", per_frame(stage_ms["render"]), "ms"},
      {"features.extract_sim_ms",
       per_frame(stage_ms["extract"] + stage_ms["klt_track"]), "ms"},
      {"vo.track_sim_ms", per_frame(stage_ms["track"]), "ms"},
      {"transfer.transfer_sim_ms", per_frame(stage_ms["transfer"]), "ms"},
      {"encoding.encode_sim_ms", per_frame(stage_ms["encode"]), "ms"},
      {"net.uplink_sim_ms",
       mean.uplink_retry_ms + mean.uplink_queue_ms + mean.uplink_transit_ms,
       "ms"},
      {"core.gpu_wait_sim_ms", mean.gpu_wait_ms, "ms"},
      {"segnet.compute_sim_ms", mean.compute_ms, "ms"},
      {"core.stream_tail_sim_ms", mean.stream_tail_ms, "ms"},
      {"net.downlink_sim_ms",
       mean.downlink_queue_ms + mean.downlink_transit_ms, "ms"},
      {"core.pickup_sim_ms", mean.pickup_ms, "ms"},
      {"core.staleness_p95_sim_ms", so.staleness_ms.percentile(95.0), "ms"},
      {"net.rtt_sim_ms", roll.mean_span_ms(), "ms"},
      {"core.critpath_requests", count(roll.requests), "count"},
      {"segnet.anchors_per_request",
       ratio(so.anchors_total, count(so.requests_completed)), "count"},
      {"segnet.rois_per_request",
       ratio(so.rois_total, count(so.requests_completed)), "count"},
      {"core.requests_sent", count(so.health.requests_sent), "count"},
      {"core.request_fail_rate", request_fail_rate(so), "ratio"},
      {"core.retransmissions", count(so.health.retransmissions), "count"},
      {"core.attempt_timeouts", count(so.health.attempt_timeouts), "count"},
      {"core.resend_requests", count(so.health.resend_requests), "count"},
      {"core.degraded_frames", count(so.health.degraded_frames), "count"},
      {"core.probes_sent", count(so.health.probes_sent), "count"},
      {"encoding.canvas_hit_rate",
       ratio(count(so.health.canvas_tiles_reused), tiles), "ratio"},
      {"encoding.canvas_resyncs", count(so.health.canvas_resyncs), "count"},
      {"core.gpu_batches", batches, "count"},
      {"core.gpu_mean_batch", ratio(batched, batches), "count"},
      {"core.admission_rejects", count(so.health.admission_rejects),
       "count"},
      {"core.gpu_busy_share", ratio(busy_ms, sim_span_ms), "ratio"},
      {"bench.unattributed_host_share", 1.0 - ratio(raw_calls, raw_frame),
       "ratio"},
      {"bench.trace_overhead", ratio(traced_pass_s, untraced_pass_s) - 1.0,
       "ratio"},
      {"bench.raw_frames_per_s", raw_frames_per_s, "1/s"},
      {"bench.box_slowdown", slowdown, "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Output.

void print_json(bool correct, long attempted, long failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metric_lines(const char* heading,
                        const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const auto& m : metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Host spans of one pass as Chrome trace-event JSON, laid end to end on
/// the pass's host timeline (microseconds, raw wall time): one `frame`
/// span per client-frame (args.id = its position in the pass) with its
/// render / process / ground_truth_masks / score_frame children. A span's
/// self time is its duration minus its children's; the frame span's self
/// time is harness bookkeeping.
bool write_host_trace(const std::string& path, const Workload& w,
                      const PassResult& p) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n";
  bool first = true;
  const auto span = [&](const char* name, double ts_s, double dur_s,
                        std::size_t id, std::size_t client) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu}}",
                  first ? "" : ",\n", client + 1, name, ts_s * 1e6,
                  dur_s * 1e6, id);
    first = false;
    f << buf;
  };
  double t = 0.0;
  for (std::size_t j = 0; j < p.frames.size(); ++j) {
    const FrameTiming& ft = p.frames[j];
    const std::size_t client = j % w.clients.size();
    span("frame", t, ft.frame_s, j, client);
    double c = t;
    span("render", c, ft.render_s, j, client);
    c += ft.render_s;
    span(ft.transmitted ? "process.keyframe" : "process.tracking", c,
         ft.process_s, j, client);
    c += ft.process_s;
    if (ft.scored) {
      span("ground_truth_masks", c, ft.gt_s, j, client);
      c += ft.gt_s;
      span("score_frame", c, ft.score_s, j, client);
    }
    t += ft.frame_s;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// The benchmark run.

struct RunArgs {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// The committed bench row workload `w` reproduces at the default seed
/// (empty if none), and in `got` the same row computed from `so`.
std::string committed_row(const Workload& w, const SimOutputs& so,
                          std::string& got) {
  char buf[256];
  if (w.name == "crowd-outage") {
    // bench/expected/scenario_matrix_headline.txt, edgeIS-delta row.
    std::snprintf(buf, sizeof(buf), "iou=%.4f tx_bytes=%zu stale_p95=%.0f",
                  so.iou.mean(), so.tx_bytes,
                  so.scored_staleness_ms.percentile(95.0));
    got = buf;
    return "iou=0.4772 tx_bytes=250840 stale_p95=2527";
  }
  // bench/expected/fleet_scaling_headline.txt, clients-04 / clients-08.
  const char* fleet_rows[][2] = {
      {"fleet-4",
       "iou=0.4912 p50_ms=29.4 p99_ms=38.6 stale_rate=0.0000 rejects=0"},
      {"fleet-8",
       "iou=0.2487 p50_ms=13.3 p99_ms=40.0 stale_rate=0.1196 rejects=26"},
  };
  for (const auto& [name, row] : fleet_rows) {
    if (w.name != name) continue;
    std::snprintf(buf, sizeof(buf),
                  "iou=%.4f p50_ms=%.1f p99_ms=%.1f stale_rate=%.4f "
                  "rejects=%d",
                  so.iou.mean(), so.scored_ms.percentile(50.0),
                  so.scored_ms.percentile(99.0),
                  ratio(static_cast<double>(so.stale_samples),
                        static_cast<double>(so.staleness_samples)),
                  so.gpu.admission_rejects);
    got = buf;
    return row;
  }
  return "";
}

bool check_committed(const Workload& w, const SimOutputs& so) {
  std::string got;
  const std::string want = committed_row(w, so, got);
  if (want.empty()) return true;
  const bool ok = got == want;
  std::printf("committed row: %s\n  want %s\n  got  %s\n",
              ok ? "match" : "MISMATCH", want.c_str(), got.c_str());
  return ok;
}

/// A repeated pass must reproduce the reference pass's digest — on the
/// prefix it covered, if it was cut short.
bool same_outputs(const PassResult& ref, const PassResult& p) {
  if (p.complete) return p.digest == ref.digest;
  if (p.running_digest.empty()) return true;
  const std::size_t last = p.running_digest.size() - 1;
  return last < ref.running_digest.size() &&
         p.running_digest[last] == ref.running_digest[last];
}

int run_benchmark(const RunArgs& a) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  Workload w;
  if (!make_workload(a.workload, a.seed, w)) {
    std::fprintf(stderr, "error: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d clients=%zu\n",
              w.name.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
              w.clients.size());

  // Set-up, several times, each at nominal box speed.
  std::vector<double> setup_samples;
  for (int k = 0; k < 51; ++k) {
    const double s = time_set_up(a.workload, a.seed);
    setup_samples.push_back(s / slowdown_now());
  }

  // The untraced reference pass (complete), the traced pass if asked for
  // (complete), then untraced passes until the deadline.
  std::vector<PassResult> passes;
  passes.push_back(run_pass(w));
  rt::Tracer tracer;
  ReplaySample replay;
  PassResult traced;
  if (a.trace) {
    PassOptions opt;
    opt.tracer = &tracer;
    opt.replay = &replay;
    traced = run_pass(w, opt);
  }
  while (Clock::now() < deadline) {
    PassOptions opt;
    opt.deadline = deadline;
    passes.push_back(run_pass(w, opt));
  }

  bool correct = true;
  const PassResult& ref = passes.front();
  long attempted = 0;
  long failed = 0;
  std::vector<const PassResult*> timed;
  std::vector<double> slowdowns;
  for (const auto& p : passes) {
    attempted += static_cast<long>(p.frames.size());
    failed += p.sim.invalid_frames;
    timed.push_back(&p);
    for (const auto& ft : p.frames) {
      slowdowns.push_back(ft.ref_s / kReferenceKernelS);
    }
    if (!same_outputs(ref, p)) {
      std::printf("check FAILED: a repeated pass diverged from the first\n");
      correct = false;
    }
  }
  if (a.trace) {
    attempted += static_cast<long>(traced.frames.size());
    failed += traced.sim.invalid_frames;
    if (traced.digest != ref.digest) {
      std::printf("check FAILED: traced pass diverged from the untraced one\n");
      correct = false;
    }
  }
  if (failed > 0) {
    std::printf("check FAILED: %ld client-frames with invalid outputs\n",
                failed);
    correct = false;
  }
  if (ref.sim.iou.empty()) {
    std::printf("check FAILED: no object-frame was scored\n");
    correct = false;
  }
  if (a.seed == kDefaultSeed && !check_committed(w, ref.sim)) correct = false;

  const double n = static_cast<double>(ref.sim.client_frames);
  const double pass_s = pass_host_s(timed);
  const double raw_fps = n / pass_host_s(timed, /*normalize=*/false);
  const double slowdown = median(slowdowns);
  std::printf("passes=%zu digest=%016" PRIx64 " client_frames/pass=%.0f "
              "raw_frames_per_s=%.4g box_slowdown=%.3f\n",
              passes.size(), ref.digest, n, raw_fps, slowdown);
  std::printf("requests: sent=%d failed=%d rejected=%d\n",
              ref.sim.health.requests_sent, ref.sim.health.requests_failed,
              ref.sim.health.admission_rejects);

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics.push_back({"frames_per_s", n / pass_s, "1/s"});
    metrics.push_back({"setup_s", median(setup_samples), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    for (auto& m : sim_metrics(ref.sim)) metrics.push_back(std::move(m));
    print_metric_lines("end-to-end:", metrics);
  } else {
    metrics = layer_metrics(w, traced, tracer, replay, pass_s, raw_fps,
                            slowdown);
    print_metric_lines("per-layer (traced pass):", metrics);
    if (!a.trace_out.empty() && !write_host_trace(a.trace_out, w, traced)) {
      std::fprintf(stderr, "error: cannot write %s\n", a.trace_out.c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test: the harness loop reproduces the library's own run loops, the
// default seed reproduces the committed rows, and a held-out seed is as
// deterministic, traced or not, as the default one.

bool expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  std::fflush(stdout);
  return ok;
}

PassOptions untimed() {
  PassOptions opt;
  opt.reference = false;
  return opt;
}

int run_self_test() {
  bool ok = true;
  std::printf("self-test: solo loop == run_pipeline\n");
  {
    const Workload w = solo_davis(kDefaultSeed, 120);
    const PassResult p = run_pass(w, untimed());
    const auto& spec = w.clients.front();
    scene::SceneSimulator sim(spec.scene);
    core::EdgeISPipeline pipeline(spec.scene, spec.pipeline);
    const auto rr = core::run_pipeline(sim, pipeline, w.warmup_frames);
    ok &= expect(rr.evaluator.iou_samples().samples() == p.sim.iou.samples(),
                 "per-object IoU samples identical");
    ok &= expect(
        rr.evaluator.latency_samples().samples() == p.sim.scored_ms.samples(),
        "scored per-frame latencies identical");
    ok &= expect(rr.total_tx_bytes == p.sim.tx_bytes &&
                     rr.transmissions == p.sim.transmitted_frames,
                 "uplink bytes and transmissions identical");
  }
  std::printf("self-test: fleet loop == run_fleet (fleet-4)\n");
  {
    const Workload w = fleet(kDefaultSeed, 4);
    const PassResult p = run_pass(w, untimed());
    core::FleetConfig fc;
    fc.gpu = w.gpu;
    fc.warmup_frames = w.warmup_frames;
    for (const auto& c : w.clients) fc.clients.push_back({c.scene, c.pipeline});
    const auto fr = core::run_fleet(fc);
    // run_fleet pools client by client, the harness frame by frame: the
    // same samples in another order, so compare them sorted.
    std::vector<double> fleet_iou;
    for (const auto& c : fr.clients) {
      const auto& s = c.run.evaluator.iou_samples().samples();
      fleet_iou.insert(fleet_iou.end(), s.begin(), s.end());
    }
    std::vector<double> loop_iou = p.sim.iou.samples();
    std::sort(fleet_iou.begin(), fleet_iou.end());
    std::sort(loop_iou.begin(), loop_iou.end());
    ok &= expect(fleet_iou == loop_iou, "pooled IoU samples identical");
    ok &= expect(fr.p50_latency_ms == p.sim.scored_ms.percentile(50.0) &&
                     fr.p99_latency_ms == p.sim.scored_ms.percentile(99.0),
                 "pooled p50/p99 latency identical");
    ok &= expect(fr.gpu.batches == p.sim.gpu.batches &&
                     fr.gpu.admission_rejects == p.sim.gpu.admission_rejects &&
                     fr.gpu.busy_ms == p.sim.gpu.busy_ms,
                 "GPU batches, rejects and busy time identical");
    ok &= expect(fr.uplink_bytes == p.sim.tx_bytes, "uplink bytes identical");
  }
  std::printf("self-test: committed rows at the default seed\n");
  for (const char* name : {"crowd-outage", "fleet-4", "fleet-8"}) {
    Workload w;
    make_workload(name, kDefaultSeed, w);
    ok &= expect(check_committed(w, run_pass(w, untimed()).sim), name);
  }
  std::printf("self-test: held-out seed 7 is deterministic, traced or not\n");
  for (const char* name : {"solo-davis", "crowd-outage", "fleet-4"}) {
    Workload w;
    make_workload(name, 7, w);
    const PassResult a = run_pass(w, untimed());
    rt::Tracer tracer;
    PassOptions opt = untimed();
    opt.tracer = &tracer;
    const PassResult b = run_pass(w, opt);
    ok &= expect(a.digest == b.digest && !a.sim.iou.empty(), name);
  }
  std::printf("self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload solo-davis|crowd-outage|fleet-4|fleet-8 "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       %s --self-test\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      return run_self_test();
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    usage(argv[0]);
    return 2;
  }
  return run_benchmark(a);
}
