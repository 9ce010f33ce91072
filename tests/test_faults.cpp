// Fault injection and graceful degradation. Unit tests pin the scripted
// fault behaviours (drop / duplicate / reorder / outage) to fixed seeds;
// the integration tests drive EdgeISPipeline through lossy links and a
// two-second total outage and assert it degrades to MAMT-only mask
// service, re-initializes nothing, and recovers with a refresh request.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/edgeis_pipeline.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "net/send_queue.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "scene/presets.hpp"

using namespace edgeis;
using namespace edgeis::net;

// ---- FaultInjector unit tests. ---------------------------------------------

TEST(FaultScript, OutageWindowDropsEverythingInside) {
  FaultInjector inj(FaultScript::outage(100.0, 200.0), rt::Rng(1));
  EXPECT_FALSE(inj.on_message(50.0).drop);
  EXPECT_TRUE(inj.on_message(100.0).drop);   // inclusive start
  EXPECT_TRUE(inj.on_message(150.0).drop);
  EXPECT_FALSE(inj.on_message(200.0).drop);  // exclusive end
  EXPECT_FALSE(inj.on_message(250.0).drop);
  EXPECT_EQ(inj.stats().outage_dropped, 2);
  EXPECT_EQ(inj.stats().messages, 5);
  EXPECT_TRUE(inj.in_outage(150.0));
  EXPECT_FALSE(inj.in_outage(250.0));
}

TEST(FaultScript, DropDecisionsDeterministicAcrossRuns) {
  const auto script = FaultScript::lossy(0.3);
  FaultInjector a(script, rt::Rng(77));
  FaultInjector b(script, rt::Rng(77));
  int drops = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto da = a.on_message(i * 10.0);
    const auto db = b.on_message(i * 10.0);
    EXPECT_EQ(da.drop, db.drop);
    drops += da.drop ? 1 : 0;
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  // Bernoulli(0.3) over 2000 trials: comfortably within +-5 sigma.
  EXPECT_NEAR(drops / 2000.0, 0.3, 0.05);
}

namespace {

// A jitter- and congestion-free link: every message's transit is exactly
// its base latency plus serialization.
LinkProfile fixed_link(double latency_ms) {
  LinkProfile link;
  link.base_latency_ms = latency_ms;
  link.jitter_ms = 0.0;
  link.congestion_probability = 0.0;
  return link;
}

}  // namespace

TEST(FaultScript, DuplicateDeliversTwoCopies) {
  FaultScript script;
  script.add({0.0, 1e9, FaultMode::kDuplicate, 1.0, 0.0});
  FaultInjector inj(script, rt::Rng(5));
  SendQueue q(fixed_link(10.0), rt::Rng(5));
  const auto out = q.enqueue(0.0, 0, inj);
  ASSERT_FALSE(out.fate.drop);
  ASSERT_TRUE(out.fate.duplicate);
  EXPECT_DOUBLE_EQ(out.deliver_ms, 10.0);
  // The lagging copy is its own transmission, delayed by 5..40 ms.
  EXPECT_GE(out.duplicate_deliver_ms, 15.0);
  EXPECT_LE(out.duplicate_deliver_ms, 50.0);
  EXPECT_EQ(q.in_flight(0.0), 2);  // both copies on the wire
  EXPECT_EQ(q.in_flight(1e9), 0);
  EXPECT_EQ(inj.stats().duplicated, 1);
}

TEST(FaultScript, ReorderLetsLaterMessageOvertake) {
  // Only the first message falls into the reorder window; its extra delay
  // (>= 0.5 * 100 ms) pushes it past the second message.
  FaultScript script;
  script.add({0.0, 0.5, FaultMode::kReorder, 1.0, 100.0});
  FaultInjector inj(script, rt::Rng(9));
  SendQueue q(fixed_link(10.0), rt::Rng(9));
  const auto first = q.enqueue(0.0, 0, inj);   // reordered: arrives >= 60
  const auto second = q.enqueue(1.0, 0, inj);  // arrives at 11
  ASSERT_FALSE(first.fate.drop);
  ASSERT_FALSE(second.fate.drop);
  EXPECT_GE(first.deliver_ms, 60.0);
  EXPECT_DOUBLE_EQ(second.deliver_ms, 11.0);
  EXPECT_LT(second.deliver_ms, first.deliver_ms);
  EXPECT_EQ(inj.stats().reordered, 1);
}

TEST(FaultScript, EmptyScriptNeverTouchesMessages) {
  FaultInjector inj;  // default: no script
  for (int i = 0; i < 100; ++i) {
    const auto d = inj.on_message(i * 5.0);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay_ms, 0.0);
  }
  EXPECT_EQ(inj.stats().messages, 100);
  EXPECT_EQ(inj.stats().total_lost(), 0);
}

// ---- Pipeline integration under faults. ------------------------------------

namespace {

scene::SceneConfig fault_scene(int frames) {
  return scene::make_davis_scene(42, frames);
}

/// Numeric value of a trace event's `key` argument; NaN when absent.
double arg_of(const rt::Tracer::Event& ev, const std::string& key) {
  for (const auto& a : ev.args) {
    if (a.key == key) return a.number;
  }
  return std::nan("");
}

core::PipelineConfig fast_failure_config() {
  core::PipelineConfig cfg;
  // Tight failure handling so a 2 s outage exercises the whole state
  // machine. The fast edge keeps clean-link round trips (~100-400 ms,
  // Mask R-CNN on Xavier) safely under the adaptive RTO; max_rto is
  // pulled down so backoff and probe deadlines stay short relative to
  // the 7 s scenarios.
  cfg.edge = sim::jetson_agx_xavier();
  cfg.rto.min_rto_ms = 150.0;
  cfg.rto.max_rto_ms = 1200.0;
  cfg.rto.initial_compute_guess_ms = 500.0;
  cfg.max_retries = 1;
  cfg.retry_backoff_base_ms = 30.0;
  cfg.degraded_entry_rto_inflation = 4.0;  // two unanswered deadlines
  cfg.probe_interval_frames = 8;
  return cfg;
}

}  // namespace

// The headline test: a 2-second total outage mid-run. The pipeline must
// keep its map (no re-initialization), keep emitting masks from MAMT on
// every degraded frame where ground truth has objects, and recover with a
// full-quality refresh request once the link returns.
TEST(FaultIntegration, SurvivesTwoSecondOutageViaMamt) {
  const auto scfg = fault_scene(210);  // 7 s @ 30 fps
  scene::SceneSimulator sim(scfg);
  auto cfg = fast_failure_config();
  const double outage_start = 2600.0, outage_end = 4600.0;
  cfg.faults = FaultScript::outage(outage_start, outage_end);
  core::EdgeISPipeline p(scfg, cfg);

  bool initialized_before_outage = false;
  int attempts_at_outage_start = 0;
  int degraded_frames = 0;
  int degraded_frames_missing_masks = 0;
  for (int i = 0; i < sim.total_frames(); ++i) {
    const auto frame = sim.render(i);
    const auto out = p.process(frame);
    const double t_ms = frame.timestamp * 1000.0;
    if (t_ms < outage_start) {
      initialized_before_outage = p.initialized();
      attempts_at_outage_start = p.bootstrap_attempts();
    }
    if (out.degraded) {
      ++degraded_frames;
      if (out.rendered_masks.empty() &&
          !sim.ground_truth_masks(frame).empty()) {
        ++degraded_frames_missing_masks;
      }
      EXPECT_FALSE(out.transmitted);  // degraded = no keyframe uploads
    }
  }

  ASSERT_TRUE(initialized_before_outage);
  EXPECT_TRUE(p.initialized());  // still on the original map
  EXPECT_EQ(p.bootstrap_attempts(), attempts_at_outage_start);
  EXPECT_GT(degraded_frames, 20);
  EXPECT_EQ(degraded_frames_missing_masks, 0);  // MAMT carried every frame

  const auto h = p.link_health();
  EXPECT_GE(h.degraded_entries, 1);
  EXPECT_GE(h.attempt_timeouts, 2);
  EXPECT_GE(h.probes_sent, 2);          // probed through the blackout
  EXPECT_GE(h.refresh_requests, 1);     // recovered with a refresh
  EXPECT_GT(h.time_in_degraded_ms, 500.0);
  EXPECT_GT(h.uplink_drops + h.downlink_drops, 0);
  // Staleness grew through the outage, then the refresh pulled it back.
  EXPECT_GT(h.mask_staleness_ms.max(), 1500.0);
  EXPECT_LT(h.mask_staleness_ms.percentile(50.0),
            h.mask_staleness_ms.max() / 2.0);
}

// Acceptance criterion: a seeded fault run is bit-for-bit reproducible —
// identical LinkHealthStats (and scores) across two runs.
TEST(FaultIntegration, SeededFaultRunIsReproducible) {
  const auto scfg = fault_scene(150);
  scene::SceneSimulator sim(scfg);
  auto cfg = fast_failure_config();
  cfg.faults = FaultScript::lossy(0.25);
  cfg.faults.add({2000.0, 3000.0, FaultMode::kDuplicate, 0.5, 0.0});
  cfg.faults.add({1000.0, 4000.0, FaultMode::kReorder, 0.3, 60.0});

  core::EdgeISPipeline a(scfg, cfg), b(scfg, cfg);
  const auto ra = core::run_pipeline(sim, a, 60);
  const auto rb = core::run_pipeline(sim, b, 60);

  const auto ha = a.link_health(), hb = b.link_health();
  EXPECT_EQ(ha.requests_sent, hb.requests_sent);
  EXPECT_EQ(ha.retransmissions, hb.retransmissions);
  EXPECT_EQ(ha.attempt_timeouts, hb.attempt_timeouts);
  EXPECT_EQ(ha.requests_failed, hb.requests_failed);
  EXPECT_EQ(ha.responses_received, hb.responses_received);
  EXPECT_EQ(ha.stale_responses, hb.stale_responses);
  EXPECT_EQ(ha.spurious_retransmissions, hb.spurious_retransmissions);
  EXPECT_EQ(ha.rtt_samples, hb.rtt_samples);
  EXPECT_EQ(ha.rto_backoffs, hb.rto_backoffs);
  EXPECT_DOUBLE_EQ(ha.srtt_ms, hb.srtt_ms);
  EXPECT_DOUBLE_EQ(ha.rttvar_ms, hb.rttvar_ms);
  EXPECT_DOUBLE_EQ(ha.rto_ms, hb.rto_ms);
  EXPECT_EQ(ha.probes_sent, hb.probes_sent);
  EXPECT_EQ(ha.degraded_entries, hb.degraded_entries);
  EXPECT_EQ(ha.degraded_frames, hb.degraded_frames);
  EXPECT_EQ(ha.refresh_requests, hb.refresh_requests);
  EXPECT_DOUBLE_EQ(ha.time_in_degraded_ms, hb.time_in_degraded_ms);
  EXPECT_EQ(ha.uplink_drops, hb.uplink_drops);
  EXPECT_EQ(ha.downlink_drops, hb.downlink_drops);
  EXPECT_EQ(ha.duplicates_injected, hb.duplicates_injected);
  EXPECT_EQ(ha.reorders_injected, hb.reorders_injected);
  EXPECT_EQ(ha.mask_staleness_ms.samples(), hb.mask_staleness_ms.samples());
  EXPECT_DOUBLE_EQ(ra.summary.mean_iou, rb.summary.mean_iou);
  EXPECT_EQ(ra.total_tx_bytes, rb.total_tx_bytes);
}

// Random loss triggers the retry path but the pipeline keeps making
// progress: retransmissions happen and responses still land.
TEST(FaultIntegration, LossyLinkRetransmitsAndRecovers) {
  const auto scfg = fault_scene(150);
  scene::SceneSimulator sim(scfg);
  auto cfg = fast_failure_config();
  cfg.faults = FaultScript::lossy(0.4);
  core::EdgeISPipeline p(scfg, cfg);
  core::run_pipeline(sim, p, 60);

  const auto h = p.link_health();
  EXPECT_GT(h.retransmissions, 0);
  EXPECT_GT(h.attempt_timeouts, 0);
  EXPECT_GT(h.responses_received, 0);
  EXPECT_GT(h.uplink_drops + h.downlink_drops, 0);
}

// With no fault script, the ledger is pure bookkeeping: no timeouts, no
// retries, no degraded mode — the idealized-link behaviour is preserved.
TEST(FaultIntegration, CleanLinkNeverDegrades) {
  const auto scfg = fault_scene(120);
  scene::SceneSimulator sim(scfg);
  core::PipelineConfig cfg;
  core::EdgeISPipeline p(scfg, cfg);
  core::run_pipeline(sim, p, 60);

  const auto h = p.link_health();
  EXPECT_GT(h.requests_sent, 0);
  EXPECT_EQ(h.retransmissions, 0);
  EXPECT_EQ(h.attempt_timeouts, 0);
  EXPECT_EQ(h.requests_failed, 0);
  EXPECT_EQ(h.degraded_entries, 0);
  EXPECT_EQ(h.refresh_requests, 0);
  EXPECT_EQ(h.uplink_drops, 0);
  EXPECT_EQ(h.downlink_drops, 0);
  EXPECT_FALSE(p.degraded());
}

// The full-duplex acceptance test: a downlink outage opens in the middle
// of a streamed response, swallowing the tail of the chunk stream. The
// pipeline must (a) render at least one streamed instance of the
// interrupted keyframe on the frame its chunk arrives — before the full
// set completes — and (b) recover the missing tail with a resend request
// that is strictly smaller than both the original keyframe upload and
// the full response, without re-running inference or re-initializing.
TEST(FaultIntegration, MidResponseOutageStreamsPartialThenResendsTail) {
  const auto scfg = fault_scene(210);
  scene::SceneSimulator sim(scfg);
  auto cfg = fast_failure_config();
  // Downlink-only: the keyframe upload goes through, its response is cut
  // mid-stream. Window tuned (deterministically, seed 42) to bisect a
  // running-phase chunk stream.
  cfg.faults = DuplexFaultScript::asymmetric(
      FaultScript::none(), FaultScript::outage(2200.0, 2700.0));
  core::EdgeISPipeline p(scfg, cfg);
  rt::Tracer tracer;
  p.set_tracer(&tracer);

  int partial_render_frames = 0;
  int prev_partials = 0;
  for (int i = 0; i < sim.total_frames(); ++i) {
    const auto frame = sim.render(i);
    const auto out = p.process(frame);
    const auto h = p.link_health();
    // A chunk of a still-incomplete response was applied this frame and
    // the frame still rendered masks: the streamed instance made the
    // frame deadline without waiting for its siblings.
    if (h.partial_applies > prev_partials && p.initialized() &&
        !out.rendered_masks.empty()) {
      ++partial_render_frames;
    }
    prev_partials = h.partial_applies;
  }

  EXPECT_TRUE(p.initialized());  // never re-bootstrapped
  const auto h = p.link_health();
  EXPECT_GT(partial_render_frames, 0);
  EXPECT_GT(h.partial_applies, 0);
  EXPECT_GT(h.chunks_received, h.responses_received);
  EXPECT_GE(h.resend_requests, 1);
  EXPECT_GT(h.downlink_drops, 0);
  EXPECT_EQ(h.uplink_drops, 0);

  // At least one interrupted response was completed by a missing-tail
  // resend that cost a fraction of re-sending anything in full. Audited
  // from the ledger instants: `send` carries the keyframe upload's bytes,
  // `resend_missing` the resend request's bytes and missing/of counts,
  // `response` the full response's bytes, and each `chunk` with
  // resend=true the bytes of one re-emitted chunk.
  struct Audit {
    double request_bytes = -1.0;
    double resent_bytes = 0.0;
    double full_response_bytes = -1.0;      // < 0 until the set completes
    std::vector<double> tail_resend_bytes;  // partial-set resends
  };
  std::map<int, Audit> audits;
  for (const auto& ev : tracer.events()) {
    const bool on_ledger = ev.pid == rt::track::kLedger.pid &&
                           ev.tid == rt::track::kLedger.tid;
    if (ev.ph != 'i' || !on_ledger || std::isnan(arg_of(ev, "request"))) {
      continue;
    }
    Audit& a = audits[static_cast<int>(arg_of(ev, "request"))];
    const double bytes = arg_of(ev, "bytes");
    if (ev.name == "send") {
      a.request_bytes = bytes;
    } else if (ev.name == "resend_missing") {
      const double missing = arg_of(ev, "missing");
      if (missing > 0.0 && missing < arg_of(ev, "of")) {
        a.tail_resend_bytes.push_back(bytes);
      }
    } else if (ev.name == "chunk" && arg_of(ev, "resend") != 0.0) {
      a.resent_bytes += bytes;
    } else if (ev.name == "response") {
      a.full_response_bytes = bytes;
    }
  }
  bool tail_recovered = false;
  for (const auto& [request, a] : audits) {
    if (a.full_response_bytes < 0.0 || a.tail_resend_bytes.empty()) continue;
    SCOPED_TRACE(request);
    ASSERT_GT(a.request_bytes, 0.0);
    for (const double resend_bytes : a.tail_resend_bytes) {
      EXPECT_LT(resend_bytes, a.request_bytes);
      EXPECT_LT(resend_bytes, a.full_response_bytes);
    }
    EXPECT_LT(a.resent_bytes, a.full_response_bytes);
    tail_recovered = true;
  }
  EXPECT_TRUE(tail_recovered);
}

// The canvas-delta uplink through the same total outage: the client's
// mirror advances optimistically at send time, so the epoch chain breaks
// the moment an upload dies on the dead link. On recovery the edge must
// refuse any stale delta (epoch mismatch -> resync) and the client must
// restart the chain with clean full keyframes -- masks may go stale
// through the blackout, but they must never come from a diverged canvas.
TEST(FaultIntegration, DeltaUplinkResyncsCleanlyAfterOutage) {
  const auto scfg = fault_scene(210);  // 7 s @ 30 fps
  scene::SceneSimulator sim(scfg);
  auto cfg = fast_failure_config();
  cfg.encoding.uplink = enc::UplinkMode::kDelta;
  cfg.faults = FaultScript::outage(2600.0, 4600.0);
  core::EdgeISPipeline p(scfg, cfg);
  const auto r = core::run_pipeline(sim, p, 60);

  const auto h = p.link_health();
  // The delta path actually engaged before and after the blackout.
  EXPECT_GT(h.canvas_deltas, 0);
  // The chain restarted at least once beyond the initial seed: either the
  // edge refused a stale delta or the client fell back to a full keyframe
  // after its attempts died.
  EXPECT_GE(h.canvas_resyncs + h.canvas_full_keyframes, 2);
  // Recovery is genuine -- the link came back, a refresh landed, and the
  // run's accuracy is not wrecked by the 2 s hole.
  EXPECT_GE(h.refresh_requests, 1);
  EXPECT_GT(r.summary.mean_iou, 0.4);
  // Every acknowledged resync is followed by a successful full keyframe,
  // so the run cannot end with the edge still refusing uploads.
  EXPECT_GE(h.canvas_full_keyframes, h.canvas_resyncs > 0 ? 2 : 1);
}

// Same scripted faults, delta uplink: the seeded run stays bit-for-bit
// reproducible including the canvas counters.
TEST(FaultIntegration, DeltaUplinkSeededRunIsReproducible) {
  const auto scfg = fault_scene(150);
  scene::SceneSimulator sim(scfg);
  auto cfg = fast_failure_config();
  cfg.encoding.uplink = enc::UplinkMode::kDelta;
  cfg.faults = FaultScript::lossy(0.25);

  core::EdgeISPipeline a(scfg, cfg), b(scfg, cfg);
  const auto ra = core::run_pipeline(sim, a, 60);
  const auto rb = core::run_pipeline(sim, b, 60);

  const auto ha = a.link_health(), hb = b.link_health();
  EXPECT_EQ(ha.canvas_deltas, hb.canvas_deltas);
  EXPECT_EQ(ha.canvas_full_keyframes, hb.canvas_full_keyframes);
  EXPECT_EQ(ha.canvas_resyncs, hb.canvas_resyncs);
  EXPECT_EQ(ha.canvas_tiles_sent, hb.canvas_tiles_sent);
  EXPECT_EQ(ha.canvas_tiles_reused, hb.canvas_tiles_reused);
  EXPECT_DOUBLE_EQ(ra.summary.mean_iou, rb.summary.mean_iou);
  EXPECT_EQ(ra.total_tx_bytes, rb.total_tx_bytes);
}

// The metrics registry is derived from LinkHealthStats after the run, so
// attaching a tracer cannot change it. Crowd-outage config (stress-crowd,
// LTE, Xavier, canvas-delta uplink, blackout 3.0-5.5 s): timeouts, probes
// and an RTO inflated by backoff all land in the exported numbers.
TEST(FaultIntegration, PublishedMetricsIgnoreTracerAndMatchLinkHealth) {
  const auto scfg =
      scene::make_stress_scene(scene::StressRegime::kCrowd, 42, 180);
  scene::SceneSimulator sim(scfg);
  core::PipelineConfig cfg;
  cfg.link = lte();
  cfg.edge = sim::jetson_agx_xavier();
  cfg.faults = FaultScript::outage(3000.0, 5500.0);
  cfg.probe_interval_frames = 10;
  cfg.encoding.uplink = enc::UplinkMode::kDelta;

  core::EdgeISPipeline plain(scfg, cfg), traced(scfg, cfg);
  core::run_pipeline(sim, plain, 75);
  rt::Tracer tracer;
  core::run_pipeline(sim, traced, 75, 10, &tracer);
  ASSERT_GT(tracer.event_count(), 0u);

  const auto h = plain.link_health();
  ASSERT_GE(h.attempt_timeouts, 1);
  ASSERT_GE(h.probes_sent, 1);
  rt::MetricsRegistry reg_plain, reg_traced;
  rt::publish(h, reg_plain);
  rt::publish(traced.link_health(), reg_traced);
  EXPECT_EQ(reg_plain.to_json(), reg_traced.to_json());

  EXPECT_EQ(reg_plain.gauge("rto_ms"), h.rto_ms);
  EXPECT_EQ(reg_plain.gauge("srtt_ms"), h.srtt_ms);
  EXPECT_EQ(reg_plain.counter("requests_sent"), h.requests_sent);
  EXPECT_EQ(reg_plain.counter("attempt_timeouts"), h.attempt_timeouts);
  EXPECT_EQ(reg_plain.counter("requests_failed"), h.requests_failed);
  EXPECT_EQ(reg_plain.counter("responses_received"), h.responses_received);
  EXPECT_EQ(reg_plain.counter("chunks_received"), h.chunks_received);
  EXPECT_EQ(reg_plain.counter("probes_sent"), h.probes_sent);
  EXPECT_EQ(reg_plain.counter("degraded_entries"), h.degraded_entries);
  EXPECT_EQ(reg_plain.counter("degraded_frames"), h.degraded_frames);
  EXPECT_EQ(reg_plain.counter("refresh_requests"), h.refresh_requests);
  EXPECT_EQ(reg_plain.counter("canvas_deltas"), h.canvas_deltas);
  EXPECT_EQ(reg_plain.counter("canvas_resyncs"), h.canvas_resyncs);
  const auto* staleness = reg_plain.histogram("mask_staleness_ms");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->count(), h.mask_staleness_ms.count());
  EXPECT_EQ(staleness->max(), h.mask_staleness_ms.max());
  // 19 counters, 2 gauges, 1 sketch: the names the registry always had.
  const auto snap = reg_plain.snapshot();
  EXPECT_EQ(snap.counters.size(), 19u);
  EXPECT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}
