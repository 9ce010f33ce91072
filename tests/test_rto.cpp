// Adaptive RTT-EWMA timeout (net/rto.hpp) and the new fault modes it
// must survive. Unit tests pin the Jacobson/Karels update rules, the
// Karn backoff and the throttle / per-direction fault plumbing; the
// integration tests drive EdgeISPipeline and assert the estimator (a)
// leaves fault-free runs byte-identical to a fixed-timeout run, (b)
// rides out a bandwidth collapse without spurious retransmissions, and
// (c) follows Karn's rule after a retry.
#include <gtest/gtest.h>

#include "core/edgeis_pipeline.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "net/rto.hpp"
#include "net/send_queue.hpp"
#include "runtime/rng.hpp"
#include "scene/presets.hpp"

using namespace edgeis;
using namespace edgeis::net;

// ---- RttEstimator unit tests. ----------------------------------------------

TEST(RttEstimator, SeededFromLinkBeforeFirstSample) {
  RtoConfig cfg;
  const auto link = lte();
  const double seed = 2.0 * link.base_latency_ms +
                      cfg.initial_compute_guess_ms;
  RttEstimator est(cfg, seed);
  EXPECT_EQ(est.samples(), 0);
  EXPECT_DOUBLE_EQ(est.srtt_ms(), seed);
  EXPECT_DOUBLE_EQ(est.rttvar_ms(), seed / 2.0);
  // First-sample rule on the seed: rto = srtt + 4 * rttvar = 3x guess.
  EXPECT_DOUBLE_EQ(est.rto_ms(), 3.0 * seed);
}

TEST(RttEstimator, FirstSampleOverridesSeed) {
  RttEstimator est(RtoConfig{}, 900.0);
  est.sample(200.0);
  EXPECT_DOUBLE_EQ(est.srtt_ms(), 200.0);
  EXPECT_DOUBLE_EQ(est.rttvar_ms(), 100.0);
  EXPECT_DOUBLE_EQ(est.rto_ms(), 600.0);
}

TEST(RttEstimator, ConvergesToSrttPlusFourRttvarUnderJitter) {
  RtoConfig cfg;
  cfg.rttvar_floor_ms = 0.0;  // observe the raw formula
  cfg.min_rto_ms = 1.0;       // no clamp in the way either
  RttEstimator est(cfg, 500.0);
  rt::Rng rng(11);
  for (int i = 0; i < 400; ++i) est.sample(rng.uniform(80.0, 120.0));
  // SRTT hugs the mean, RTTVAR the mean absolute deviation (~10 for
  // U(80,120)), and the published RTO is exactly SRTT + 4 * RTTVAR.
  EXPECT_NEAR(est.srtt_ms(), 100.0, 5.0);
  EXPECT_GT(est.rttvar_ms(), 4.0);
  EXPECT_LT(est.rttvar_ms(), 20.0);
  EXPECT_DOUBLE_EQ(est.rto_ms(),
                   est.srtt_ms() + 4.0 * est.rttvar_ms());
  // The converged RTO comfortably covers the sample range.
  EXPECT_GT(est.rto_ms(), 120.0);
}

TEST(RttEstimator, ConstantRttCollapsesVarianceToFloor) {
  RtoConfig cfg;
  cfg.rttvar_floor_ms = 40.0;
  RttEstimator est(cfg, 500.0);
  for (int i = 0; i < 300; ++i) est.sample(250.0);
  EXPECT_NEAR(est.srtt_ms(), 250.0, 1e-6);
  // rttvar decays toward 0, but the published RTO keeps the floor
  // margin: a perfectly calm estimator must still absorb one burst.
  EXPECT_LT(est.rttvar_ms(), 1.0);
  EXPECT_NEAR(est.rto_ms(), 250.0 + 4.0 * 40.0, 1e-6);
}

TEST(RttEstimator, TimeoutBackoffDoublesAndSampleResets) {
  RtoConfig cfg;
  cfg.max_rto_ms = 100000.0;
  RttEstimator est(cfg, 500.0);
  est.sample(200.0);  // rto = 600
  const double base = est.rto_ms();
  est.on_timeout();
  EXPECT_DOUBLE_EQ(est.rto_ms(), 2.0 * base);
  est.on_timeout();
  EXPECT_DOUBLE_EQ(est.rto_ms(), 4.0 * base);
  EXPECT_DOUBLE_EQ(est.backoff(), 4.0);
  EXPECT_EQ(est.timeouts(), 2);
  // A clean sample deflates the backoff entirely (the RTO lands at or
  // below the pre-backoff value — the repeat sample also decays rttvar).
  est.sample(200.0);
  EXPECT_DOUBLE_EQ(est.backoff(), 1.0);
  EXPECT_LE(est.rto_ms(), base);
}

TEST(RttEstimator, RtoClampedToConfiguredBounds) {
  RtoConfig cfg;
  cfg.min_rto_ms = 300.0;
  cfg.max_rto_ms = 2000.0;
  RttEstimator est(cfg, 500.0);
  est.sample(10.0);  // srtt 10, rttvar 5 -> raw rto far below min
  EXPECT_DOUBLE_EQ(est.rto_ms(), 300.0);
  for (int i = 0; i < 10; ++i) est.on_timeout();
  EXPECT_DOUBLE_EQ(est.rto_ms(), 2000.0);  // backoff capped by max
  EXPECT_GT(est.backoff(), 100.0);         // but the multiplier survives
}

// ---- Throttle and per-direction fault plumbing. ----------------------------

TEST(FaultThrottle, ScalesTransmitTimeInsideWindow) {
  FaultInjector inj(FaultScript::throttle(100.0, 200.0, 5.0), rt::Rng(3));
  EXPECT_DOUBLE_EQ(inj.on_message(50.0).latency_scale, 1.0);
  EXPECT_DOUBLE_EQ(inj.on_message(150.0).latency_scale, 5.0);
  EXPECT_FALSE(inj.on_message(150.0).drop);  // late, not lost
  EXPECT_DOUBLE_EQ(inj.on_message(200.0).latency_scale, 1.0);
  EXPECT_EQ(inj.stats().throttled, 2);
  EXPECT_EQ(inj.stats().total_lost(), 0);
}

TEST(FaultThrottle, OverlappingWindowsCompound) {
  FaultScript s;
  s.add({0.0, 100.0, FaultMode::kThrottle, 1.0, 0.0, 2.0});
  s.add({0.0, 100.0, FaultMode::kThrottle, 1.0, 0.0, 3.0});
  FaultInjector inj(s, rt::Rng(4));
  EXPECT_DOUBLE_EQ(inj.on_message(50.0).latency_scale, 6.0);
}

TEST(FaultThrottle, FullProbabilityConsumesNoRandomness) {
  // A deterministic (probability 1.0) throttle must leave the Rng stream
  // untouched, so downstream fault decisions in a seeded run are
  // identical with or without the collapse window in front of them.
  auto with_throttle = FaultScript::throttle(0.0, 100.0, 3.0);
  with_throttle.add({100.0, 1e9, FaultMode::kDrop, 0.5, 0.0});
  FaultScript drop_only;
  drop_only.add({100.0, 1e9, FaultMode::kDrop, 0.5, 0.0});

  FaultInjector a(with_throttle, rt::Rng(9));
  FaultInjector b(drop_only, rt::Rng(9));
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.on_message(i * 10.0).latency_scale, 3.0);
    (void)b.on_message(i * 10.0);  // outside its only window: no draw
  }
  for (int i = 0; i < 200; ++i) {
    const double t = 100.0 + i * 4.0;
    EXPECT_EQ(a.on_message(t).drop, b.on_message(t).drop);
  }
}

TEST(FaultThrottle, ChannelStretchesDeliveryNotDrops) {
  FaultInjector inj(FaultScript::throttle(0.0, 1e9, 10.0), rt::Rng(6));
  LinkProfile link;  // jitter- and congestion-free: transit is 10 ms
  link.base_latency_ms = 10.0;
  link.jitter_ms = 0.0;
  link.congestion_probability = 0.0;
  SendQueue q(link, rt::Rng(6));
  const auto out = q.enqueue(0.0, 0, inj);  // nominal 10 ms -> 100 ms
  EXPECT_FALSE(out.fate.drop);
  EXPECT_DOUBLE_EQ(out.deliver_ms, 100.0);
  EXPECT_EQ(q.in_flight(50.0), 1);  // still in flight
  EXPECT_EQ(q.in_flight(100.0), 0);
  EXPECT_EQ(inj.stats().throttled, 1);
  EXPECT_EQ(inj.stats().total_lost(), 0);
}

TEST(DuplexFaults, SymmetricConversionMirrorsWindows) {
  core::PipelineConfig cfg;
  cfg.faults = FaultScript::lossy(0.3);          // implicit conversion
  cfg.faults.add({0.0, 1.0, FaultMode::kOutage});  // symmetric add
  EXPECT_EQ(cfg.faults.uplink.windows.size(), 2u);
  EXPECT_EQ(cfg.faults.downlink.windows.size(), 2u);
  EXPECT_EQ(cfg.faults.uplink.windows[1].mode, FaultMode::kOutage);
}

TEST(DuplexFaults, AsymmetricScriptsStayIndependent) {
  const auto duplex = DuplexFaultScript::asymmetric(
      FaultScript::lossy(1.0), FaultScript::none());
  EXPECT_EQ(duplex.uplink.windows.size(), 1u);
  EXPECT_TRUE(duplex.downlink.empty());
}

// ---- Pipeline integration. -------------------------------------------------

namespace {

scene::SceneConfig rto_scene(int frames) {
  return scene::make_davis_scene(42, frames);
}

core::PipelineConfig adaptive_config() {
  core::PipelineConfig cfg;
  cfg.edge = sim::jetson_agx_xavier();
  cfg.probe_interval_frames = 8;
  return cfg;
}

/// The pre-RTO behaviour: a constant per-attempt deadline, emulated by
/// clamping the estimator to a single value.
core::PipelineConfig fixed_timeout_config(double timeout_ms) {
  auto cfg = adaptive_config();
  cfg.rto.min_rto_ms = timeout_ms;
  cfg.rto.max_rto_ms = timeout_ms;
  return cfg;
}

}  // namespace

// Acceptance criterion: with no faults, the adaptive estimator is pure
// bookkeeping — the run is byte-identical to the fixed-timeout baseline
// (same masks, same staleness samples, same bytes on the wire), because
// RTT sampling consumes no randomness and no deadline ever fires.
TEST(RtoIntegration, FaultFreeRunByteIdenticalToFixedTimeout) {
  const auto scfg = rto_scene(150);
  scene::SceneSimulator sim(scfg);

  core::EdgeISPipeline adaptive(scfg, adaptive_config());
  core::EdgeISPipeline fixed(scfg, fixed_timeout_config(1500.0));
  const auto ra = core::run_pipeline(sim, adaptive, 60);
  const auto rf = core::run_pipeline(sim, fixed, 60);

  const auto ha = adaptive.link_health(), hf = fixed.link_health();
  EXPECT_EQ(ha.attempt_timeouts, 0);
  EXPECT_EQ(ha.retransmissions, 0);
  EXPECT_EQ(ha.spurious_retransmissions, 0);
  EXPECT_EQ(ha.requests_sent, hf.requests_sent);
  EXPECT_EQ(ha.responses_received, hf.responses_received);
  EXPECT_EQ(ha.mask_staleness_ms.samples(), hf.mask_staleness_ms.samples());
  EXPECT_DOUBLE_EQ(ra.summary.mean_iou, rf.summary.mean_iou);
  EXPECT_EQ(ra.total_tx_bytes, rf.total_tx_bytes);
  // The estimator did its job silently: every streamed chunk of every
  // clean first attempt is an independent RTT observation, so the
  // sample count tracks chunks (several per response), not responses.
  EXPECT_EQ(ha.chunks_received, hf.chunks_received);
  EXPECT_EQ(ha.rtt_samples, ha.chunks_received);
  EXPECT_GT(ha.chunks_received, ha.responses_received);
  EXPECT_GT(ha.rtt_samples, 0);
  EXPECT_EQ(ha.rto_backoffs, 0);
}

// A bandwidth-collapse window stretches round trips; the estimator must
// inflate through it without manufacturing spurious retransmissions.
TEST(RtoIntegration, InflatesThroughThrottleWithoutSpuriousRetransmits) {
  const auto scfg = rto_scene(210);
  scene::SceneSimulator sim(scfg);

  // LTE: transmit time is a large share of the round trip, so a
  // bandwidth collapse moves the RTT by much more than per-frame
  // compute noise.
  auto clean_cfg = adaptive_config();
  clean_cfg.link = net::lte();
  core::EdgeISPipeline clean(scfg, clean_cfg);
  core::run_pipeline(sim, clean, 60);

  auto cfg = clean_cfg;
  // Collapse both directions for the back half of the run so the final
  // RTO gauge reflects the inflated estimate.
  cfg.faults = FaultScript::throttle(3500.0, 1e18, 6.0);
  core::EdgeISPipeline p(scfg, cfg);
  core::run_pipeline(sim, p, 60);

  const auto hc = clean.link_health(), ht = p.link_health();
  EXPECT_EQ(ht.spurious_retransmissions, 0);
  EXPECT_GT(ht.responses_received, 0);
  EXPECT_EQ(ht.requests_failed, 0);     // late, never lost
  EXPECT_EQ(ht.degraded_entries, 0);    // throttle is not an outage
  // The estimator tracked the collapse: its converged view of the link
  // (srtt + 4*rttvar, the deadline before any backoff) sits above the
  // clean run's, scaled by the stretched round trips. We compare the
  // backoff-free estimate rather than the rto_ms gauge because either
  // run may end with a transient backoff from a heavy-tail round trip.
  EXPECT_GT(ht.srtt_ms, hc.srtt_ms);
  EXPECT_GT(ht.srtt_ms + 4.0 * ht.rttvar_ms, hc.srtt_ms + 4.0 * hc.rttvar_ms);
}

// Karn's rule: deliveries matched to a retransmitted request are never
// sampled — under heavy loss the sample count falls strictly behind the
// matched-delivery count while retransmissions are happening.
TEST(RtoIntegration, KarnRuleSkipsRetransmittedSamples) {
  const auto scfg = rto_scene(150);
  scene::SceneSimulator sim(scfg);
  auto cfg = adaptive_config();
  cfg.rto.max_rto_ms = 1200.0;  // keep retries coming at 40% loss
  cfg.faults = FaultScript::lossy(0.4);
  core::EdgeISPipeline p(scfg, cfg);
  core::run_pipeline(sim, p, 60);

  const auto h = p.link_health();
  EXPECT_GT(h.retransmissions, 0);
  EXPECT_GT(h.responses_received, 0);
  EXPECT_GT(h.rtt_samples, 0);
  // Only attempt-0, non-resent deliveries (chunks or ping echoes) are
  // sampled; everything arriving on a retried request is Karn-filtered.
  EXPECT_LT(h.rtt_samples, h.chunks_received + h.responses_received);
  EXPECT_GT(h.resend_requests, 0);
  EXPECT_GT(h.rto_backoffs, 0);
}

// Asymmetric scripts: an uplink-only blackout must never charge the
// downlink counters, and vice versa.
TEST(RtoIntegration, PerDirectionScriptsChargeTheRightCounters) {
  const auto scfg = rto_scene(150);
  scene::SceneSimulator sim(scfg);

  auto up_cfg = adaptive_config();
  up_cfg.faults = DuplexFaultScript::asymmetric(
      FaultScript::lossy(0.5), FaultScript::none());
  core::EdgeISPipeline up(scfg, up_cfg);
  core::run_pipeline(sim, up, 60);
  const auto hu = up.link_health();
  EXPECT_GT(hu.uplink_drops, 0);
  EXPECT_EQ(hu.downlink_drops, 0);

  auto down_cfg = adaptive_config();
  down_cfg.faults = DuplexFaultScript::asymmetric(
      FaultScript::none(), FaultScript::lossy(0.5));
  core::EdgeISPipeline down(scfg, down_cfg);
  core::run_pipeline(sim, down, 60);
  const auto hd = down.link_health();
  EXPECT_EQ(hd.uplink_drops, 0);
  EXPECT_GT(hd.downlink_drops, 0);
}

// The duplicate-copy bugfix: a duplicated response samples its own
// transmit time instead of replaying the primary's, so the two copies
// arrive apart and exactly one is counted stale.
TEST(RtoIntegration, DuplicatedResponsesArriveIndependently) {
  const auto scfg = rto_scene(150);
  scene::SceneSimulator sim(scfg);
  auto cfg = adaptive_config();
  cfg.faults = DuplexFaultScript::asymmetric(
      FaultScript::none(),
      FaultScript().add({0.0, 1e18, FaultMode::kDuplicate, 1.0, 0.0}));
  core::EdgeISPipeline p(scfg, cfg);
  core::run_pipeline(sim, p, 60);

  const auto h = p.link_health();
  EXPECT_GT(h.duplicates_injected, 0);
  EXPECT_GT(h.responses_received, 0);
  // Every duplicated delivery beyond the first is stale by definition.
  EXPECT_GE(h.stale_responses, h.duplicates_injected / 2);
}
