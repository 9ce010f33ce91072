// Fleet-scale serving tests: equivalence (a fleet of one reproduces the
// solo run_pipeline() exactly; a batch of one on a shared GPU is
// bitwise-identical to a server's own GPU), determinism (same config ->
// byte-identical trace JSON for an N-client run), isolation (faults
// scripted for one client never touch another's counters), and admission
// control (saturation pushes clients into MAMT degraded mode and lets
// them back out once the gate opens).
#include <gtest/gtest.h>

#include <cstring>

#include "core/edge_server.hpp"
#include "core/fleet.hpp"
#include "net/faults.hpp"
#include "scene/presets.hpp"

using namespace edgeis;
using namespace edgeis::core;

namespace {

mask::InstanceMask disk_mask(int w, int h, int cx, int cy, int r) {
  mask::InstanceMask m(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if ((x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r) m.set(x, y);
    }
  }
  return m;
}

segnet::InferenceRequest two_object_request() {
  segnet::InferenceRequest req;
  req.width = 320;
  req.height = 240;
  segnet::OracleInstance a;
  a.mask = disk_mask(320, 240, 100, 120, 40);
  a.box = *a.mask.bounding_box();
  a.class_id = 1;
  a.instance_id = 1;
  segnet::OracleInstance b;
  b.mask = disk_mask(320, 240, 240, 100, 30);
  b.box = *b.mask.bounding_box();
  b.class_id = 3;
  b.instance_id = 2;
  req.oracle.push_back(std::move(a));
  req.oracle.push_back(std::move(b));
  return req;
}

// Tight failure handling, mirroring test_faults: a fast edge keeps clean
// round trips under the adaptive RTO while backoff and probe deadlines
// stay short relative to few-second scenarios, so outages and admission
// rejects drive the degraded-mode state machine within a short run.
PipelineConfig fast_failure_config() {
  PipelineConfig cfg;
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

bool masks_equal(const mask::InstanceMask& a, const mask::InstanceMask& b) {
  if (a.instance_id != b.instance_id || a.width() != b.width() ||
      a.height() != b.height()) {
    return false;
  }
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      if (a.get(x, y) != b.get(x, y)) return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Equivalence: fleet of one == solo run_pipeline, to the last counter.

TEST(FleetEquivalence, SingleClientMatchesRunPipeline) {
  const auto scene_cfg = scene::make_davis_scene(42, 120);
  PipelineConfig cfg;

  scene::SceneSimulator sim(scene_cfg);
  EdgeISPipeline solo(scene_cfg, cfg);
  const auto ref = run_pipeline(sim, solo);
  const auto ref_health = solo.link_health();

  const auto fleet = run_fleet(uniform_fleet(1, scene_cfg, cfg));
  ASSERT_EQ(fleet.clients.size(), 1u);
  const auto& c = fleet.clients[0];

  // Accuracy and latency summaries are bit-identical, not merely close:
  // the shared-GPU path defers only timing, and its single-request
  // dispatch formula is the single-server formula.
  EXPECT_DOUBLE_EQ(c.run.summary.mean_iou, ref.summary.mean_iou);
  EXPECT_DOUBLE_EQ(c.run.summary.false_rate_loose,
                   ref.summary.false_rate_loose);
  EXPECT_DOUBLE_EQ(c.run.summary.mean_latency_ms,
                   ref.summary.mean_latency_ms);
  EXPECT_DOUBLE_EQ(c.run.summary.p95_latency_ms, ref.summary.p95_latency_ms);
  EXPECT_EQ(c.run.summary.frames, ref.summary.frames);
  EXPECT_EQ(c.run.summary.object_frames, ref.summary.object_frames);
  EXPECT_EQ(c.run.transmissions, ref.transmissions);
  EXPECT_EQ(c.run.total_tx_bytes, ref.total_tx_bytes);
  EXPECT_EQ(c.run.peak_memory_bytes, ref.peak_memory_bytes);
  EXPECT_DOUBLE_EQ(c.run.battery_percent, ref.battery_percent);

  // Ledger and chunk accounting byte-for-byte.
  EXPECT_EQ(c.health.requests_sent, ref_health.requests_sent);
  EXPECT_EQ(c.health.responses_received, ref_health.responses_received);
  EXPECT_EQ(c.health.chunks_received, ref_health.chunks_received);
  EXPECT_EQ(c.health.duplicate_chunks, ref_health.duplicate_chunks);
  EXPECT_EQ(c.health.partial_applies, ref_health.partial_applies);
  EXPECT_EQ(c.health.retransmissions, ref_health.retransmissions);
  EXPECT_EQ(c.health.attempt_timeouts, ref_health.attempt_timeouts);
  EXPECT_EQ(c.health.requests_failed, ref_health.requests_failed);
  EXPECT_EQ(c.health.resend_requests, ref_health.resend_requests);
  EXPECT_DOUBLE_EQ(c.health.srtt_ms, ref_health.srtt_ms);
  EXPECT_EQ(c.health.rtt_samples, ref_health.rtt_samples);

  // The fleet layer saw no multi-client effects.
  EXPECT_EQ(c.health.admission_rejects, 0);
  EXPECT_EQ(c.health.busy_pings, 0);
  EXPECT_EQ(fleet.gpu.admission_rejects, 0);
  EXPECT_LE(fleet.gpu.max_batch, 1);  // one session never batches
  EXPECT_EQ(fleet.gpu.batched_requests, fleet.gpu.batches);
  EXPECT_DOUBLE_EQ(fleet.mean_iou, ref.summary.mean_iou);
}

// A batch of one through an attached shared GPU emits the exact chunk
// stream the server's own one-session GPU emits: same ready times (bitwise
// doubles), same framing, same payload bytes, same masks.
TEST(FleetEquivalence, BatchOfOneBitwiseIdenticalToUnbatched) {
  const auto model = segnet::mask_rcnn_profile();
  const auto device = sim::jetson_tx2();
  EdgeServer plain(model, device, rt::Rng(7));
  EdgeServer gpu_backed(model, device, rt::Rng(7));
  EdgeGpu gpu;  // defaults: unbounded gate
  gpu_backed.attach_gpu(gpu);

  const auto req = two_object_request();
  const double times[] = {0.0, 40.0, 41.0, 500.0};
  for (int i = 0; i < 4; ++i) {
    plain.submit(i, times[i], 20000, req, /*attempt=*/0);
    gpu_backed.submit(i, times[i], 20000, req, /*attempt=*/0);
  }
  auto a = plain.poll(1e18);
  auto b = gpu_backed.poll(1e18);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 4u);  // chunked: more responses than requests
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].frame_index, b[i].frame_index);
    EXPECT_EQ(a[i].ready_ms, b[i].ready_ms);  // exact, not NEAR
    EXPECT_EQ(a[i].chunk_index, b[i].chunk_index);
    EXPECT_EQ(a[i].chunk_count, b[i].chunk_count);
    EXPECT_EQ(a[i].payload_bytes, b[i].payload_bytes);
    ASSERT_EQ(a[i].masks.size(), b[i].masks.size());
    for (std::size_t m = 0; m < a[i].masks.size(); ++m) {
      EXPECT_TRUE(masks_equal(a[i].masks[m], b[i].masks[m]));
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: an N-client fleet is reproducible to the trace byte.

TEST(FleetDeterminism, TraceBytesIdenticalAcrossRuns) {
  const auto scene_cfg = scene::make_davis_scene(11, 60);
  PipelineConfig cfg;
  GpuConfig gpu;
  gpu.admission_queue_limit = 4;

  rt::Tracer first;
  rt::Tracer second;
  const auto r1 = run_fleet(uniform_fleet(3, scene_cfg, cfg, gpu), &first);
  const auto r2 = run_fleet(uniform_fleet(3, scene_cfg, cfg, gpu), &second);
  ASSERT_GT(first.event_count(), 0u);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_DOUBLE_EQ(r1.mean_iou, r2.mean_iou);
  EXPECT_DOUBLE_EQ(r1.p99_latency_ms, r2.p99_latency_ms);
  EXPECT_EQ(r1.gpu.batches, r2.gpu.batches);
  EXPECT_EQ(r1.gpu.admission_rejects, r2.gpu.admission_rejects);

  // Clients tick against one clock but are seeded apart: their link rngs
  // draw independent streams, so the smoothed RTT estimates must differ
  // (decorrelation worked).
  ASSERT_EQ(r1.clients.size(), 3u);
  EXPECT_NE(r1.clients[0].health.srtt_ms, r1.clients[1].health.srtt_ms);
}

// ---------------------------------------------------------------------------
// Isolation: a fault script scoped to client A never perturbs client B's
// fault and failure-handling counters.

TEST(FleetIsolation, FaultsScopedToOneClient) {
  const auto scene_cfg = scene::make_davis_scene(42, 210);  // 7 s @ 30 fps
  const auto cfg = fast_failure_config();

  auto faulted = uniform_fleet(2, scene_cfg, cfg);
  faulted.clients[0].pipeline.faults =
      net::FaultScript::outage(2600.0, 4600.0);
  const auto r = run_fleet(faulted);
  ASSERT_EQ(r.clients.size(), 2u);
  const auto& a = r.clients[0];
  const auto& b = r.clients[1];

  // A felt the blackout.
  EXPECT_GT(a.health.uplink_drops + a.health.downlink_drops, 0);
  EXPECT_GT(a.health.attempt_timeouts, 0);
  EXPECT_GT(a.health.degraded_entries, 0);

  // B's link and ledger never saw a fault.
  EXPECT_EQ(b.health.uplink_drops, 0);
  EXPECT_EQ(b.health.downlink_drops, 0);
  EXPECT_EQ(b.health.duplicates_injected, 0);
  EXPECT_EQ(b.health.reorders_injected, 0);
  EXPECT_EQ(b.health.requests_failed, 0);
  EXPECT_EQ(b.health.degraded_entries, 0);

  // B's accuracy stands regardless of its neighbour's outage: within a
  // hair of the same client's accuracy in an all-clean fleet (shared-GPU
  // timing coupling is the only difference — A pauses its uploads during
  // the blackout, so B may even queue less and score slightly better).
  const auto clean = run_fleet(uniform_fleet(2, scene_cfg, cfg));
  EXPECT_NEAR(b.run.summary.mean_iou,
              clean.clients[1].run.summary.mean_iou, 0.10);
}

// ---------------------------------------------------------------------------
// Admission control: a saturated gate rejects, rejected clients back off
// into degraded mode, and the fleet recovers once the queue drains.

TEST(FleetAdmission, SaturationDrivesDegradedModeAndRecovery) {
  const auto scene_cfg = scene::make_davis_scene(42, 240);  // 8 s @ 30 fps
  const auto cfg = fast_failure_config();
  GpuConfig gpu;
  gpu.admission_queue_limit = 1;  // a second queued request is refused
  gpu.max_batch = 1;              // no batching relief

  const auto r = run_fleet(uniform_fleet(6, scene_cfg, cfg, gpu));

  EXPECT_GT(r.gpu.admission_rejects, 0);
  int client_rejects = 0;
  int degraded_entries = 0;
  int refreshes = 0;
  int recovered = 0;
  for (const auto& c : r.clients) {
    client_rejects += c.health.admission_rejects;
    degraded_entries += c.health.degraded_entries;
    refreshes += c.health.refresh_requests;
    if (c.health.degraded_entries > 0 && !c.ended_degraded) ++recovered;
  }
  // Every reject the GPU issued was delivered to (and counted by) the
  // client that sent it — minus any whose ledger entry had already been
  // abandoned by the time the reject arrived.
  EXPECT_GT(client_rejects, 0);
  EXPECT_LE(client_rejects, r.gpu.admission_rejects);
  // Saturation pushed clients into degraded mode...
  EXPECT_GT(degraded_entries, 0);
  EXPECT_GT(r.degraded_clients, 0);
  // ...and the backoff worked: clients came back (clean probe -> refresh)
  // rather than staying parked forever.
  EXPECT_GT(recovered + refreshes, 0);
}
