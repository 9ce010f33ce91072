// The request ledger on its own: a RequestLedger talking to a real
// EdgeServer, driven by hand-built inference requests (rectangle oracle
// masks) and scripted link faults, with a fake listener in place of the
// pipeline. No scene is rendered. One tick is one millisecond and one
// "frame" (the probe cadence counts ticks).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/edge_server.hpp"
#include "core/request_ledger.hpp"
#include "encoding/tiles.hpp"
#include "net/faults.hpp"

using namespace edgeis;
using namespace edgeis::core;

namespace {

constexpr int kWidth = 320;
constexpr int kHeight = 240;
constexpr std::size_t kBytes = 20000;
// A probe cadence no test reaches: probes stay off unless a test asks.
constexpr int kNoProbes = 1 << 30;

segnet::OracleInstance rect(int id, int x0, int y0, int x1, int y1) {
  segnet::OracleInstance o;
  o.mask = mask::InstanceMask(kWidth, kHeight);
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) o.mask.set(x, y);
  }
  o.mask.instance_id = id;
  o.box = *o.mask.bounding_box();
  o.class_id = 1 + id % 3;
  o.instance_id = id;
  return o;
}

/// Four well-separated rectangles: a response streams as several chunks.
segnet::InferenceRequest four_object_request() {
  segnet::InferenceRequest req;
  req.width = kWidth;
  req.height = kHeight;
  req.oracle.push_back(rect(1, 10, 10, 90, 90));
  req.oracle.push_back(rect(2, 120, 20, 200, 110));
  req.oracle.push_back(rect(3, 220, 120, 300, 220));
  req.oracle.push_back(rect(4, 30, 140, 110, 230));
  return req;
}

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.probe_interval_frames = kNoProbes;
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

class FakeListener final : public LedgerListener {
 public:
  struct ChunkCall {
    int frame_index = 0;
    bool complete = false;
    int received = 0;
    int expected = 0;
    double now_ms = 0.0;
    std::vector<mask::InstanceMask> masks;  // the set, when complete
  };

  bool on_chunks(LedgerEntry& e, bool complete, double now_ms) override {
    ChunkCall c;
    c.frame_index = e.frame_index;
    c.complete = complete;
    c.received = e.chunks.received();
    c.expected = e.chunks.expected();
    c.now_ms = now_ms;
    if (complete) c.masks = std::move(e.arrived_masks);
    chunks.push_back(std::move(c));
    return !e.is_init;
  }
  void on_canvas_resync() override { ++resyncs; }
  void on_canvas_upload_lost() override { ++uploads_lost; }
  void on_init_failed() override { ++init_failures; }
  void on_ping_recovery() override { ++ping_recoveries; }

  [[nodiscard]] int completed() const {
    int n = 0;
    for (const auto& c : chunks) n += c.complete ? 1 : 0;
    return n;
  }

  std::vector<ChunkCall> chunks;
  int resyncs = 0;
  int uploads_lost = 0;
  int init_failures = 0;
  int ping_recoveries = 0;
};

/// Seeded like EdgeISPipeline's edge server: two servers built from the
/// same config answer the same submissions identically.
EdgeServer make_edge(const PipelineConfig& cfg) {
  return EdgeServer(cfg.model, cfg.edge, rt::Rng(cfg.seed ^ 0x5e7fULL),
                    net::FaultInjector(cfg.faults.uplink,
                                       rt::Rng(cfg.seed ^ 0xfa017ULL)),
                    net::SendQueue(cfg.link, rt::Rng(cfg.seed ^ 0x5af1ULL)));
}

struct Rig {
  explicit Rig(PipelineConfig c)
      : cfg(std::move(c)), edge(make_edge(cfg)), ledger(cfg, edge, listener) {}

  void send(int frame_index, EdgeServer::Upload upload = {},
            bool is_init = false) {
    ledger.send(frame_index, kBytes, four_object_request(), std::move(upload),
                is_init, now());
  }
  /// Advance the ledger one tick at a time through `end_ms`.
  void run_until(double end_ms) {
    while (now() <= end_ms) {
      ledger.advance(tick, now());
      ++tick;
    }
  }
  [[nodiscard]] double now() const { return static_cast<double>(tick); }
  [[nodiscard]] rt::LinkHealthStats health() const {
    return ledger.link_health();
  }

  PipelineConfig cfg;
  EdgeServer edge;
  FakeListener listener;
  RequestLedger ledger;
  int tick = 0;
};

/// Server-side ready times of the chunks answering a first attempt sent
/// at t = 0 under `cfg` (a clean uplink).
std::vector<double> chunk_ready_times(const PipelineConfig& cfg) {
  EdgeServer edge = make_edge(cfg);
  edge.submit(1, 0.0, kBytes, four_object_request());
  std::vector<double> ready;
  for (const auto& r : edge.poll(1e18)) ready.push_back(r.ready_ms);
  return ready;
}

/// A downlink outage that lets the first chunk of the t = 0 response
/// through and swallows the rest of it — and, if `resends_lost`, every
/// later chunk too.
PipelineConfig tail_outage_config(bool resends_lost) {
  PipelineConfig cfg = base_config();
  const auto ready = chunk_ready_times(cfg);
  EXPECT_GE(ready.size(), 3u);
  const double start = 0.5 * (ready[0] + ready[1]);
  const double end = resends_lost ? 1e12 : ready.back() + 1.0;
  cfg.faults = net::DuplexFaultScript::asymmetric(
      {}, net::FaultScript::outage(start, end));
  return cfg;
}

}  // namespace

// Karn's rule, three ways. A clean first attempt samples the estimator
// once per chunk. A retransmitted attempt's answer is never sampled. An
// attempt-0 answer that arrives after attempt 1 went out is a spurious
// retransmission, and it is not sampled either.
TEST(RequestLedger, KarnRuleSamplesOnlyCleanFirstAttempts) {
  {
    Rig clean(base_config());
    clean.send(1);
    clean.run_until(6000.0);
    ASSERT_EQ(clean.listener.completed(), 1);
    const auto h = clean.health();
    EXPECT_EQ(h.rtt_samples, h.chunks_received);
    EXPECT_GE(h.chunks_received, 3);
    EXPECT_EQ(h.retransmissions, 0);
    EXPECT_EQ(h.spurious_retransmissions, 0);
  }
  {
    // Attempt 0 dies on the uplink; attempt 1 is answered.
    PipelineConfig cfg = base_config();
    cfg.faults = net::DuplexFaultScript::asymmetric(
        net::FaultScript::outage(0.0, 1.0), {});
    Rig rig(std::move(cfg));
    rig.send(1);
    rig.run_until(12000.0);
    ASSERT_EQ(rig.listener.completed(), 1);
    const auto h = rig.health();
    EXPECT_EQ(h.retransmissions, 1);
    EXPECT_EQ(h.uplink_drops, 1);
    EXPECT_EQ(h.rtt_samples, 0);
    EXPECT_EQ(h.spurious_retransmissions, 0);
    EXPECT_EQ(h.responses_received, 1);
  }
  {
    // A fixed 120 ms deadline fires before inference (~185 ms) answers: the
    // late attempt-0 chunks complete the request after retransmissions.
    PipelineConfig cfg = base_config();
    cfg.rto.min_rto_ms = 120.0;
    cfg.rto.max_rto_ms = 120.0;
    cfg.max_retries = 1000;
    cfg.degraded_entry_rto_inflation = 1e9;
    Rig rig(std::move(cfg));
    rig.send(1);
    rig.run_until(8000.0);
    ASSERT_EQ(rig.listener.completed(), 1);
    const auto h = rig.health();
    EXPECT_GE(h.retransmissions, 1);
    EXPECT_GE(h.spurious_retransmissions, 1);
    EXPECT_EQ(h.rtt_samples, 0);
    EXPECT_GT(h.stale_responses, 0);  // later attempts' chunks
  }
}

// Every applied chunk renews the deadline: a fixed RTO that expires
// between the first and the last chunk of a clean stream never fires.
TEST(RequestLedger, PartialChunkSetRenewsTheDeadline) {
  double first_ms = 0.0;
  double last_ms = 0.0;
  {
    Rig probe(base_config());
    probe.send(1);
    probe.run_until(6000.0);
    ASSERT_EQ(probe.listener.completed(), 1);
    ASSERT_GE(probe.listener.chunks.size(), 3u);
    first_ms = probe.listener.chunks.front().now_ms;
    last_ms = probe.listener.chunks.back().now_ms;
  }
  ASSERT_GT(last_ms - first_ms, 2.0);
  PipelineConfig cfg = base_config();
  cfg.rto.min_rto_ms = 0.5 * (first_ms + last_ms);
  cfg.rto.max_rto_ms = cfg.rto.min_rto_ms;
  Rig rig(std::move(cfg));
  rig.send(1);
  rig.run_until(6000.0);
  ASSERT_EQ(rig.listener.completed(), 1);
  const auto h = rig.health();
  EXPECT_EQ(h.attempt_timeouts, 0);
  EXPECT_EQ(h.resend_requests, 0);
  EXPECT_EQ(h.partial_applies, h.chunks_received - 1);
}

// A stream cut after its first chunk: the deadline fires with a partial
// set, and the ledger asks the edge for the missing chunks only.
TEST(RequestLedger, StalledPartialSetResendsOnlyTheMissingChunks) {
  Rig rig(tail_outage_config(/*resends_lost=*/false));
  rig.send(1);
  rig.run_until(12000.0);
  const auto& calls = rig.listener.chunks;
  ASSERT_GE(calls.size(), 3u);
  EXPECT_FALSE(calls.front().complete);
  EXPECT_EQ(calls.front().received, 1);
  EXPECT_TRUE(calls.back().complete);
  EXPECT_EQ(calls.back().received, calls.back().expected);
  EXPECT_EQ(static_cast<int>(calls.back().masks.size()),
            calls.back().expected);
  const auto h = rig.health();
  EXPECT_EQ(h.attempt_timeouts, 1);
  EXPECT_EQ(h.retransmissions, 1);
  EXPECT_EQ(h.resend_requests, 1);
  EXPECT_GE(h.downlink_drops, 2);
  EXPECT_EQ(h.requests_failed, 0);
  EXPECT_EQ(h.responses_received, 1);
  EXPECT_EQ(h.rtt_samples, 1);  // only the chunk of the clean first attempt
}

// The retry budget guards liveness, not progress: with no retries at all,
// a timeout that follows fresh chunks still sends a missing-chunk resend,
// while a stalled request dies at its first timeout.
TEST(RequestLedger, RetryBudgetGuardsLivenessNotProgress) {
  {
    PipelineConfig cfg = tail_outage_config(/*resends_lost=*/true);
    cfg.max_retries = 0;
    Rig rig(std::move(cfg));
    rig.send(1);
    rig.run_until(20000.0);
    const auto h = rig.health();
    EXPECT_EQ(h.chunks_received, 1);
    EXPECT_EQ(h.resend_requests, 1);  // progress bought one more round
    EXPECT_EQ(h.attempt_timeouts, 2);
    EXPECT_EQ(h.requests_failed, 1);  // no progress since: dead
    EXPECT_EQ(rig.ledger.size(), 0u);
  }
  {
    PipelineConfig cfg = base_config();
    cfg.max_retries = 0;
    cfg.faults = net::DuplexFaultScript::asymmetric(
        net::FaultScript::outage(0.0, 1e12), {});
    Rig rig(std::move(cfg));
    rig.send(1);
    rig.run_until(20000.0);
    const auto h = rig.health();
    EXPECT_EQ(h.attempt_timeouts, 1);
    EXPECT_EQ(h.retransmissions, 0);
    EXPECT_EQ(h.requests_failed, 1);
  }
}

// Degraded mode is entered once timeouts have inflated the RTO by the
// configured factor. The outstanding request turns listen-only: no more
// retransmissions, its canvas upload is reported lost, and its late
// answer still completes it and ends degraded mode.
TEST(RequestLedger, DegradedEntryAbandonsListenOnlyAndLateAnswerCompletes) {
  // Inference takes ~185 ms; a fixed 40 ms deadline and a 10 ms backoff
  // expire two attempts before the first answer.
  PipelineConfig cfg = base_config();
  cfg.rto.min_rto_ms = 40.0;
  cfg.rto.max_rto_ms = 40.0;
  cfg.retry_backoff_base_ms = 10.0;
  cfg.max_retries = 1000;
  cfg.degraded_entry_rto_inflation = 4.0;  // two unanswered deadlines
  Rig rig(std::move(cfg));
  EdgeServer::CanvasFull full;
  full.encoded =
      enc::encode_uniform(1, kWidth, kHeight, enc::CompressionLevel::kHigh);
  full.epoch = 1;
  rig.send(1, full);

  int timeouts_at_entry = -1;
  int retransmissions_at_entry = -1;
  bool left_degraded = false;
  while (rig.now() <= 8000.0) {
    rig.run_until(rig.now());
    const auto h = rig.health();
    if (rig.ledger.degraded() && timeouts_at_entry < 0) {
      timeouts_at_entry = h.attempt_timeouts;
      retransmissions_at_entry = h.retransmissions;
      EXPECT_EQ(rig.listener.uploads_lost, 1);
      EXPECT_FALSE(rig.ledger.has_outstanding_request());  // listen-only
      EXPECT_FALSE(rig.ledger.has_blocking_request());
      EXPECT_TRUE(rig.ledger.awaiting_response());
    }
    if (timeouts_at_entry >= 0 && !rig.ledger.degraded()) {
      left_degraded = true;
    }
  }
  EXPECT_EQ(timeouts_at_entry, 2);
  EXPECT_EQ(retransmissions_at_entry, 1);
  EXPECT_TRUE(left_degraded);
  ASSERT_EQ(rig.listener.completed(), 1);
  const auto h = rig.health();
  EXPECT_EQ(h.degraded_entries, 1);
  EXPECT_EQ(h.retransmissions, 1);  // nothing after the abandonment
  EXPECT_EQ(h.attempt_timeouts, 2);
  EXPECT_EQ(h.requests_failed, 0);
  EXPECT_EQ(h.responses_received, 1);
  EXPECT_GT(h.degraded_frames, 0);
  EXPECT_EQ(rig.listener.ping_recoveries, 0);  // masks came with the exit
  EXPECT_FALSE(rig.ledger.degraded());
}

// Probes answer while degraded: recovery through a ping owes the client a
// full-quality refresh, reported once.
TEST(RequestLedger, PingRecoveryAsksForARefresh) {
  PipelineConfig cfg = base_config();
  cfg.rto.min_rto_ms = 200.0;
  cfg.rto.max_rto_ms = 200.0;
  cfg.degraded_entry_rto_inflation = 4.0;
  cfg.probe_interval_frames = 250;
  cfg.faults = net::DuplexFaultScript::asymmetric(
      net::FaultScript::outage(0.0, 2000.0), {});
  Rig rig(std::move(cfg));
  rig.send(1);
  rig.run_until(1900.0);
  EXPECT_TRUE(rig.ledger.degraded());
  EXPECT_EQ(rig.listener.ping_recoveries, 0);
  rig.run_until(4000.0);
  EXPECT_FALSE(rig.ledger.degraded());
  EXPECT_EQ(rig.listener.ping_recoveries, 1);
  const auto h = rig.health();
  EXPECT_EQ(h.degraded_entries, 1);
  EXPECT_GE(h.probes_sent, 2);
  EXPECT_EQ(h.responses_received, 1);  // the probe's echo
  EXPECT_EQ(rig.listener.completed(), 0);
}

// An admission reject from a saturated shared GPU inflates the backoff
// like a loss (no deadline expired) and voids the whole init pair.
TEST(RequestLedger, AdmissionRejectInflatesBackoffAndVoidsInitPair) {
  Rig rig(base_config());
  GpuConfig gpu_config;
  gpu_config.admission_queue_limit = 1;  // the second request is refused
  gpu_config.max_batch = 1;
  EdgeGpu gpu(gpu_config);
  rig.edge.attach_gpu(gpu);
  rig.send(10, {}, /*is_init=*/true);
  rig.send(11, {}, /*is_init=*/true);
  EXPECT_EQ(rig.ledger.size(), 2u);
  while (rig.listener.init_failures == 0 && rig.now() <= 1000.0) {
    rig.run_until(rig.now());
  }
  ASSERT_EQ(rig.listener.init_failures, 1);
  EXPECT_EQ(rig.ledger.size(), 0u);  // both halves are void
  EXPECT_DOUBLE_EQ(rig.ledger.congestion(), 2.0);
  rig.run_until(8000.0);
  const auto h = rig.health();
  EXPECT_EQ(h.admission_rejects, 1);
  EXPECT_EQ(h.rto_backoffs, 1);
  EXPECT_EQ(h.attempt_timeouts, 0);
  EXPECT_EQ(h.responses_received, 0);
  EXPECT_GT(h.stale_responses, 0);  // frame 10's answer lands on nothing
  EXPECT_EQ(rig.listener.init_failures, 1);
  EXPECT_TRUE(rig.listener.chunks.empty());
}

// A delta sent to a cold canvas is refused with a resync: no inference,
// so the model's random stream is untouched — the next request's masks
// match a server that never saw the delta.
TEST(RequestLedger, DeltaToColdCanvasResyncsWithoutModelDraws) {
  Rig rig(base_config());
  enc::CanvasDelta delta;
  delta.epoch = 1;
  delta.base_epoch = 0;
  rig.send(1, delta);
  rig.run_until(2000.0);
  EXPECT_EQ(rig.listener.resyncs, 1);
  EXPECT_TRUE(rig.listener.chunks.empty());
  EXPECT_EQ(rig.ledger.size(), 0u);
  EXPECT_EQ(rig.health().canvas_resyncs, 1);
  EXPECT_EQ(rig.health().responses_received, 0);
  EXPECT_TRUE(rig.edge.canvas().cold());

  rig.send(2);
  rig.run_until(8000.0);
  ASSERT_EQ(rig.listener.completed(), 1);
  const auto& got = rig.listener.chunks.back().masks;

  EdgeServer reference = make_edge(rig.cfg);
  reference.submit(2, 0.0, kBytes, four_object_request());
  std::vector<mask::InstanceMask> want;
  for (auto& r : reference.poll(1e18)) {
    for (auto& m : r.masks) want.push_back(std::move(m));
  }
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(masks_equal(got[i], want[i])) << "mask " << i;
  }
}
