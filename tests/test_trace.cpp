// Observability subsystem tests: the Tracer's span bookkeeping and JSON
// export, byte-identical traces for identical runs, balanced span stacks
// under degraded-mode episodes and request abandonment, zero perturbation
// of simulation results, and the metrics registry JSON round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/edgeis_pipeline.hpp"
#include "core/pipeline.hpp"
#include "net/faults.hpp"
#include "runtime/critpath.hpp"
#include "runtime/flight_recorder.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rng.hpp"
#include "runtime/trace.hpp"
#include "scene/presets.hpp"

using namespace edgeis;
using net::FaultScript;

namespace {

// Mirrors tests/test_faults.cpp: tight failure handling so a short run
// exercises timeouts, retransmissions, degraded entry/exit and probes.
core::PipelineConfig fast_failure_config() {
  core::PipelineConfig cfg;
  cfg.edge = sim::jetson_agx_xavier();
  cfg.rto.min_rto_ms = 150.0;
  cfg.rto.max_rto_ms = 1200.0;
  cfg.rto.initial_compute_guess_ms = 500.0;
  // Generous retry budget: requests survive their timeouts long enough to
  // still be outstanding at degraded entry and get abandoned (listen-only)
  // rather than dying of retry exhaustion first.
  cfg.max_retries = 5;
  cfg.retry_backoff_base_ms = 30.0;
  cfg.degraded_entry_rto_inflation = 4.0;
  cfg.probe_interval_frames = 8;
  return cfg;
}

/// Run edgeIS over a 7 s scene with a mid-run outage, tracing into
/// `tracer`. The outage drives the full ledger state machine: timeouts,
/// abandoned requests, degraded entry, probes, recovery.
core::RunResult run_traced_outage(rt::Tracer* tracer) {
  const auto scfg = scene::make_davis_scene(42, 210);
  scene::SceneSimulator sim(scfg);
  auto cfg = fast_failure_config();
  cfg.faults = FaultScript::outage(2600.0, 4600.0);
  core::EdgeISPipeline p(scfg, cfg);
  return core::run_pipeline(sim, p, 60, 10, tracer);
}

int count_instants(const rt::Tracer& tracer, const std::string& name) {
  int n = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.ph == 'i' && ev.name == name) ++n;
  }
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer unit tests
// ---------------------------------------------------------------------------

TEST(Tracer, BeginEndPairAndAggregate) {
  rt::Tracer t;
  t.begin(rt::track::kMobile, "frame", 100.0);
  t.begin(rt::track::kMobile, "extract", 100.0);
  t.end(rt::track::kMobile, 110.0);
  t.begin(rt::track::kMobile, "track", 110.0);
  t.end(rt::track::kMobile, 118.0);
  t.end(rt::track::kMobile, 120.0);
  EXPECT_EQ(t.open_span_count(), 0u);

  const auto agg = t.aggregate(rt::track::kMobile);
  ASSERT_TRUE(agg.count("frame"));
  EXPECT_NEAR(agg.at("frame").total_ms, 20.0, 1e-12);
  EXPECT_NEAR(agg.at("extract").total_ms, 10.0, 1e-12);
  EXPECT_NEAR(agg.at("track").total_ms, 8.0, 1e-12);
  EXPECT_EQ(agg.at("frame").count, 1);
}

TEST(Tracer, AggregateWarmupFilterAndCompleteEvents) {
  rt::Tracer t;
  t.complete(rt::track::kEdge, "infer", 50.0, 30.0);   // before cutoff
  t.complete(rt::track::kEdge, "infer", 200.0, 40.0);  // after
  const auto all = t.aggregate(rt::track::kEdge);
  EXPECT_NEAR(all.at("infer").total_ms, 70.0, 1e-12);
  const auto late = t.aggregate(rt::track::kEdge, 100.0);
  EXPECT_NEAR(late.at("infer").total_ms, 40.0, 1e-12);
  EXPECT_EQ(late.at("infer").count, 1);
}

TEST(Tracer, ScopedSpanClosesOnDestructionAndNullIsNoop) {
  rt::Tracer t;
  const std::size_t base = t.event_count();
  {
    rt::ScopedSpan span(&t, rt::track::kMobile, "frame", 10.0);
    span.set_end(25.0);
  }
  EXPECT_EQ(t.open_span_count(), 0u);
  EXPECT_EQ(t.event_count(), base + 2);  // B + E
  {
    rt::ScopedSpan none(nullptr, rt::track::kMobile, "frame", 10.0);
    none.set_end(25.0);
  }
  EXPECT_EQ(t.event_count(), base + 2);
}

TEST(Tracer, JsonShapeAndEscaping) {
  rt::Tracer t;
  t.instant(rt::track::kLedger, "ev\"il\\name", 1.5, {{"note", "a\nb"}});
  t.counter(rt::track::kLedger, "rto_ms", 2.0, 340.25);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ev\\\"il\\\\name\""), std::string::npos);
  EXPECT_NE(json.find("\"a\\nb\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":340.25"), std::string::npos);
  // Instants carry thread scope; timestamps are exported in microseconds.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500.000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Whole-run properties
// ---------------------------------------------------------------------------

TEST(TraceRun, ByteIdenticalForSameSeedAndFaultScript) {
  rt::Tracer a, b;
  run_traced_outage(&a);
  run_traced_outage(&b);
  ASSERT_GT(a.event_count(), 1000u);
  EXPECT_EQ(a.event_count(), b.event_count());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(TraceRun, SpansBalanceUnderDegradedEpisodesAndAbandonment) {
  rt::Tracer t;
  run_traced_outage(&t);
  EXPECT_EQ(t.open_span_count(), 0u);

  // The outage must actually have exercised the interesting paths,
  // otherwise the balance check proves nothing.
  EXPECT_GE(count_instants(t, "timeout"), 1);
  EXPECT_GE(count_instants(t, "degraded.enter"), 1);
  EXPECT_GE(count_instants(t, "degraded.exit"), 1);
  EXPECT_GE(count_instants(t, "degraded.probe"), 1);
  EXPECT_GE(count_instants(t, "abandon"), 1);

  // Replay B/E per track: every E closes the innermost B, E.ts >= B.ts,
  // and mobile-track events never step backwards in time.
  std::map<std::pair<int, int>, std::vector<const rt::Tracer::Event*>> open;
  double last_mobile_ts = -1.0;
  for (const auto& ev : t.events()) {
    const auto key = std::make_pair(ev.pid, ev.tid);
    if (ev.ph == 'B') {
      open[key].push_back(&ev);
    } else if (ev.ph == 'E') {
      ASSERT_FALSE(open[key].empty());
      EXPECT_GE(ev.ts_ms, open[key].back()->ts_ms);
      open[key].pop_back();
    }
    if (key == std::make_pair(1, 1) && (ev.ph == 'B' || ev.ph == 'E')) {
      EXPECT_GE(ev.ts_ms, last_mobile_ts);
      last_mobile_ts = ev.ts_ms;
    }
  }
  for (const auto& [key, stack] : open) EXPECT_TRUE(stack.empty());
}

TEST(TraceRun, StageSpansSumToFrameLatencyAndTracingChangesNothing) {
  rt::Tracer t;
  const auto traced = run_traced_outage(&t);
  const auto plain = run_traced_outage(nullptr);

  // Zero perturbation: attaching a tracer changes no simulation output.
  EXPECT_EQ(traced.summary.mean_iou, plain.summary.mean_iou);
  EXPECT_EQ(traced.summary.mean_latency_ms, plain.summary.mean_latency_ms);
  EXPECT_EQ(traced.total_tx_bytes, plain.total_tx_bytes);
  EXPECT_EQ(traced.transmissions, plain.transmissions);

  // Frame spans aggregate to the evaluator's mean latency (the fig11
  // derivation), and the stage children account for every millisecond.
  const auto agg = t.aggregate(rt::track::kMobile, 60.0 / 30.0 * 1000.0);
  const auto& frame = agg.at("frame");
  EXPECT_NEAR(frame.mean_ms(), traced.summary.mean_latency_ms,
              0.01 * traced.summary.mean_latency_ms);
  double stage_total = 0.0;
  for (const char* st : {"extract", "track", "transfer", "encode",
                         "render"}) {
    const auto it = agg.find(st);
    if (it != agg.end()) stage_total += it->second.total_ms;
  }
  EXPECT_NEAR(stage_total, frame.total_ms, 1e-6 * frame.total_ms + 1e-9);
}

TEST(TraceRun, LinkSpansCarryFaultAnnotations) {
  rt::Tracer t;
  run_traced_outage(&t);
  int uplink_spans = 0, dropped = 0;
  bool bytes_annotated = true;
  for (const auto& ev : t.events()) {
    if (ev.ph != 'X' || ev.pid != 3) continue;
    ++uplink_spans;
    bool has_bytes = false;
    for (const auto& arg : ev.args) {
      if (arg.key == "bytes") has_bytes = true;
      if (arg.key == "fault" && arg.text == "dropped") ++dropped;
    }
    bytes_annotated &= has_bytes;
  }
  EXPECT_GT(uplink_spans, 10);
  EXPECT_TRUE(bytes_annotated);
  EXPECT_GE(dropped, 1);  // the outage drops whole messages
}

TEST(TraceRun, RtoCounterSeriesEmitted) {
  rt::Tracer t;
  run_traced_outage(&t);
  int rto_samples = 0;
  double max_rto = 0.0;
  for (const auto& ev : t.events()) {
    if (ev.ph == 'C' && ev.name == "rto_ms") {
      ++rto_samples;
      ASSERT_FALSE(ev.args.empty());
      max_rto = std::max(max_rto, ev.args[0].number);
    }
  }
  EXPECT_GE(rto_samples, 5);
  EXPECT_GT(max_rto, 150.0);  // backoff inflated it during the outage
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, SnapshotJsonRoundTrip) {
  rt::MetricsRegistry reg;
  reg.counter_add("requests_sent", 13);
  reg.counter_add("requests_sent", 2);
  reg.gauge_set("srtt_ms", 412.625);
  reg.gauge_set("weird \"name\"", -0.5);
  for (int i = 1; i <= 100; ++i) {
    reg.observe("staleness_ms", static_cast<double>(i));
  }

  const std::string json = reg.to_json();
  const auto parsed = rt::MetricsSnapshot::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counters.at("requests_sent"), 15.0);
  EXPECT_EQ(parsed->gauges.at("srtt_ms"), 412.625);
  EXPECT_EQ(parsed->gauges.at("weird \"name\""), -0.5);
  const auto& h = parsed->histograms.at("staleness_ms");
  EXPECT_EQ(h.at("count"), 100.0);
  EXPECT_NEAR(h.at("mean"), 50.5, 1e-9);
  EXPECT_EQ(h.at("min"), 1.0);
  EXPECT_EQ(h.at("max"), 100.0);
  EXPECT_NEAR(h.at("p50"), 50.5, 1.0);

  // Export is deterministic: same registry, same bytes.
  EXPECT_EQ(json, reg.to_json());
}

TEST(Metrics, ParseRejectsMalformedInput) {
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json("").has_value());
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json("{").has_value());
  EXPECT_FALSE(
      rt::MetricsSnapshot::parse_json("{\"counters\": [1,2]}").has_value());
}

TEST(Metrics, EmptyRegistryRoundTrips) {
  rt::MetricsRegistry reg;
  const auto parsed = rt::MetricsSnapshot::parse_json(reg.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->counters.empty());
  EXPECT_TRUE(parsed->gauges.empty());
  EXPECT_TRUE(parsed->histograms.empty());
}

TEST(Metrics, NonFiniteValuesRoundTripAsPythonLiterals) {
  rt::MetricsRegistry reg;
  reg.gauge_set("nan", std::nan(""));
  reg.gauge_set("pinf", std::numeric_limits<double>::infinity());
  reg.gauge_set("ninf", -std::numeric_limits<double>::infinity());
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"nan\": NaN"), std::string::npos);
  EXPECT_NE(json.find("\"pinf\": Infinity"), std::string::npos);
  EXPECT_NE(json.find("\"ninf\": -Infinity"), std::string::npos);
  const auto parsed = rt::MetricsSnapshot::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::isnan(parsed->gauges.at("nan")));
  EXPECT_EQ(parsed->gauges.at("pinf"),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parsed->gauges.at("ninf"),
            -std::numeric_limits<double>::infinity());
}

TEST(Metrics, ParseRejectsEdgeCaseMalformations) {
  // Trailing garbage after the closing brace.
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json(
                   "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}x")
                   .has_value());
  // Unknown top-level section.
  EXPECT_FALSE(
      rt::MetricsSnapshot::parse_json("{\"surprises\": {}}").has_value());
  // Truncated non-finite literal and missing value.
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json("{\"gauges\": {\"x\": Inf}}")
                   .has_value());
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json("{\"gauges\": {\"x\": }}")
                   .has_value());
  // Missing colon, unterminated string, bare value.
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json("{\"gauges\" {}}").has_value());
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json("{\"gauges: {}}").has_value());
  EXPECT_FALSE(rt::MetricsSnapshot::parse_json("42").has_value());
}

TEST(Metrics, EmptyHistogramSectionWithPopulatedSiblings) {
  rt::MetricsRegistry reg;
  reg.counter_add("n", 3);
  const auto parsed = rt::MetricsSnapshot::parse_json(reg.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counters.at("n"), 3.0);
  EXPECT_TRUE(parsed->histograms.empty());
}

TEST(Metrics, FuzzedRegistriesRoundTripExactly) {
  // Randomized registries (deterministic seed): every snapshot must
  // survive to_json -> parse_json bit-for-bit, including %.17g doubles,
  // integer-formatted values, escaped names, and non-finite gauges.
  rt::Rng rng(0xfeedu);
  for (int iter = 0; iter < 50; ++iter) {
    rt::MetricsRegistry reg(64);
    const int nc = static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < nc; ++i) {
      std::string cname = "c";
      cname += std::to_string(rng.uniform_int(6));
      reg.counter_add(cname, std::floor(rng.uniform(0.0, 1e6)));
    }
    const int ng = static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < ng; ++i) {
      double v = rng.uniform(-1e9, 1e9);
      const auto kind = rng.uniform_int(8);
      if (kind == 0) v = std::nan("");
      if (kind == 1) v = std::numeric_limits<double>::infinity();
      if (kind == 2) v = -std::numeric_limits<double>::infinity();
      std::string gname = "g\"\\";
      gname += std::to_string(rng.uniform_int(6));
      reg.gauge_set(gname, v);
    }
    const int nh = static_cast<int>(rng.uniform_int(3));
    for (int i = 0; i < nh; ++i) {
      std::string name = "h";
      name += std::to_string(i);
      const int ns = static_cast<int>(rng.uniform_int(200));
      for (int s = 0; s < ns; ++s) reg.observe(name, rng.normal(0.0, 1e4));
    }

    const auto want = reg.snapshot();
    const auto got =
        rt::MetricsSnapshot::parse_json(rt::MetricsRegistry::to_json(want));
    ASSERT_TRUE(got.has_value()) << "iteration " << iter;
    ASSERT_EQ(got->counters.size(), want.counters.size());
    ASSERT_EQ(got->gauges.size(), want.gauges.size());
    ASSERT_EQ(got->histograms.size(), want.histograms.size());
    for (const auto& [k, v] : want.counters) {
      EXPECT_EQ(got->counters.at(k), v) << k;
    }
    for (const auto& [k, v] : want.gauges) {
      if (std::isnan(v)) {
        EXPECT_TRUE(std::isnan(got->gauges.at(k))) << k;
      } else {
        EXPECT_EQ(got->gauges.at(k), v) << k;
      }
    }
    for (const auto& [k, fields] : want.histograms) {
      for (const auto& [f, v] : fields) {
        EXPECT_EQ(got->histograms.at(k).at(f), v) << k << "." << f;
      }
    }
  }
}

TEST(Metrics, HandlesAliasStringApisAndStayStable) {
  rt::MetricsRegistry reg;
  rt::QuantileSketch& h = reg.sketch_handle("lat");
  h.add(3.0);
  reg.observe("lat", 5.0);  // same underlying sketch as the handle
  // Map nodes are stable: spraying more registrations must not move the
  // handle.
  for (int i = 0; i < 100; ++i) {
    reg.observe("other" + std::to_string(i), 1.0);
  }
  h.add(4.0);
  ASSERT_NE(reg.histogram("lat"), nullptr);
  EXPECT_EQ(reg.histogram("lat")->count(), 3u);
  EXPECT_EQ(reg.histogram("lat"), &h);
  EXPECT_EQ(&reg.sketch_handle("lat"), &h);
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

TEST(CritPath, StagesSumToSpanAndAgreeWithLedgerRtt) {
  rt::Tracer t;
  run_traced_outage(&t);
  const auto analysis =
      rt::CritPathAnalysis::from_trace(t, 60.0 / 30.0 * 1000.0);
  ASSERT_GE(analysis.requests().size(), 5u);
  for (const auto& cp : analysis.requests()) {
    // The clamped-monotone decomposition telescopes: stages account for
    // the whole send->response span, exactly.
    EXPECT_NEAR(cp.stages.sum_ms(), cp.span_ms(), 1e-6) << cp.request;
    // Two independent clocks over the same interval: the post-hoc trace
    // span and the rtt the ledger measured at runtime (only the first
    // attempt's send is the rtt anchor after a retransmission).
    if (cp.attempt == 0) {
      EXPECT_NEAR(cp.span_ms(), cp.rtt_arg_ms, 0.01 * cp.rtt_arg_ms + 1e-6)
          << cp.request;
    }
    for (double stage :
         {cp.stages.uplink_retry_ms, cp.stages.uplink_queue_ms,
          cp.stages.uplink_transit_ms, cp.stages.gpu_wait_ms,
          cp.stages.compute_ms, cp.stages.stream_tail_ms,
          cp.stages.downlink_queue_ms, cp.stages.downlink_transit_ms,
          cp.stages.pickup_ms}) {
      EXPECT_GE(stage, 0.0) << cp.request;
    }
  }
  const auto roll = analysis.rollup();
  EXPECT_EQ(roll.requests, static_cast<int>(analysis.requests().size()));
  EXPECT_NEAR(roll.mean().uplink_transit_ms + roll.mean().compute_ms,
              roll.mean().uplink_transit_ms + roll.mean().compute_ms, 0.0);
  EXPECT_GT(roll.mean_span_ms(), 0.0);
}

TEST(CritPath, InstantsDetailKeepsWaterfallsIdentical) {
  // The analyzer consumes only X/i events, so a tracer that retains only
  // instants (the fleet's per-client sampling mode) must produce the
  // same per-request decomposition as a full trace — render cost is the
  // one field that needs B/E spans.
  rt::Tracer full, instants;
  instants.set_default_detail(rt::Tracer::Detail::kInstants);
  run_traced_outage(&full);
  run_traced_outage(&instants);
  ASSERT_LT(instants.event_count(), full.event_count());

  const auto a = rt::CritPathAnalysis::from_trace(full);
  const auto b = rt::CritPathAnalysis::from_trace(instants);
  ASSERT_EQ(a.requests().size(), b.requests().size());
  ASSERT_GE(a.requests().size(), 5u);
  bool render_seen = false;
  for (std::size_t i = 0; i < a.requests().size(); ++i) {
    const auto& fa = a.requests()[i];
    const auto& fb = b.requests()[i];
    EXPECT_EQ(fa.request, fb.request);
    EXPECT_DOUBLE_EQ(fa.send_ms, fb.send_ms);
    EXPECT_DOUBLE_EQ(fa.response_ms, fb.response_ms);
    EXPECT_DOUBLE_EQ(fa.stages.sum_ms(), fb.stages.sum_ms());
    EXPECT_DOUBLE_EQ(fa.stages.gpu_wait_ms, fb.stages.gpu_wait_ms);
    EXPECT_DOUBLE_EQ(fa.stages.compute_ms, fb.stages.compute_ms);
    render_seen |= fa.render_ms > 0.0;
    EXPECT_EQ(fb.render_ms, 0.0);  // B/E suppressed: no render span
  }
  EXPECT_TRUE(render_seen);

  // Silent detail keeps only metadata: nothing to attribute.
  rt::Tracer silent;
  silent.set_default_detail(rt::Tracer::Detail::kSilent);
  run_traced_outage(&silent);
  EXPECT_TRUE(rt::CritPathAnalysis::from_trace(silent).requests().empty());
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, OutageTriggersAbandonDegradedAndRtoCollapse) {
  // Undamped config (no cooldown, no per-session cap) so every trigger
  // shows up in dumps(); the run's config enters degraded at 4x RTO
  // inflation, so collapse at 4x is guaranteed to be crossed too.
  rt::FlightRecorder::Config cfg;
  cfg.dump_cooldown_ms = 0.0;
  cfg.max_dumps_per_session = 1000;
  cfg.rto_collapse_backoff = 4.0;
  rt::FlightRecorder rec("", cfg);  // empty dir: detect-only, no files
  rt::Tracer t;
  t.set_sink(&rec);
  run_traced_outage(&t);
  t.set_sink(nullptr);

  ASSERT_FALSE(rec.dumps().empty());
  EXPECT_EQ(rec.triggers_fired(), static_cast<int>(rec.dumps().size()));
  bool abandon = false, degraded = false, rto = false;
  for (const auto& d : rec.dumps()) {
    EXPECT_EQ(d.session, 0);  // private run: pid offset 0
    EXPECT_TRUE(d.path.empty());
    EXPECT_LE(d.events, rec.config().ring_capacity);
    abandon |= d.trigger == "ledger-abandon";
    degraded |= d.trigger == "degraded-entry";
    rto |= d.trigger == "rto-collapse";
  }
  // The outage abandons in-flight requests at degraded entry and inflates
  // the RTO backoff past the collapse threshold: all three must fire.
  EXPECT_TRUE(abandon);
  EXPECT_TRUE(degraded);
  EXPECT_TRUE(rto);
}

TEST(FlightRecorder, DumpsAreByteIdenticalAcrossRuns) {
  auto record = [](rt::FlightRecorder& rec) {
    rt::Tracer t;
    t.set_sink(&rec);
    run_traced_outage(&t);
    t.set_sink(nullptr);
  };
  rt::FlightRecorder a(""), b("");
  record(a);
  record(b);
  ASSERT_EQ(a.dumps().size(), b.dumps().size());
  ASSERT_FALSE(a.dumps().empty());
  for (std::size_t i = 0; i < a.dumps().size(); ++i) {
    const auto& da = a.dumps()[i];
    const auto& db = b.dumps()[i];
    EXPECT_EQ(da.trigger, db.trigger);
    EXPECT_EQ(da.ts_ms, db.ts_ms);
    // Ring contents at the incident are identical, so the rendered
    // postmortems are identical bytes.
    EXPECT_EQ(a.render_dump(da.session, da.trigger, da.ts_ms),
              b.render_dump(db.session, db.trigger, db.ts_ms));
  }
  const std::string dump = a.render_dump(
      a.dumps()[0].session, a.dumps()[0].trigger, a.dumps()[0].ts_ms);
  EXPECT_NE(dump.find("\"flightRecorder\""), std::string::npos);
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
}

TEST(FlightRecorder, CooldownAndDumpCapDampRepeatTriggers) {
  rt::FlightRecorder::Config cfg;
  cfg.dump_cooldown_ms = 1000.0;
  cfg.max_dumps_per_session = 2;
  rt::FlightRecorder rec("", cfg);
  rt::Tracer t;
  t.set_sink(&rec);
  // Five abandons in quick succession: the first dumps, the second is
  // inside the cooldown, the third dumps again, then the per-session cap
  // swallows the rest.
  for (int i = 0; i < 5; ++i) {
    t.instant(rt::track::kLedger, "abandon", 100.0 + 600.0 * i,
              {{"request", i}});
  }
  t.set_sink(nullptr);
  EXPECT_EQ(rec.triggers_fired(), 5);
  ASSERT_EQ(rec.dumps().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.dumps()[0].ts_ms, 100.0);
  EXPECT_DOUBLE_EQ(rec.dumps()[1].ts_ms, 1300.0);
}

TEST(FlightRecorder, RejectStormNeedsCountInsideWindow) {
  rt::FlightRecorder::Config cfg;
  cfg.reject_storm_count = 3;
  cfg.reject_storm_window_ms = 500.0;
  rt::FlightRecorder rec("", cfg);
  rt::Tracer t;
  t.set_sink(&rec);
  // Two rejects, then a long gap: the window prunes them, so the next
  // two alone don't trip; the fifth inside the window does.
  t.instant(rt::track::kLedger, "admission_reject", 100.0, {});
  t.instant(rt::track::kLedger, "admission_reject", 200.0, {});
  t.instant(rt::track::kLedger, "admission_reject", 2000.0, {});
  t.instant(rt::track::kLedger, "admission_reject", 2100.0, {});
  EXPECT_EQ(rec.triggers_fired(), 0);
  t.instant(rt::track::kLedger, "admission_reject", 2200.0, {});
  t.set_sink(nullptr);
  EXPECT_EQ(rec.triggers_fired(), 1);
  ASSERT_EQ(rec.dumps().size(), 1u);
  EXPECT_EQ(rec.dumps()[0].trigger, "reject-storm");
}
