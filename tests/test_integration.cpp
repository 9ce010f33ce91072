// Integration tests: full pipelines over short rendered scenes. These are
// the most expensive tests in the suite; scenes are kept short.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/baselines.hpp"
#include "core/edge_server.hpp"
#include "core/edgeis_pipeline.hpp"
#include "core/local_trackers.hpp"
#include "core/render_queue.hpp"
#include "net/faults.hpp"
#include "runtime/trace.hpp"
#include "scene/presets.hpp"

using namespace edgeis;
using namespace edgeis::core;

TEST(RenderQueue, NoLagUnderBudget) {
  RenderQueue q(30.0);
  for (int i = 0; i < 10; ++i) {
    std::vector<mask::InstanceMask> masks(1);
    masks[0].instance_id = i;
    const auto& rendered = q.push_and_render(i, std::move(masks), 20.0);
    ASSERT_EQ(rendered.size(), 1u);
    EXPECT_EQ(rendered[0].instance_id, i);  // fresh masks every frame
  }
  EXPECT_EQ(q.lag_frames(), 0);
}

TEST(RenderQueue, OverBudgetLagsButSaturates) {
  RenderQueue q(30.0, 64, 4);
  int max_lag = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<mask::InstanceMask> masks(1);
    masks[0].instance_id = i;
    const auto& rendered = q.push_and_render(i, std::move(masks), 55.0);
    if (!rendered.empty()) {
      max_lag = std::max(max_lag, i - rendered[0].instance_id);
    }
  }
  EXPECT_GT(max_lag, 0);   // running behind
  EXPECT_LE(max_lag, 5);   // but frame-skipping bounds the staleness
}

TEST(EdgeServer, FifoQueueing) {
  // No shared GPU: the server's own one-session GPU is a plain FIFO.
  EdgeServer server(segnet::mask_rcnn_profile(), sim::jetson_tx2(),
                    rt::Rng(3));
  segnet::InferenceRequest req;
  req.width = 320;
  req.height = 240;
  server.submit(1, 0.0, 0, req);
  server.submit(2, 1.0, 0, req);  // arrives while busy: queued
  const auto all = server.poll(1e18);
  ASSERT_GE(all.size(), 2u);
  EXPECT_EQ(all.front().frame_index, 1);
  EXPECT_EQ(all.back().frame_index, 2);
  double first_done = 0.0;
  double second_begin = 1e18;
  double second_done = 0.0;
  for (const auto& r : all) {
    if (r.frame_index == 1) {
      first_done = std::max(first_done, r.ready_ms);
    } else {
      second_begin = std::min(second_begin, r.ready_ms);
      second_done = std::max(second_done, r.ready_ms);
    }
  }
  EXPECT_GT(second_begin, first_done);  // never interleaved
  // Second request waited for the first: total >= 2x single inference.
  EXPECT_GT(second_done, 2.0 * first_done * 0.9);
}

TEST(EdgeServer, PollRespectsTime) {
  EdgeServer server(segnet::yolov3_profile(), sim::jetson_tx2(), rt::Rng(5));
  segnet::InferenceRequest req;
  req.width = 320;
  req.height = 240;
  server.submit(7, 0.0, 0, req);
  EXPECT_TRUE(server.poll(0.1).empty());  // still on the uplink
  const auto done = server.poll(1e6);
  ASSERT_FALSE(done.empty());
  for (const auto& r : done) EXPECT_EQ(r.frame_index, 7);
  EXPECT_EQ(static_cast<int>(done.size()), done.back().chunk_count);
  EXPECT_TRUE(server.poll(1e7).empty());
}

TEST(LocalTrackers, TranslateMaskClips) {
  mask::InstanceMask m(20, 20);
  m.set(18, 18);
  m.set(1, 1);
  const auto t = m.translated(5, 5);
  EXPECT_TRUE(t.get(6, 6));
  EXPECT_EQ(t.pixel_count(), 1);  // (18,18) shifted out of frame
}

TEST(LocalTrackers, CorrelationFindsShift) {
  // Structured random texture, shifted by a known amount.
  rt::Rng rng(7);
  img::GrayImage prev(160, 120);
  for (int y = 0; y < 120; ++y) {
    for (int x = 0; x < 160; ++x) {
      prev.at(x, y) = static_cast<std::uint8_t>(
          40 + 60 * (((x / 8) + (y / 8)) % 2) + rng.uniform_int(60));
    }
  }
  img::GrayImage curr(160, 120);
  const int dx = 6, dy = -4;
  for (int y = 0; y < 120; ++y) {
    for (int x = 0; x < 160; ++x) {
      curr.at(x, y) = prev.at_clamped(x - dx, y - dy);
    }
  }
  CorrelationTracker kcf(12, 2);
  const auto shift = kcf.track(prev, curr, {40, 30, 100, 80});
  ASSERT_TRUE(shift.has_value());
  EXPECT_NEAR(shift->x, dx, 2.01);
  EXPECT_NEAR(shift->y, dy, 2.01);
}

namespace {

scene::SceneConfig quick_scene(int frames = 140) {
  return scene::make_davis_scene(42, frames);
}

}  // namespace

TEST(EdgeIsPipeline, InitializesAndTransfersMasks) {
  const auto scfg = quick_scene();
  scene::SceneSimulator sim(scfg);
  PipelineConfig cfg;
  EdgeISPipeline pipeline(scfg, cfg);
  const auto result = run_pipeline(sim, pipeline, 60);
  EXPECT_TRUE(pipeline.initialized());
  EXPECT_GT(result.transmissions, 2);
  EXPECT_GT(result.summary.mean_iou, 0.5);
  EXPECT_LT(result.summary.mean_latency_ms, 45.0);
  EXPECT_GT(result.summary.object_frames, 50);
  EXPECT_FALSE(pipeline.edge_stats().empty());
}

TEST(EdgeIsPipeline, DeterministicAcrossRuns) {
  const auto scfg = quick_scene(100);
  scene::SceneSimulator sim(scfg);
  PipelineConfig cfg;
  EdgeISPipeline a(scfg, cfg), b(scfg, cfg);
  const auto ra = run_pipeline(sim, a, 50);
  const auto rb = run_pipeline(sim, b, 50);
  EXPECT_DOUBLE_EQ(ra.summary.mean_iou, rb.summary.mean_iou);
  EXPECT_EQ(ra.transmissions, rb.transmissions);
  EXPECT_EQ(ra.total_tx_bytes, rb.total_tx_bytes);
}

TEST(EdgeIsPipeline, CiiaReducesEdgeLatency) {
  const auto scfg = quick_scene();
  scene::SceneSimulator sim(scfg);
  PipelineConfig with;
  PipelineConfig without;
  without.enable_ciia = false;
  EdgeISPipeline p_with(scfg, with), p_without(scfg, without);
  run_pipeline(sim, p_with, 60);
  run_pipeline(sim, p_without, 60);
  auto mean_edge_ms = [](const EdgeISPipeline& p) {
    double sum = 0.0;
    int n = 0;
    for (const auto& s : p.edge_stats()) {
      // Skip full-frame bootstrap/refresh inferences.
      if (s.anchors_evaluated < 60000) {
        sum += s.total_ms();
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double accel = mean_edge_ms(p_with);
  if (accel > 0.0) {
    double full_sum = 0.0;
    int full_n = 0;
    for (const auto& s : p_without.edge_stats()) {
      full_sum += s.total_ms();
      ++full_n;
    }
    ASSERT_GT(full_n, 0);
    EXPECT_LT(accel, full_sum / full_n);
  }
}

TEST(Baselines, AllPipelinesRunToCompletion) {
  const auto scfg = quick_scene(100);
  scene::SceneSimulator sim(scfg);
  PipelineConfig cfg;
  {
    TrackDetectPipeline p(scfg, cfg, TrackDetectPolicy::kEaar);
    const auto r = run_pipeline(sim, p, 50);
    EXPECT_GT(r.transmissions, 0);
    EXPECT_EQ(p.name(), "eaar");
  }
  {
    TrackDetectPipeline p(scfg, cfg, TrackDetectPolicy::kEdgeDuet);
    const auto r = run_pipeline(sim, p, 50);
    EXPECT_GT(r.transmissions, 0);
    EXPECT_EQ(p.name(), "edgeduet");
  }
  {
    TrackDetectPipeline p(scfg, cfg, TrackDetectPolicy::kBestEffort);
    const auto r = run_pipeline(sim, p, 50);
    EXPECT_GT(r.transmissions, 0);
    EXPECT_EQ(p.name(), "best-effort");
  }
  {
    PureMobilePipeline p(scfg, cfg);
    const auto r = run_pipeline(sim, p, 50);
    EXPECT_EQ(p.name(), "pure-mobile");
    // Pure mobile pegs the CPU.
    EXPECT_GT(r.mean_cpu_utilization, 0.9);
  }
}

TEST(Baselines, EdgeIsBeatsTrackDetectOnAccuracy) {
  const auto scfg = quick_scene();
  scene::SceneSimulator sim(scfg);
  PipelineConfig cfg;
  EdgeISPipeline edgeis(scfg, cfg);
  TrackDetectPipeline eaar(scfg, cfg, TrackDetectPolicy::kEaar);
  const auto r_edgeis = run_pipeline(sim, edgeis, 60);
  const auto r_eaar = run_pipeline(sim, eaar, 60);
  EXPECT_GT(r_edgeis.summary.mean_iou, r_eaar.summary.mean_iou);
}

// The track-detect baselines stream their responses too: a frame's masks
// are adopted only once all of its chunks have arrived, and a chunk lost
// on the downlink must not hold the "client drops while busy" gate shut.
TEST(TrackDetectPipeline, AdoptsCompleteChunkSetsAndSurvivesLostChunk) {
  const auto scfg = quick_scene(40);
  scene::SceneSimulator sim(scfg);
  auto run = [&](TrackDetectPipeline& p) {
    std::vector<FrameOutput> outs;
    for (int i = 0; i < scfg.total_frames; ++i) {
      outs.push_back(p.process(sim.render(i)));
    }
    return outs;
  };

  // Clean traced run: when each chunk of frame 0's response left the edge.
  PipelineConfig cfg;
  TrackDetectPipeline clean(scfg, cfg, TrackDetectPolicy::kBestEffort);
  rt::Tracer tracer;
  clean.set_tracer(&tracer);
  const auto clean_out = run(clean);
  std::vector<double> chunk_ms;
  for (const auto& e : tracer.events()) {
    if (e.ph != 'X' || e.name != "downlink") continue;
    for (const auto& a : e.args) {
      if (a.key == "request" && a.number == 0.0) chunk_ms.push_back(e.ts_ms);
    }
  }
  ASSERT_GE(chunk_ms.size(), 2u);  // a multi-chunk response
  const double last_chunk_ms =
      *std::max_element(chunk_ms.begin(), chunk_ms.end());
  int adopted = -1;
  for (const auto& o : clean_out) {
    if (o.staleness_ms >= 0.0) {
      adopted = o.frame_index;
      break;
    }
  }
  ASSERT_GT(adopted, 1);
  EXPECT_TRUE(clean_out[0].transmitted);
  EXPECT_FALSE(clean_out[1].transmitted);  // busy: the client drops frames

  // Same run with a downlink blackout that swallows exactly the last chunk.
  PipelineConfig lossy = cfg;
  lossy.faults.downlink =
      net::FaultScript::outage(last_chunk_ms, last_chunk_ms + 1e-3);
  TrackDetectPipeline faulted(scfg, lossy, TrackDetectPolicy::kBestEffort);
  const auto faulted_out = run(faulted);
  EXPECT_LT(faulted_out[static_cast<std::size_t>(adopted)].staleness_ms,
            0.0);  // incomplete set: the masks were not replaced
  // The gate reopened once the surviving chunks landed: the next keyframe
  // went out no later than the clean run's.
  EXPECT_TRUE(std::any_of(faulted_out.begin() + 1,
                          faulted_out.begin() + adopted + 1,
                          [](const FrameOutput& o) { return o.transmitted; }));
  EXPECT_TRUE(std::any_of(faulted_out.begin(), faulted_out.end(),
                          [](const FrameOutput& o) {
                            return o.staleness_ms >= 0.0;
                          }));  // a later complete set is adopted
}

// A duplicated uplink request runs the model twice, and the two answers
// may be framed with different chunk counts. The chunk set that starts
// first is adopted; the other copy's chunks neither restart its assembly
// nor re-adopt once it is done, so the masks next change with the next
// keyframe's answer.
TEST(TrackDetectPipeline, DuplicatedRequestAdoptsOneChunkSet) {
  // A crowd: enough instances that the two inferences' misses differ.
  const auto scfg =
      scene::make_stress_scene(scene::StressRegime::kCrowd, 42, 30);
  scene::SceneSimulator sim(scfg);
  std::vector<scene::RenderedFrame> frames;
  for (int i = 0; i < scfg.total_frames; ++i) frames.push_back(sim.render(i));
  int mismatched = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    PipelineConfig cfg;
    cfg.seed = seed;
    net::FaultScript dup;
    dup.add({0.0, 1.0, net::FaultMode::kDuplicate});  // frame 0's request
    cfg.faults = net::DuplexFaultScript::asymmetric(dup, {});
    TrackDetectPipeline p(scfg, cfg, TrackDetectPolicy::kBestEffort);
    rt::Tracer tracer;
    p.set_tracer(&tracer);
    std::vector<FrameOutput> outs;
    for (const auto& f : frames) outs.push_back(p.process(f));

    std::vector<double> counts;  // chunk count of each frame-0 chunk
    for (const auto& e : tracer.events()) {
      if (e.name != "chunk_ready") continue;
      double frame = -1.0, chunks = 0.0;
      for (const auto& a : e.args) {
        if (a.key == "frame") frame = a.number;
        if (a.key == "chunks") chunks = a.number;
      }
      if (frame == 0.0) counts.push_back(chunks);
    }
    ASSERT_FALSE(counts.empty());
    mismatched += std::any_of(counts.begin(), counts.end(),
                              [&](double c) { return c != counts.front(); });

    const auto adopted = std::find_if(
        outs.begin(), outs.end(),
        [](const FrameOutput& o) { return o.staleness_ms >= 0.0; });
    const auto reopened = std::find_if(
        outs.begin() + 1, outs.end(),
        [](const FrameOutput& o) { return o.transmitted; });
    ASSERT_NE(adopted, outs.end());
    ASSERT_NE(reopened, outs.end());
    // Frame 0's answer landed before the gate reopened (both copies in)...
    ASSERT_LE(adopted, reopened);
    // ...and nothing re-adopted until then.
    for (auto it = adopted + 1; it <= reopened; ++it) {
      EXPECT_GT(it->staleness_ms, (it - 1)->staleness_ms);
    }
  }
  EXPECT_GT(mismatched, 0);  // the differently-framed case was exercised
}

// edgeIS with every uplink message duplicated: each keyframe runs two
// inferences, whose chunk streams may be framed differently. A delayed
// downlink keeps the first set open while the second stream lands (with
// an on-time downlink the second stream arrives after the set closed and
// is only a stale response). The ledger merges one chunk set per request
// (net::ChunkAssembler: same-count copies fill holes or are duplicates,
// other counts are mismatches, both counted as duplicate chunks), so no
// frame renders an instance twice.
TEST(EdgeIsPipeline, DuplicatedRequestsNeverRenderAnInstanceTwice) {
  const auto scfg =
      scene::make_stress_scene(scene::StressRegime::kCrowd, 42, 120);
  scene::SceneSimulator sim(scfg);
  PipelineConfig cfg;
  cfg.edge = sim::jetson_agx_xavier();
  net::FaultScript up;
  up.add({0.0, 1e18, net::FaultMode::kDuplicate, 1.0});
  net::FaultScript down;
  down.add({0.0, 1e18, net::FaultMode::kReorder, 0.5, 400.0});
  cfg.faults = net::DuplexFaultScript::asymmetric(up, down);
  EdgeISPipeline p(scfg, cfg);
  int frames_with_masks = 0;
  for (int i = 0; i < sim.total_frames(); ++i) {
    const auto out = p.process(sim.render(i));
    std::vector<int> ids;
    for (const auto& m : out.rendered_masks) ids.push_back(m.instance_id);
    std::sort(ids.begin(), ids.end());
    const auto twice = std::adjacent_find(ids.begin(), ids.end());
    EXPECT_TRUE(twice == ids.end())
        << "frame " << i << " renders instance " << *twice << " twice";
    if (!ids.empty()) ++frames_with_masks;
  }
  EXPECT_TRUE(p.initialized());
  EXPECT_GT(frames_with_masks, 0);
  EXPECT_GT(p.link_health().duplicate_chunks, 0);
}

// The redesigned uplink behind PipelineConfig.encoding: on a clean link
// the canvas-delta encoder must cut uplink bytes substantially against
// the full-CFRS path at essentially the same mask quality, and the epoch
// chain must never break (no resyncs without faults).
TEST(EdgeIsPipeline, DeltaUplinkCutsBytesOnCleanLink) {
  const auto scfg = quick_scene();
  scene::SceneSimulator sim(scfg);
  PipelineConfig full_cfg;
  PipelineConfig delta_cfg;
  delta_cfg.encoding.uplink = enc::UplinkMode::kDelta;
  EdgeISPipeline p_full(scfg, full_cfg), p_delta(scfg, delta_cfg);
  const auto r_full = run_pipeline(sim, p_full, 60);
  const auto r_delta = run_pipeline(sim, p_delta, 60);

  // The fig10 acceptance floor is 30%; hold a softer 25% here so the short
  // scene (fewer frames to amortize the seeding keyframe) stays green.
  EXPECT_LT(static_cast<double>(r_delta.total_tx_bytes),
            0.75 * static_cast<double>(r_full.total_tx_bytes));
  EXPECT_GT(r_delta.summary.mean_iou, r_full.summary.mean_iou - 0.02);
  EXPECT_GT(r_delta.summary.mean_iou, 0.5);

  const auto h = p_delta.link_health();
  EXPECT_GT(h.canvas_deltas, 0);
  EXPECT_GE(h.canvas_full_keyframes, 1);  // the chain was seeded
  EXPECT_EQ(h.canvas_resyncs, 0);         // and never broke
  EXPECT_GT(h.canvas_tiles_reused, 0);    // the canvas did real work
  // Full mode keeps the canvas machinery fully disengaged.
  const auto hf = p_full.link_health();
  EXPECT_EQ(hf.canvas_deltas, 0);
  EXPECT_EQ(hf.canvas_full_keyframes, 0);
  EXPECT_EQ(hf.canvas_resyncs, 0);
}
