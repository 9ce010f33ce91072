// Google-benchmark microbenchmarks of the hot kernels: feature detection,
// description, matching, contour tracing, rasterization, ground-truth mask
// extraction, NMS and the anchor generator. These ground the mobile cost
// model's constants.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "features/descriptor.hpp"
#include "features/detector.hpp"
#include "features/matcher.hpp"
#include "features/orb.hpp"
#include "mask/mask.hpp"
#include "runtime/rng.hpp"
#include "scene/presets.hpp"
#include "segnet/anchors.hpp"

using namespace edgeis;

namespace {

const scene::RenderedFrame& test_frame() {
  static const scene::RenderedFrame frame = [] {
    scene::SceneSimulator sim(scene::make_davis_scene(42, 10));
    return sim.render(0);
  }();
  return frame;
}

mask::InstanceMask test_mask() {
  mask::InstanceMask m(640, 480);
  for (int y = 0; y < 480; ++y) {
    for (int x = 0; x < 640; ++x) {
      if ((x - 320) * (x - 320) + (y - 240) * (y - 240) < 120 * 120) {
        m.set(x, y);
      }
    }
  }
  return m;
}

}  // namespace

static void BM_OrbExtract(benchmark::State& state) {
  const auto& frame = test_frame();
  feat::OrbExtractor orb;
  for (auto _ : state) {
    benchmark::DoNotOptimize(orb.extract(frame.intensity));
  }
}
BENCHMARK(BM_OrbExtract)->Unit(benchmark::kMillisecond);

static void BM_BriefDescribe(benchmark::State& state) {
  // The descriptor stage of BM_OrbExtract alone: the same pyramid and
  // FAST keypoints, described every iteration.
  const auto& frame = test_frame();
  const feat::OrbOptions opts;
  std::vector<img::GrayImage> pyramid;
  img::build_blurred_pyramid_into(frame.intensity, opts.pyramid_levels,
                                  pyramid);
  std::vector<std::vector<feat::Keypoint>> keypoints;
  for (std::size_t level = 0; level < pyramid.size(); ++level) {
    feat::DetectorOptions d = opts.detector;
    d.max_per_cell = std::max(1, d.max_per_cell >> level);
    keypoints.push_back(feat::detect_fast(pyramid[level], d));
  }
  const feat::BriefDescriptorExtractor brief;
  for (auto _ : state) {
    for (std::size_t level = 0; level < pyramid.size(); ++level) {
      benchmark::DoNotOptimize(
          brief.compute_all(pyramid[level], keypoints[level]));
    }
  }
}
BENCHMARK(BM_BriefDescribe)->Unit(benchmark::kMillisecond);

static void BM_FastDetect(benchmark::State& state) {
  // The detector stage of BM_OrbExtract alone: FAST over the same
  // blurred pyramid (3 levels), with the extractor's per-level options.
  const auto& frame = test_frame();
  const feat::OrbOptions opts;
  std::vector<img::GrayImage> pyramid;
  img::build_blurred_pyramid_into(frame.intensity, opts.pyramid_levels,
                                  pyramid);
  for (auto _ : state) {
    for (std::size_t level = 0; level < pyramid.size(); ++level) {
      feat::DetectorOptions d = opts.detector;
      d.max_per_cell = std::max(1, d.max_per_cell >> level);
      benchmark::DoNotOptimize(feat::detect_fast(pyramid[level], d));
    }
  }
}
BENCHMARK(BM_FastDetect)->Unit(benchmark::kMillisecond);

static void BM_BruteForceMatch(benchmark::State& state) {
  const auto& frame = test_frame();
  feat::OrbExtractor orb;
  const auto feats = orb.extract(frame.intensity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::match_brute_force(feats, feats));
  }
}
BENCHMARK(BM_BruteForceMatch)->Unit(benchmark::kMillisecond);

static void BM_FindContours(benchmark::State& state) {
  const auto m = test_mask();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mask::find_contours(m));
  }
}
BENCHMARK(BM_FindContours)->Unit(benchmark::kMillisecond);

static void BM_RasterizePolygon(benchmark::State& state) {
  const auto m = test_mask();
  const auto contours = mask::find_contours(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mask::rasterize_polygon(contours[0], 640, 480));
  }
}
BENCHMARK(BM_RasterizePolygon)->Unit(benchmark::kMillisecond);

static void BM_MaskIou(benchmark::State& state) {
  const auto a = test_mask();
  const auto b = a.translated(10, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.iou(b));
  }
}
BENCHMARK(BM_MaskIou)->Unit(benchmark::kMillisecond);

static void BM_GroundTruthMasks(benchmark::State& state) {
  // Every instance mask of one crowded frame: the per-frame ground-truth
  // (and model oracle) extraction from the renderer's id buffer.
  scene::SceneSimulator sim(
      scene::make_stress_scene(scene::StressRegime::kCrowd, 42, 240));
  const auto frame = sim.render(120);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.ground_truth_masks(frame));
  }
}
BENCHMARK(BM_GroundTruthMasks)->Unit(benchmark::kMillisecond);

static void BM_MaskFill(benchmark::State& state) {
  // Contour round trip of every ground-truth mask of one crowded frame:
  // find_contours, then each contour filled back with rasterize_polygon,
  // as mask transfer does per instance.
  scene::SceneSimulator sim(
      scene::make_stress_scene(scene::StressRegime::kCrowd, 42, 240));
  const auto masks = sim.ground_truth_masks(sim.render(120));
  for (auto _ : state) {
    for (const auto& m : masks) {
      for (const auto& c : mask::find_contours(m)) {
        benchmark::DoNotOptimize(
            mask::rasterize_polygon(c, m.width(), m.height()));
      }
    }
  }
}
BENCHMARK(BM_MaskFill)->Unit(benchmark::kMillisecond);

static void BM_FullAnchorGeneration(benchmark::State& state) {
  const auto levels = segnet::default_fpn_levels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        segnet::generate_full_anchors(640, 480, levels));
  }
}
BENCHMARK(BM_FullAnchorGeneration)->Unit(benchmark::kMillisecond);

static void BM_Nms(benchmark::State& state) {
  rt::Rng rng(3);
  std::vector<segnet::Proposal> props;
  for (int i = 0; i < 500; ++i) {
    segnet::Proposal p;
    const int x = static_cast<int>(rng.uniform_int(500));
    const int y = static_cast<int>(rng.uniform_int(350));
    p.box = {x, y, x + 90, y + 90};
    p.objectness = rng.uniform();
    props.push_back(p);
  }
  for (auto _ : state) {
    // nms() consumes its input, so each iteration needs a fresh copy —
    // but the 500-proposal vector copy must not pollute the measurement.
    state.PauseTiming();
    auto copy = props;
    state.ResumeTiming();
    benchmark::DoNotOptimize(segnet::nms(std::move(copy), 0.7, 300));
  }
}
BENCHMARK(BM_Nms)->Unit(benchmark::kMillisecond);

static void BM_WindowedMatch(benchmark::State& state) {
  const auto& frame = test_frame();
  feat::OrbExtractor orb;
  const auto feats = orb.extract(frame.intensity);
  std::vector<std::optional<geom::Vec2>> predictions;
  predictions.reserve(feats.size());
  for (const auto& f : feats) predictions.emplace_back(f.kp.pixel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        feat::match_windowed(feats, predictions, feats, {}));
  }
}
BENCHMARK(BM_WindowedMatch)->Unit(benchmark::kMillisecond);

static void BM_SceneRender(benchmark::State& state) {
  scene::SceneSimulator sim(scene::make_davis_scene(42, 10));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.render(i++ % 10));
  }
}
BENCHMARK(BM_SceneRender)->Unit(benchmark::kMillisecond);

static void BM_SceneRenderCrowd(benchmark::State& state) {
  // The crowded stress scene: twelve objects, most of them small on screen,
  // so short spans and texture-cell changes weigh more than in davis.
  scene::SceneSimulator sim(
      scene::make_stress_scene(scene::StressRegime::kCrowd, 42, 240));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.render(i++ % 240));
  }
}
BENCHMARK(BM_SceneRenderCrowd)->Unit(benchmark::kMillisecond);

// Like BENCHMARK_MAIN(), but defaulting to a JSON dump beside the
// console output (nightly CI uploads it as a tracked artifact). Any
// explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag only: a 15-char prefix test would also swallow
    // --benchmark_out_format=... and drop the default JSON dump.
    if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
        std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  static char default_out[] = "--benchmark_out=BENCH_micro_kernels.json";
  static char default_fmt[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(default_out);
    args.push_back(default_fmt);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
