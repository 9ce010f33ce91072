// Unit tests for the synthetic scene: meshes, motion scripts, camera paths,
// rendering consistency (intensity / instance ids / depth) and presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "guarded_buffer.hpp"
#include "runtime/cpu.hpp"
#include "runtime/rng.hpp"
#include "scene/bands.hpp"
#include "scene/kernels.hpp"
#include "scene/mesh.hpp"
#include "scene/presets.hpp"
#include "scene/scene.hpp"
#include "scene/texture.hpp"

using namespace edgeis;
using namespace edgeis::scene;

TEST(Mesh, BoxHasTwelveTriangles) {
  const Mesh m = make_box(1, 1, 1);
  EXPECT_EQ(m.triangles.size(), 12u);
  EXPECT_EQ(m.vertices.size(), 24u);
}

TEST(Mesh, CylinderClosed) {
  const Mesh m = make_cylinder(0.5, 2.0, 8);
  // 8 side quads (2 tris) + 16 cap triangles.
  EXPECT_EQ(m.triangles.size(), 32u);
}

TEST(Mesh, AppendOffsetsIndices) {
  Mesh a = make_box(1, 1, 1);
  const auto base_vertices = a.vertices.size();
  a.append(make_box(2, 2, 2));
  EXPECT_EQ(a.triangles.size(), 24u);
  // Second box's triangles must reference the appended vertex range.
  for (std::size_t i = 12; i < 24; ++i) {
    EXPECT_GE(a.triangles[i].a, base_vertices);
  }
}

// The mesh builders as they were before they reserved their sizes and
// shared each cylinder edge's cos and sin: the meshes must not move by a
// bit.
namespace reference_mesh {

void add_quad(Mesh& m, const geom::Vec3& p0, const geom::Vec3& p1,
              const geom::Vec3& p2, const geom::Vec3& p3) {
  const auto base = static_cast<std::uint32_t>(m.vertices.size());
  m.vertices.push_back(p0);
  m.vertices.push_back(p1);
  m.vertices.push_back(p2);
  m.vertices.push_back(p3);
  m.triangles.push_back({base, base + 1, base + 2});
  m.triangles.push_back({base, base + 2, base + 3});
}

void append(Mesh& m, const Mesh& other) {
  const auto base = static_cast<std::uint32_t>(m.vertices.size());
  m.vertices.insert(m.vertices.end(), other.vertices.begin(),
                    other.vertices.end());
  for (const auto& t : other.triangles) {
    m.triangles.push_back({t.a + base, t.b + base, t.c + base});
  }
}

Mesh make_box(double sx, double sy, double sz) {
  const double x = sx / 2, y = sy / 2, z = sz / 2;
  Mesh m;
  add_quad(m, {-x, -y, z}, {x, -y, z}, {x, y, z}, {-x, y, z});
  add_quad(m, {x, -y, -z}, {-x, -y, -z}, {-x, y, -z}, {x, y, -z});
  add_quad(m, {x, -y, z}, {x, -y, -z}, {x, y, -z}, {x, y, z});
  add_quad(m, {-x, -y, -z}, {-x, -y, z}, {-x, y, z}, {-x, y, -z});
  add_quad(m, {-x, y, z}, {x, y, z}, {x, y, -z}, {-x, y, -z});
  add_quad(m, {-x, -y, -z}, {x, -y, -z}, {x, -y, z}, {-x, -y, z});
  return m;
}

Mesh make_cylinder(double radius, double height, int segments) {
  Mesh m;
  const double h = height / 2;
  for (int i = 0; i < segments; ++i) {
    const double a0 = 2.0 * M_PI * i / segments;
    const double a1 = 2.0 * M_PI * (i + 1) / segments;
    const geom::Vec3 b0{radius * std::cos(a0), -h, radius * std::sin(a0)};
    const geom::Vec3 b1{radius * std::cos(a1), -h, radius * std::sin(a1)};
    const geom::Vec3 t0{b0.x, h, b0.z};
    const geom::Vec3 t1{b1.x, h, b1.z};
    add_quad(m, b0, b1, t1, t0);
    const auto base = static_cast<std::uint32_t>(m.vertices.size());
    m.vertices.push_back({0, h, 0});
    m.vertices.push_back(t0);
    m.vertices.push_back(t1);
    m.triangles.push_back({base, base + 1, base + 2});
    const auto base2 = static_cast<std::uint32_t>(m.vertices.size());
    m.vertices.push_back({0, -h, 0});
    m.vertices.push_back(b1);
    m.vertices.push_back(b0);
    m.triangles.push_back({base2, base2 + 1, base2 + 2});
  }
  return m;
}

Mesh make_car() {
  Mesh body = make_box(1.8, 0.55, 0.9);
  for (auto& v : body.vertices) v.y += 0.45;
  Mesh cabin = make_box(0.95, 0.42, 0.82);
  for (auto& v : cabin.vertices) {
    v.x -= 0.15;
    v.y += 0.93;
  }
  append(body, cabin);
  return body;
}

Mesh make_separator() {
  Mesh m = make_cylinder(0.5, 2.2, 10);
  for (auto& v : m.vertices) v = {v.y, -v.x, v.z};
  for (auto& v : m.vertices) v.y += 0.9;
  Mesh l1 = make_box(0.18, 0.9, 0.18);
  for (auto& v : l1.vertices) {
    v.x -= 0.7;
    v.y += 0.45;
  }
  Mesh l2 = make_box(0.18, 0.9, 0.18);
  for (auto& v : l2.vertices) {
    v.x += 0.7;
    v.y += 0.45;
  }
  append(m, l1);
  append(m, l2);
  return m;
}

}  // namespace reference_mesh

namespace {

// Bitwise; memcmp of an empty vector's null data() is undefined.
template <typename T>
bool same_elements(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_mesh(const Mesh& a, const Mesh& b) {
  return same_elements(a.vertices, b.vertices) &&
         same_elements(a.triangles, b.triangles);
}

}  // namespace

TEST(Mesh, BuildersMatchTheirPreviousFormBitwise) {
  for (const auto& size : {std::array<double, 3>{1, 1, 1},
                           {0.9, 0.9, 0.9},
                           {0.8, 1.7, 0.5},
                           {0.18, 0.9, 0.18},
                           {1e-3, 7.25, 1e6}}) {
    EXPECT_TRUE(same_mesh(make_box(size[0], size[1], size[2]),
                          reference_mesh::make_box(size[0], size[1], size[2])));
  }
  for (int segments = 0; segments <= 40; ++segments) {
    for (const auto& rh : {std::array<double, 2>{0.28, 1.7},
                           {0.22, 2.4},
                           {0.5, 2.2},
                           {3.3, 0.01}}) {
      ASSERT_TRUE(
          same_mesh(make_cylinder(rh[0], rh[1], segments),
                    reference_mesh::make_cylinder(rh[0], rh[1], segments)))
          << segments << " segments";
    }
  }
  EXPECT_TRUE(same_mesh(make_car(), reference_mesh::make_car()));
  EXPECT_TRUE(same_mesh(make_separator(), reference_mesh::make_separator()));
}

TEST(MotionScript, StaticBeforeStartTime) {
  MotionScript m;
  m.base_position = {1, 0, 2};
  m.velocity = {1, 0, 0};
  m.start_move_time = 5.0;
  const auto p0 = m.pose_at(3.0);
  EXPECT_NEAR(p0.t.x, 1.0, 1e-12);
  const auto p1 = m.pose_at(7.0);
  EXPECT_NEAR(p1.t.x, 3.0, 1e-12);
  EXPECT_TRUE(m.is_dynamic());
}

TEST(MotionScript, StaticObjectNotDynamic) {
  MotionScript m;
  m.base_position = {1, 0, 2};
  EXPECT_FALSE(m.is_dynamic());
  const auto p = m.pose_at(100.0);
  EXPECT_NEAR((p.t - m.base_position).norm(), 0.0, 1e-12);
}

TEST(CameraPath, OrbitLooksAtCenter) {
  CameraPath path;
  path.kind = CameraPathKind::kOrbit;
  path.orbit_radius = 5.0;
  path.height = 1.5;
  for (double t : {0.0, 1.0, 3.0}) {
    const geom::SE3 t_cw = path.pose_at(t);
    // The scene center should project near the optical axis: transform the
    // look-at target into the camera frame and check it is in front and
    // roughly centered.
    const geom::Vec3 target{0.0, 1.5 * 0.6, 0.0};
    const geom::Vec3 cam = t_cw * target;
    EXPECT_GT(cam.z, 0.0);
    EXPECT_LT(std::abs(cam.x / cam.z), 0.05);
  }
}

TEST(CameraPath, WalkAdvances) {
  CameraPath path;
  path.kind = CameraPathKind::kWalk;
  path.speed = 1.0;
  const geom::SE3 a = path.pose_at(0.0);
  const geom::SE3 b = path.pose_at(2.0);
  EXPECT_GT(a.center_distance_to(b), 1.5);
}

namespace {

SceneConfig small_scene(std::uint64_t seed = 5) {
  SceneConfig cfg = make_davis_scene(seed, 30);
  cfg.camera.width = 320;
  cfg.camera.height = 240;
  cfg.camera.cx = 160;
  cfg.camera.cy = 120;
  cfg.camera.fx = cfg.camera.fy = 260;
  return cfg;
}

}  // namespace

TEST(Renderer, DeterministicFrames) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim1(cfg), sim2(cfg);
  const auto a = sim1.render(7);
  const auto b = sim2.render(7);
  ASSERT_EQ(a.intensity.size(), b.intensity.size());
  for (int y = 0; y < a.intensity.height(); ++y) {
    for (int x = 0; x < a.intensity.width(); ++x) {
      ASSERT_EQ(a.intensity.at(x, y), b.intensity.at(x, y));
      ASSERT_EQ(a.instance_ids.at(x, y), b.instance_ids.at(x, y));
    }
  }
}

TEST(Renderer, InstanceIdsMatchDepthOrdering) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim(cfg);
  const auto frame = sim.render(0);
  // Wherever an instance id is set, depth must be finite (something was
  // drawn), and the pixel must have a plausible intensity.
  long long obj_pixels = 0;
  for (int y = 0; y < frame.instance_ids.height(); ++y) {
    for (int x = 0; x < frame.instance_ids.width(); ++x) {
      if (frame.instance_ids.at(x, y) > 0) {
        ++obj_pixels;
        EXPECT_LT(frame.depth.at(x, y), 100.0f);
      }
    }
  }
  EXPECT_GT(obj_pixels, 500);
}

TEST(Renderer, GroundTruthMasksDisjoint) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim(cfg);
  const auto frame = sim.render(3);
  const auto masks = sim.ground_truth_masks(frame);
  ASSERT_GE(masks.size(), 2u);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    for (std::size_t j = i + 1; j < masks.size(); ++j) {
      // Pixel-exact instance buffers: masks cannot overlap.
      long long overlap = 0;
      for (int y = 0; y < masks[i].height(); ++y) {
        for (int x = 0; x < masks[i].width(); ++x) {
          if (masks[i].get(x, y) && masks[j].get(x, y)) ++overlap;
        }
      }
      EXPECT_EQ(overlap, 0);
    }
  }
}

TEST(Renderer, CameraPoseMatchesConfigPath) {
  const SceneConfig cfg = small_scene();
  SceneSimulator sim(cfg);
  const auto frame = sim.render(12);
  const geom::SE3 expected = cfg.path.pose_at(12 / cfg.fps);
  EXPECT_NEAR(frame.true_t_cw.t.x, expected.t.x, 1e-12);
  EXPECT_NEAR(frame.true_t_cw.rotation_angle_to(expected), 0.0, 1e-12);
}

TEST(Presets, AllDatasetsConstruct) {
  for (const char* name : {"davis", "kitti", "xiph", "field"}) {
    const SceneConfig cfg = make_dataset_scene(name, 7, 60);
    EXPECT_EQ(cfg.name, name);
    EXPECT_FALSE(cfg.objects.empty());
    EXPECT_EQ(cfg.total_frames, 60);
    // Instance ids unique and positive.
    for (std::size_t i = 0; i < cfg.objects.size(); ++i) {
      EXPECT_GT(cfg.objects[i].instance_id, 0);
      for (std::size_t j = i + 1; j < cfg.objects.size(); ++j) {
        EXPECT_NE(cfg.objects[i].instance_id, cfg.objects[j].instance_id);
      }
    }
  }
  EXPECT_THROW(make_dataset_scene("nope", 1, 10), std::invalid_argument);
}

TEST(Presets, ComplexityLevelsScaleObjectCount) {
  const auto easy = make_complexity_scene(Complexity::kEasy, 3, 30);
  const auto medium = make_complexity_scene(Complexity::kMedium, 3, 30);
  const auto hard = make_complexity_scene(Complexity::kHard, 3, 30);
  EXPECT_LE(easy.objects.size(), 3u);
  EXPECT_GT(medium.objects.size(), easy.objects.size());
  bool any_moving = false;
  for (const auto& o : hard.objects) any_moving |= o.motion.is_dynamic();
  EXPECT_TRUE(any_moving);
  for (const auto& o : easy.objects) EXPECT_FALSE(o.motion.is_dynamic());
}

TEST(Presets, GaitSpeedsOrdered) {
  const auto walk = make_motion_scene(Gait::kWalk, 3, 30);
  const auto stride = make_motion_scene(Gait::kStride, 3, 30);
  const auto jog = make_motion_scene(Gait::kJog, 3, 30);
  EXPECT_LT(walk.path.speed, stride.path.speed);
  EXPECT_LT(stride.path.speed, jog.path.speed);
  EXPECT_LT(walk.path.bob_amplitude, jog.path.bob_amplitude);
}

TEST(ClassNames, AllDistinct) {
  EXPECT_STREQ(class_name(ObjectClass::kPerson), "person");
  EXPECT_STREQ(class_name(ObjectClass::kSeparator), "separator");
  EXPECT_STREQ(class_name(ObjectClass::kBackground), "background");
}

// ---------------------------------------------------------------------------
// Open-world stress suite (scene dynamics + presets).

namespace {

/// Stress preset shrunk to test resolution so per-frame renders stay cheap.
SceneConfig small_stress(StressRegime regime, std::uint64_t seed = 11,
                         int frames = 60) {
  SceneConfig cfg = make_stress_scene(regime, seed, frames);
  cfg.camera.width = 320;
  cfg.camera.height = 240;
  cfg.camera.cx = 160;
  cfg.camera.cy = 120;
  cfg.camera.fx = cfg.camera.fy = 260;
  return cfg;
}

long long id_pixels(const RenderedFrame& frame, int instance_id) {
  long long n = 0;
  for (int y = 0; y < frame.instance_ids.height(); ++y) {
    for (int x = 0; x < frame.instance_ids.width(); ++x) {
      if (frame.instance_ids.at(x, y) == instance_id) ++n;
    }
  }
  return n;
}

double mean_intensity(const RenderedFrame& frame) {
  double s = 0.0;
  for (int y = 0; y < frame.intensity.height(); ++y) {
    for (int x = 0; x < frame.intensity.width(); ++x) {
      s += frame.intensity.at(x, y);
    }
  }
  return s / (frame.intensity.width() * frame.intensity.height());
}

}  // namespace

TEST(StressPresets, NamesRoundTripAndUnknownThrows) {
  for (const StressRegime regime : kAllStressRegimes) {
    const char* name = stress_regime_name(regime);
    const SceneConfig cfg = make_stress_scene(name, 11, 60);
    EXPECT_EQ(cfg.name, name);
    EXPECT_FALSE(cfg.objects.empty());
    for (std::size_t i = 0; i < cfg.objects.size(); ++i) {
      EXPECT_GT(cfg.objects[i].instance_id, 0);
      for (std::size_t j = i + 1; j < cfg.objects.size(); ++j) {
        EXPECT_NE(cfg.objects[i].instance_id, cfg.objects[j].instance_id);
      }
    }
  }
  EXPECT_THROW(make_stress_scene("stress-nope", 1, 10),
               std::invalid_argument);
}

TEST(StressPresets, SameSeedRendersBitwiseIdentical) {
  for (const StressRegime regime : kAllStressRegimes) {
    const SceneConfig cfg = small_stress(regime);
    SceneSimulator sim1(cfg), sim2(cfg);
    for (int i : {0, 25, 50}) {  // spans entry/exit and shake windows
      const auto a = sim1.render(i);
      const auto b = sim2.render(i);
      ASSERT_EQ(a.intensity.size(), b.intensity.size());
      for (int y = 0; y < a.intensity.height(); ++y) {
        for (int x = 0; x < a.intensity.width(); ++x) {
          ASSERT_EQ(a.intensity.at(x, y), b.intensity.at(x, y))
              << stress_regime_name(regime) << " frame " << i;
          ASSERT_EQ(a.instance_ids.at(x, y), b.instance_ids.at(x, y));
        }
      }
    }
  }
}

TEST(StressPresets, EntryExitMatchesPresenceWindows) {
  const SceneConfig cfg = small_stress(StressRegime::kEntryExit);
  SceneSimulator sim(cfg);
  // The preset scripts at least one mid-sequence spawn and one despawn.
  int spawners = 0, despawners = 0;
  const double clip_s = cfg.total_frames / cfg.fps;
  for (const auto& obj : cfg.objects) {
    spawners += obj.spawn_time > 0.0 ? 1 : 0;
    despawners += obj.despawn_time < clip_s ? 1 : 0;
  }
  EXPECT_GE(spawners, 1);
  EXPECT_GE(despawners, 1);

  // Per frame: an absent object owns zero pixels and contributes no
  // ground-truth mask; each scripted object is actually seen while
  // present (entry/exit must be observable, not just scripted).
  std::vector<long long> seen(cfg.objects.size(), 0);
  for (int i = 0; i < cfg.total_frames; i += 5) {
    const auto frame = sim.render(i);
    const auto gts = sim.ground_truth_masks(frame);
    for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
      const auto& obj = cfg.objects[k];
      const long long px = id_pixels(frame, obj.instance_id);
      if (!obj.present_at(frame.timestamp)) {
        EXPECT_EQ(px, 0) << "object " << obj.instance_id << " rendered "
                         << "outside its presence window at frame " << i;
        for (const auto& m : gts) EXPECT_NE(m.instance_id, obj.instance_id);
      }
      seen[k] += px;
    }
    // Pose vectors stay index-aligned with config().objects regardless of
    // presence (the pipeline indexes them by object position).
    ASSERT_EQ(frame.true_t_wo.size(), cfg.objects.size());
  }
  for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
    EXPECT_GT(seen[k], 0) << "object " << cfg.objects[k].instance_id
                          << " never visible";
  }
}

TEST(StressPresets, OcclusionMasksConsistentWithGroundTruth) {
  const SceneConfig cfg = small_stress(StressRegime::kOcclusion);
  SceneSimulator sim(cfg);
  bool saw_occlusion = false;
  for (int i = 0; i < cfg.total_frames; i += 10) {
    const auto frame = sim.render(i);
    for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
      const auto& obj = cfg.objects[k];
      const auto visible =
          SceneSimulator::ground_truth_mask(frame, obj.instance_id, obj.cls);
      const auto full = sim.unoccluded_mask(i, static_cast<int>(k));
      // Visibility is exactly "full projection minus whatever something
      // nearer won in the z-buffer": visible must be a subset of full.
      for (int y = 0; y < visible.height(); ++y) {
        for (int x = 0; x < visible.width(); ++x) {
          if (visible.get(x, y)) {
            ASSERT_TRUE(full.get(x, y))
                << "visible pixel outside unoccluded projection, object "
                << obj.instance_id << " frame " << i;
          }
        }
      }
      if (full.pixel_count() > 200 &&
          visible.pixel_count() < full.pixel_count() / 2) {
        saw_occlusion = true;  // mostly hidden at some point in the sweep
      }
    }
  }
  EXPECT_TRUE(saw_occlusion)
      << "occluder sweep never hid a majority of any object";
}

TEST(StressPresets, LightingShiftDarkensRenderedFrames) {
  SceneConfig lit = small_stress(StressRegime::kLighting);
  ASSERT_FALSE(lit.lighting.empty());
  SceneConfig flat = lit;
  flat.lighting.shifts.clear();
  // Frame in the interior of the first (darkening) shift window.
  const auto& shift = lit.lighting.shifts.front();
  ASSERT_LT(shift.gain, 1.0);
  const int mid =
      static_cast<int>((shift.start_time + shift.end_time) / 2.0 * lit.fps);
  const auto dark = SceneSimulator(lit).render(mid);
  const auto bright = SceneSimulator(flat).render(mid);
  EXPECT_LT(mean_intensity(dark), mean_intensity(bright) * 0.75);
  // Outside every window the script is a no-op: identical pixels.
  const auto a = SceneSimulator(lit).render(0);
  const auto b = SceneSimulator(flat).render(0);
  for (int y = 0; y < a.intensity.height(); ++y) {
    for (int x = 0; x < a.intensity.width(); ++x) {
      ASSERT_EQ(a.intensity.at(x, y), b.intensity.at(x, y));
    }
  }
}

TEST(LightingScript, RampsAndComposes) {
  LightingScript script;
  script.shifts.push_back({/*start=*/2.0, /*end=*/6.0, /*ramp=*/1.0,
                           /*gain=*/0.5, /*bias=*/-10.0});
  EXPECT_EQ(script.at(0.0), (std::pair<double, double>{1.0, 0.0}));
  EXPECT_EQ(script.at(4.0), (std::pair<double, double>{0.5, -10.0}));
  const auto [gain_mid, bias_mid] = script.at(2.5);  // half-way up the ramp
  EXPECT_NEAR(gain_mid, 0.75, 1e-12);
  EXPECT_NEAR(bias_mid, -5.0, 1e-12);
}

TEST(ShakeScript, PerturbsOnlyInsideWindow) {
  const SceneConfig cfg = small_stress(StressRegime::kShake);
  const ShakeScript& shake = cfg.path.shake;
  ASSERT_TRUE(shake.active());
  CameraPath still = cfg.path;
  still.shake = ShakeScript{};  // inactive (end <= start)
  const double before = shake.start_time * 0.5;
  const double inside = (shake.start_time + shake.end_time) / 2.0;
  // Outside the window the shaken path equals the base path exactly.
  EXPECT_NEAR(cfg.path.pose_at(before).rotation_angle_to(
                  still.pose_at(before)),
              0.0, 1e-12);
  EXPECT_NEAR(
      (cfg.path.pose_at(before).t - still.pose_at(before).t).norm(), 0.0,
      1e-12);
  // Inside it the pose is rotated and translated, bounded by the scripted
  // amplitudes (two-sinusoid channels can exceed one amplitude, never 2x).
  const double angle =
      cfg.path.pose_at(inside).rotation_angle_to(still.pose_at(inside));
  EXPECT_GT(angle, 1e-4);
  EXPECT_LT(angle, 2.0 * std::sqrt(3.0) * shake.amplitude_rad + 1e-9);
  EXPECT_GT((cfg.path.pose_at(inside).t - still.pose_at(inside).t).norm(),
            1e-5);
  // Same t, same seed: the jitter is a pure function of time.
  EXPECT_NEAR(cfg.path.pose_at(inside).rotation_angle_to(
                  cfg.path.pose_at(inside)),
              0.0, 0.0);
}

TEST(StressPresets, CrowdIsCrowdedAndDynamic) {
  const SceneConfig cfg = small_stress(StressRegime::kCrowd);
  EXPECT_GE(cfg.objects.size(), 10u);
  int dynamic = 0, scripted_presence = 0;
  const double clip_s = cfg.total_frames / cfg.fps;
  for (const auto& o : cfg.objects) {
    dynamic += o.motion.is_dynamic() ? 1 : 0;
    scripted_presence +=
        (o.spawn_time > 0.0 || o.despawn_time < clip_s) ? 1 : 0;
  }
  EXPECT_GE(dynamic, 4);
  EXPECT_GE(scripted_presence, 2);
}

// ---------------------------------------------------------------------------
// The renderer's fast paths (memoized texture cells, two-phase sensor
// noise, row bands on the worker pool) against the straightforward
// renderer they replace: one pass over the frame, a fresh floor + hash3
// per written pixel and one rng.normal per pixel. Both must give the same
// bytes, at every band count.

namespace reference {

std::uint8_t texture_value(const geom::Vec3& p_obj, std::uint64_t seed,
                           double scale) {
  const auto cx = static_cast<std::int64_t>(std::floor(p_obj.x * scale));
  const auto cy = static_cast<std::int64_t>(std::floor(p_obj.y * scale));
  const auto cz = static_cast<std::int64_t>(std::floor(p_obj.z * scale));
  const double coarse = hash3(cx, cy, cz, seed);
  const double f = 3.1;  // non-commensurate with the coarse lattice
  const auto fx = static_cast<std::int64_t>(std::floor(p_obj.x * scale * f));
  const auto fy = static_cast<std::int64_t>(std::floor(p_obj.y * scale * f));
  const auto fz = static_cast<std::int64_t>(std::floor(p_obj.z * scale * f));
  const double fine = hash3(fx, fy, fz, seed ^ 0xf1e5ULL);
  const double v = 45.0 + 170.0 * coarse + 16.0 * (fine - 0.5);
  return static_cast<std::uint8_t>(std::clamp(v, 15.0, 240.0));
}

struct ClipVertex {
  geom::Vec3 cam;  // camera-space position
  geom::Vec3 obj;  // object-space position (texture coordinate)
};

// Clip a triangle against the near plane z = near. Emits 0, 1 or 2
// triangles (Sutherland–Hodgman on one plane).
int clip_near(const ClipVertex in[3], double near_z, ClipVertex out[4]) {
  int n = 0;
  for (int i = 0; i < 3; ++i) {
    const ClipVertex& a = in[i];
    const ClipVertex& b = in[(i + 1) % 3];
    const bool ain = a.cam.z >= near_z;
    const bool bin = b.cam.z >= near_z;
    if (ain) out[n++] = a;
    if (ain != bin) {
      const double t = (near_z - a.cam.z) / (b.cam.z - a.cam.z);
      ClipVertex v;
      v.cam = a.cam + (b.cam - a.cam) * t;
      v.obj = a.obj + (b.obj - a.obj) * t;
      out[n++] = v;
    }
  }
  return n;  // polygon vertex count (0..4)
}

constexpr double kNearZ = 0.05;

void rasterize_mesh(const geom::PinholeCamera& cam, const Mesh& mesh,
                    const geom::SE3& t_co, std::uint16_t instance_id,
                    std::uint64_t tex_seed, double tex_scale,
                    img::GrayImage& intensity, img::IdImage& instance_ids,
                    img::DepthImage& depth) {
  std::vector<geom::Vec3> cam_pos(mesh.vertices.size());
  for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
    cam_pos[i] = t_co * mesh.vertices[i];
  }

  for (const auto& tri : mesh.triangles) {
    ClipVertex in[3] = {{cam_pos[tri.a], mesh.vertices[tri.a]},
                        {cam_pos[tri.b], mesh.vertices[tri.b]},
                        {cam_pos[tri.c], mesh.vertices[tri.c]}};
    ClipVertex poly[4];
    const int n = clip_near(in, kNearZ, poly);
    for (int k = 2; k < n; ++k) {
      const ClipVertex* v[3] = {&poly[0], &poly[k - 1], &poly[k]};
      // Project.
      geom::Vec2 px[3];
      double inv_z[3];
      for (int i = 0; i < 3; ++i) {
        const auto p = cam.project(v[i]->cam, kNearZ * 0.5);
        if (!p) goto next_subtri;
        px[i] = *p;
        inv_z[i] = 1.0 / v[i]->cam.z;
      }
      {
        // Bounding box in pixels.
        const int x0 = std::max(
            0, static_cast<int>(std::floor(
                   std::min({px[0].x, px[1].x, px[2].x}))));
        const int x1 = std::min(
            cam.width - 1, static_cast<int>(std::ceil(
                               std::max({px[0].x, px[1].x, px[2].x}))));
        const int y0 = std::max(
            0, static_cast<int>(std::floor(
                   std::min({px[0].y, px[1].y, px[2].y}))));
        const int y1 = std::min(
            cam.height - 1, static_cast<int>(std::ceil(
                                std::max({px[0].y, px[1].y, px[2].y}))));
        const double area = (px[1].x - px[0].x) * (px[2].y - px[0].y) -
                            (px[1].y - px[0].y) * (px[2].x - px[0].x);
        if (std::abs(area) < 1e-9) continue;
        const double inv_area = 1.0 / area;

        for (int y = y0; y <= y1; ++y) {
          for (int x = x0; x <= x1; ++x) {
            const double fx = x + 0.5, fy = y + 0.5;
            // Barycentric via edge functions (sign-consistent with area).
            double w0 = ((px[1].x - fx) * (px[2].y - fy) -
                         (px[1].y - fy) * (px[2].x - fx)) * inv_area;
            double w1 = ((px[2].x - fx) * (px[0].y - fy) -
                         (px[2].y - fy) * (px[0].x - fx)) * inv_area;
            double w2 = 1.0 - w0 - w1;
            if (w0 < 0 || w1 < 0 || w2 < 0) continue;
            // Perspective-correct interpolation.
            const double iz =
                w0 * inv_z[0] + w1 * inv_z[1] + w2 * inv_z[2];
            const double z = 1.0 / iz;
            if (z >= depth.at(x, y)) continue;
            const geom::Vec3 obj =
                (v[0]->obj * (w0 * inv_z[0]) + v[1]->obj * (w1 * inv_z[1]) +
                 v[2]->obj * (w2 * inv_z[2])) * z;
            depth.at(x, y) = static_cast<float>(z);
            instance_ids.at(x, y) = instance_id;
            intensity.at(x, y) = texture_value(obj, tex_seed, tex_scale);
          }
        }
      }
    next_subtri:;
    }
  }
}

RenderedFrame render(const SceneConfig& cfg, int frame_index) {
  const auto& cam = cfg.camera;
  const Mesh room = make_room(cfg.room_size, cfg.room_height, cfg.room_size);
  RenderedFrame frame;
  frame.index = frame_index;
  frame.timestamp = frame_index / cfg.fps;
  frame.intensity = img::GrayImage(cam.width, cam.height, 0);
  frame.instance_ids = img::IdImage(cam.width, cam.height, 0);
  frame.depth = img::DepthImage(cam.width, cam.height, 1e30f);
  frame.true_t_cw = cfg.path.pose_at(frame.timestamp);

  // Background room.
  rasterize_mesh(cam, room, frame.true_t_cw, 0, cfg.noise_seed ^ 0x400d, 3.0,
                 frame.intensity, frame.instance_ids, frame.depth);

  // Objects. Poses are recorded for every configured object (the vector
  // stays index-aligned with config().objects); only objects whose
  // presence window covers the frame are drawn.
  frame.true_t_wo.reserve(cfg.objects.size());
  for (const auto& obj : cfg.objects) {
    const geom::SE3 t_wo = obj.motion.pose_at(frame.timestamp);
    frame.true_t_wo.push_back(t_wo);
    if (!obj.present_at(frame.timestamp)) continue;
    rasterize_mesh(cam, obj.mesh, frame.true_t_cw * t_wo,
                   static_cast<std::uint16_t>(obj.instance_id),
                   obj.texture_seed, obj.texture_scale, frame.intensity,
                   frame.instance_ids, frame.depth);
  }

  // Scripted global lighting (exposure shifts, flashes). Applied before
  // sensor noise, as real illumination would be.
  if (!cfg.lighting.empty()) {
    const auto [gain, bias] = cfg.lighting.at(frame.timestamp);
    if (gain != 1.0 || bias != 0.0) {
      for (int y = 0; y < cam.height; ++y) {
        auto* row = frame.intensity.row(y);
        for (int x = 0; x < cam.width; ++x) {
          const double v = gain * row[x] + bias;
          row[x] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
        }
      }
    }
  }

  // Sensor noise (deterministic per frame).
  if (cfg.pixel_noise_sigma > 0.0) {
    rt::Rng rng(cfg.noise_seed * 0x51ed2701ULL +
                static_cast<std::uint64_t>(frame_index));
    for (int y = 0; y < cam.height; ++y) {
      auto* row = frame.intensity.row(y);
      for (int x = 0; x < cam.width; ++x) {
        const double v = row[x] + rng.normal(0.0, cfg.pixel_noise_sigma);
        row[x] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    }
  }
  return frame;
}

img::IdImage unoccluded_ids(const SceneConfig& cfg, int frame_index,
                            int object_index) {
  const auto& cam = cfg.camera;
  const auto& obj = cfg.objects.at(static_cast<std::size_t>(object_index));
  img::GrayImage intensity(cam.width, cam.height, 0);
  img::IdImage ids(cam.width, cam.height, 0);
  img::DepthImage depth(cam.width, cam.height, 1e30f);
  const double t = frame_index / cfg.fps;
  if (obj.present_at(t)) {
    const geom::SE3 t_cw = cfg.path.pose_at(t);
    rasterize_mesh(cam, obj.mesh, t_cw * obj.motion.pose_at(t),
                   static_cast<std::uint16_t>(obj.instance_id),
                   obj.texture_seed, obj.texture_scale, intensity, ids,
                   depth);
  }
  return ids;
}

}  // namespace reference

namespace {

template <typename T>
bool same_bytes(const img::Image<T>& a, const img::Image<T>& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Band counts the renderer's output must not depend on: one band, even
// and odd splits, and more bands than a 3-row frame has rows.
constexpr int kBandCounts[] = {1, 2, 3, 4, 7};

void expect_same_frame(const RenderedFrame& got, const RenderedFrame& ref,
                       const SceneConfig& cfg, int bands) {
  EXPECT_TRUE(same_bytes(got.intensity, ref.intensity))
      << cfg.name << " seed " << cfg.noise_seed << " frame " << ref.index
      << " bands " << bands;
  EXPECT_TRUE(same_bytes(got.instance_ids, ref.instance_ids))
      << cfg.name << " seed " << cfg.noise_seed << " frame " << ref.index
      << " bands " << bands;
  EXPECT_TRUE(same_bytes(got.depth, ref.depth))
      << cfg.name << " seed " << cfg.noise_seed << " frame " << ref.index
      << " bands " << bands;
}

void expect_matches_reference(const SceneConfig& cfg, int frame_index) {
  const auto ref = reference::render(cfg, frame_index);
  expect_same_frame(SceneSimulator(cfg).render(frame_index), ref, cfg, 0);
  const Mesh room = make_room(cfg.room_size, cfg.room_height, cfg.room_size);
  for (const int bands : kBandCounts) {
    expect_same_frame(bands::render(cfg, room, frame_index, bands), ref, cfg,
                      bands);
  }
}

std::vector<SceneConfig> every_preset(std::uint64_t seed) {
  std::vector<SceneConfig> out;
  for (const char* name : {"davis", "kitti", "xiph", "field"}) {
    out.push_back(make_dataset_scene(name, seed, 90));
  }
  for (const StressRegime regime : kAllStressRegimes) {
    out.push_back(make_stress_scene(regime, seed, 90));
  }
  return out;
}

}  // namespace

TEST(RendererEquivalence, EveryPresetMatchesReferenceRenderer) {
  for (const std::uint64_t seed : {3ULL, 42ULL}) {
    for (const SceneConfig& cfg : every_preset(seed)) {
      for (const int frame : {0, 37, 89}) {
        expect_matches_reference(cfg, frame);
      }
    }
  }
}

TEST(RendererEquivalence, UnoccludedMaskMatchesReference) {
  for (const StressRegime regime : kAllStressRegimes) {
    const SceneConfig cfg = make_stress_scene(regime, 11, 90);
    const SceneSimulator sim(cfg);
    for (const int frame : {10, 60}) {
      for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
        const int index = static_cast<int>(k);
        const auto id = static_cast<std::uint16_t>(cfg.objects[k].instance_id);
        const auto fast = sim.unoccluded_mask(frame, index);
        const auto ids = reference::unoccluded_ids(cfg, frame, index);
        for (const int bands : kBandCounts) {
          EXPECT_TRUE(same_bytes(
              bands::unoccluded_ids(cfg, frame, index, bands), ids))
              << cfg.name << " object " << id << " frame " << frame
              << " bands " << bands;
        }
        const auto ref = mask::mask_from_id_image(ids, id);
        ASSERT_EQ(fast.pixel_count(), ref.pixel_count())
            << cfg.name << " object " << id << " frame " << frame;
        EXPECT_EQ(fast.class_id, static_cast<int>(cfg.objects[k].cls));
        for (int y = 0; y < cfg.camera.height; ++y) {
          for (int x = 0; x < cfg.camera.width; ++x) {
            ASSERT_EQ(fast.get(x, y), ref.get(x, y))
                << cfg.name << " object " << id << " at " << x << "," << y;
          }
        }
      }
    }
  }
}

TEST(RendererEquivalence, OddPixelCountAndNoiselessFrames) {
  // A 5x3 sensor has an odd pixel count: the last pixel takes a fresh
  // pair's first normal and its spare goes unused. Four and seven bands
  // leave some bands without rows.
  SceneConfig tiny = make_davis_scene(9, 30);
  tiny.camera.width = 5;
  tiny.camera.height = 3;
  tiny.camera.cx = 2.5;
  tiny.camera.cy = 1.5;
  tiny.camera.fx = tiny.camera.fy = 4.0;
  for (const int frame : {0, 11, 29}) expect_matches_reference(tiny, frame);

  // Several noise blocks plus an odd remainder. The band edges (pixels 641
  // and 1282) fall inside noise blocks, and the one at odd pixel 641 splits
  // a pair between two bands.
  SceneConfig odd = make_kitti_scene(9, 30);
  odd.camera.width = 641;
  odd.camera.height = 3;
  expect_matches_reference(odd, 4);

  SceneConfig quiet = make_field_scene(9, 30);
  quiet.pixel_noise_sigma = 0.0;
  expect_matches_reference(quiet, 12);
}

namespace {

// Triangles chosen to stress the rasterizer's per-row spans: near-plane
// clipping that projects vertices tens of thousands of pixels out,
// slivers, near-horizontal and near-vertical edges, level edges, and
// triangles partly or wholly off the frame. Vertices are placed in camera
// space (pixel, depth) and carried to the world through the frame-0 pose.
// One object per triangle, drawn in both windings.
SceneConfig adversarial_scene() {
  SceneConfig cfg = make_davis_scene(13, 30);
  cfg.objects.clear();
  const geom::PinholeCamera& cam = cfg.camera;
  const geom::SE3 t_wc = cfg.path.pose_at(0.0).inverse();
  const auto at = [&](double u, double v, double z) {
    return t_wc * (cam.unproject({u, v}) * z);
  };
  const auto behind = [&](double x, double y, double z) {
    return t_wc * geom::Vec3{x, y, z};  // camera-space point, any depth
  };
  std::vector<std::array<geom::Vec3, 3>> tris = {
      // One vertex behind the camera: the clipped vertices sit on the
      // near plane and project far outside the frame.
      {behind(0.4, 0.2, -2.0), at(300, 200, 3.0), at(350, 260, 4.0)},
      {behind(-3.0, 1.0, -0.5), behind(2.0, -1.5, -0.7), at(320, 240, 2.0)},
      {behind(3.0, 2.0, 0.0501), behind(-2.5, 1.0, 0.06), at(100, 400, 5.0)},
      {behind(0.01, 0.01, 0.0500001), at(620, 30, 1.0), at(20, 450, 1.0)},
      // Slivers, down to a hair wider than the area cut-off.
      {at(10, 10, 5), at(630, 470, 5), at(630.3, 470.2, 5)},
      {at(5, 300, 4), at(635, 301, 4), at(320, 300.5 + 1e-6, 4)},
      {at(100, 5, 3), at(101, 475, 3), at(100.5, 240, 3.0001)},
      // Near-horizontal, level and near-vertical edges.
      {at(5, 100, 4), at(635, 100.0001, 4), at(320, 300, 4)},
      {at(5, 150, 4), at(635, 150, 4), at(320, 20, 4)},
      {at(200, 5, 4), at(200.00001, 470, 4), at(400, 200, 4)},
      {at(450, 5, 4), at(450, 470, 4), at(300, 240, 4)},
      {at(-4000, 200, 6), at(5000, 200.25, 6), at(320, 201, 6)},
      // Wholly off the frame, and straddling each border.
      {at(-500, -300, 4), at(-200, -100, 4), at(-350, -50, 4)},
      {at(700, 100, 4), at(900, 200, 4), at(800, 500, 4)},
      {at(-50, 200, 4), at(40, 180, 4), at(30, 260, 4)},
      {at(300, -40, 4), at(360, 20, 4), at(250, 10, 4)},
      {at(630, 470, 4), at(700, 400, 4), at(660, 530, 4)},
  };
  // Random triangles across a range well past the frame, some crossing
  // the near plane.
  rt::Rng rng(2026);
  for (int i = 0; i < 120; ++i) {
    std::array<geom::Vec3, 3> t;
    for (auto& p : t) {
      const double z = rng.uniform(-1.0, 12.0);
      p = z > 0.2 ? at(rng.uniform(-900, 1500), rng.uniform(-700, 1200), z)
                  : behind(rng.uniform(-3, 3), rng.uniform(-3, 3), z);
    }
    tris.push_back(t);
  }
  for (std::size_t i = 0; i < tris.size(); ++i) {
    SceneObject obj;
    obj.instance_id = static_cast<int>(i) + 1;
    obj.texture_seed = 100 + i;
    for (const auto& p : tris[i]) obj.mesh.vertices.push_back(p);
    obj.mesh.triangles.push_back({0, 1, 2});
    obj.mesh.triangles.push_back({0, 2, 1});  // both windings
    cfg.objects.push_back(obj);
  }
  return cfg;
}

}  // namespace

TEST(RendererEquivalence, AdversarialTrianglesMatchReferenceRenderer) {
  SceneConfig cfg = adversarial_scene();
  expect_matches_reference(cfg, 0);
  cfg.pixel_noise_sigma = 0.0;
  expect_matches_reference(cfg, 0);

  // One object at a time, so no triangle hides behind another.
  for (std::size_t k = 0; k < cfg.objects.size(); ++k) {
    const int index = static_cast<int>(k);
    const auto id = static_cast<std::uint16_t>(cfg.objects[k].instance_id);
    const auto fast = SceneSimulator(cfg).unoccluded_mask(0, index);
    const auto ref = mask::mask_from_id_image(
        reference::unoccluded_ids(cfg, 0, index), id);
    ASSERT_EQ(fast.pixel_count(), ref.pixel_count()) << "triangle " << k;
    ASSERT_EQ(fast.bounding_box(), ref.bounding_box()) << "triangle " << k;
    const auto box = ref.bounding_box();
    if (!box) continue;
    for (int y = box->y0; y < box->y1; ++y) {
      for (int x = box->x0; x < box->x1; ++x) {
        ASSERT_EQ(fast.get(x, y), ref.get(x, y))
            << "triangle " << k << " at " << x << "," << y;
      }
    }
  }
}

// The sampler against a fresh floor + hash3 on positions chosen to sit on
// the memo's edges: exact lattice values of either octave, negative
// coordinates, signed zeros, and a cell change after a long run of hits.
TEST(TextureSampler, EdgePositionsMatchFreshLookup) {
  const std::uint64_t seed = 0x7e57;
  const double scale = 3.0;
  std::vector<geom::Vec3> points;
  // Positions whose scaled value lands on, or a few ulps either side of,
  // an integer of the coarse (v * scale) or the fine (v * scale * 3.1)
  // lattice.
  auto near_lattice = [&](double v) {
    double lo = v, hi = v;
    for (int ulp = 0; ulp < 6; ++ulp) {
      for (const double w : {lo, hi}) {
        points.push_back({w, 0.25, -0.25});
        points.push_back({0.1, w, 0.1});
        points.push_back({-0.1, 0.2, w});
        points.push_back({w, w, w});
      }
      lo = std::nextafter(lo, -1e9);
      hi = std::nextafter(hi, 1e9);
    }
  };
  int on_coarse = 0, on_fine = 0;
  for (int k = -9; k <= 9; ++k) {
    near_lattice(k / scale);
    near_lattice(k / scale / 3.1);
  }
  for (const auto& q : points) {
    on_coarse += q.x * scale == std::floor(q.x * scale) ? 1 : 0;
    on_fine += q.x * scale * 3.1 == std::floor(q.x * scale * 3.1) ? 1 : 0;
  }
  EXPECT_GT(on_coarse, 20);  // the sweep really hits exact lattice values
  EXPECT_GT(on_fine, 20);
  // Signed zeros, alone and next to tiny negatives.
  for (const double z : {0.0, -0.0, -1e-300, 1e-300, -0.0}) {
    points.push_back({z, -0.0, z});
    points.push_back({-0.0, z, 0.0});
  }
  // A long run inside one cell of both octaves, then a step out.
  for (int i = 0; i < 1000; ++i) {
    points.push_back({0.01 + i * 1e-6, 0.02, 0.03});
  }
  points.push_back({0.01 + 1000 * 1e-6, 0.02, 0.03});
  points.push_back({1.0 / scale, 0.02, 0.03});
  points.push_back({-1.0 / scale, 0.02, 0.03});
  // A random walk through negative and positive space with small steps.
  rt::Rng rng(5);
  geom::Vec3 p{-2.0, -1.0, 0.5};
  for (int i = 0; i < 20000; ++i) {
    p.x += rng.uniform(-0.02, 0.021);
    p.y += rng.uniform(-0.02, 0.02);
    p.z += rng.uniform(-0.021, 0.02);
    points.push_back(p);
  }

  // A fresh sampler's first lookup, including the origin cell of both
  // octaves: it has no cached cell to hit.
  const geom::Vec3 firsts[] = {{0.01, 0.02, 0.03}, {-0.0, 0.0, -0.0},
                               {-0.01, -0.02, -0.03}, {2.5, -7.25, 0.125}};
  for (const geom::Vec3& first : firsts) {
    TextureSampler fresh(seed, scale);
    EXPECT_EQ(fresh(first), reference::texture_value(first, seed, scale));
  }

  TextureSampler sampler(seed, scale);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(sampler(points[i]),
              reference::texture_value(points[i], seed, scale))
        << "point " << i;
  }
}

// ---------------------------------------------------------------------------
// The renderer's per-sample kernels (scene/kernels.hpp): the AVX2 forms
// against the scalar forms on one machine, byte for byte. Whole-frame
// tests above only ever run the form this CPU picks. Every buffer ends
// flush against an inaccessible page, so a load or store past the last
// pixel faults.

namespace {

// The three frame buffers of one kernel run.
struct GuardedFrame {
  GuardedFrame(int width, int height)
      : w(width),
        h(height),
        intensity(static_cast<std::size_t>(width * height)),
        ids(static_cast<std::size_t>(width * height)),
        depth(static_cast<std::size_t>(width * height)) {}

  kernels::RasterRow row(int y, std::uint16_t id) {
    const auto at = static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    return {y + 0.5, intensity.data() + at, ids.data() + at,
            depth.data() + at, id};
  }

  int w, h;
  testutil::GuardedBuffer<std::uint8_t> intensity;
  testutil::GuardedBuffer<std::uint16_t> ids;
  testutil::GuardedBuffer<float> depth;
};

// Runs the scalar and the AVX2 row kernel over the same rows of two frames
// that start out equal: random bytes and ids, and a depth mix of empty
// (1e30), random, and exactly 4 (the depth of the z-fighting triangles
// below, so the `z >= depth` test is decided by rounding).
class RowKernelPair {
 public:
  RowKernelPair(int w, int h, std::uint64_t seed) : scalar_(w, h), avx2_(w, h) {
    rt::Rng rng(seed);
    for (std::size_t i = 0; i < scalar_.intensity.size(); ++i) {
      const auto v = static_cast<std::uint8_t>(rng.uniform_int(256));
      const auto id = static_cast<std::uint16_t>(rng.uniform_int(4));
      const double pick = rng.uniform();
      const float d = pick < 0.4   ? 1e30f
                      : pick < 0.7 ? 4.0f
                                   : static_cast<float>(rng.uniform(0.5, 20));
      for (GuardedFrame* f : {&scalar_, &avx2_}) {
        f->intensity[i] = v;
        f->ids[i] = id;
        f->depth[i] = d;
      }
    }
  }

  void fill(const kernels::RasterTriangle& t, int y, int first, int last,
            std::uint16_t id) {
    TextureSampler a(0x5eed + id, 3.0), b(0x5eed + id, 3.0);
    kernels::raster_row_scalar(t, scalar_.row(y, id), first, last, a);
    kernels::raster_row_avx2(t, avx2_.row(y, id), first, last, b);
  }

  [[nodiscard]] bool same() const {
    const std::size_t n = scalar_.intensity.size();
    return std::memcmp(scalar_.intensity.data(), avx2_.intensity.data(),
                       n) == 0 &&
           std::memcmp(scalar_.ids.data(), avx2_.ids.data(), 2 * n) == 0 &&
           std::memcmp(scalar_.depth.data(), avx2_.depth.data(), 4 * n) == 0;
  }

  // Pixels of the scalar frame whose id is `id`.
  [[nodiscard]] int count(std::uint16_t id) const {
    int n = 0;
    for (std::size_t i = 0; i < scalar_.ids.size(); ++i) {
      n += scalar_.ids[i] == id ? 1 : 0;
    }
    return n;
  }

 private:
  GuardedFrame scalar_;
  GuardedFrame avx2_;
};

// A triangle as the renderer sets it up, with its clipped pixel box.
struct SetUpTriangle {
  kernels::RasterTriangle t;
  int x0, x1, y0, y1;
};

// The renderer's set-up (near clip, project, area cut-off, box) for
// every triangle of every object of `cfg` at frame 0.
std::vector<SetUpTriangle> set_up_triangles(const SceneConfig& cfg) {
  const geom::PinholeCamera& cam = cfg.camera;
  const geom::SE3 t_cw = cfg.path.pose_at(0.0);
  std::vector<SetUpTriangle> out;
  for (const auto& obj : cfg.objects) {
    const geom::SE3 t_co = t_cw * obj.motion.pose_at(0.0);
    for (const auto& tri : obj.mesh.triangles) {
      const geom::Vec3 v[3] = {obj.mesh.vertices[tri.a],
                               obj.mesh.vertices[tri.b],
                               obj.mesh.vertices[tri.c]};
      const reference::ClipVertex in[3] = {
          {t_co * v[0], v[0]}, {t_co * v[1], v[1]}, {t_co * v[2], v[2]}};
      reference::ClipVertex poly[4];
      const int n = reference::clip_near(in, reference::kNearZ, poly);
      for (int k = 2; k < n; ++k) {
        const reference::ClipVertex* c[3] = {&poly[0], &poly[k - 1],
                                             &poly[k]};
        SetUpTriangle s{};
        bool projected = true;
        for (int i = 0; i < 3; ++i) {
          const auto p = cam.project(c[i]->cam, reference::kNearZ * 0.5);
          if (!p) projected = false;
          if (!p) break;
          s.t.px[i] = *p;
          s.t.inv_z[i] = 1.0 / c[i]->cam.z;
          s.t.obj[i] = c[i]->obj;
        }
        if (!projected) continue;
        const geom::Vec2* px = s.t.px;
        const double area = (px[1].x - px[0].x) * (px[2].y - px[0].y) -
                            (px[1].y - px[0].y) * (px[2].x - px[0].x);
        if (std::abs(area) < 1e-9) continue;
        s.t.inv_area = 1.0 / area;
        s.x0 = std::max(0, static_cast<int>(std::floor(
                               std::min({px[0].x, px[1].x, px[2].x}))));
        s.x1 = std::min(cam.width - 1,
                        static_cast<int>(std::ceil(
                            std::max({px[0].x, px[1].x, px[2].x}))));
        s.y0 = std::max(0, static_cast<int>(std::floor(
                               std::min({px[0].y, px[1].y, px[2].y}))));
        s.y1 = std::min(cam.height - 1,
                        static_cast<int>(std::ceil(
                            std::max({px[0].y, px[1].y, px[2].y}))));
        out.push_back(s);
      }
    }
  }
  return out;
}

// A fronto-parallel triangle at depth exactly 4 whose vertices all carry
// the object point (1, -1, 0.5): 1 and -1 sit on the coarse texture
// lattice (scale 3). Mathematically z = 4 and obj = (1, -1, 0.5) at every
// pixel, so the depth test against a stored 4 and the texture cell are
// decided by the rounding of the interpolation sums.
kernels::RasterTriangle z_fighting(geom::Vec2 a, geom::Vec2 b, geom::Vec2 c) {
  kernels::RasterTriangle t;
  t.px[0] = a;
  t.px[1] = b;
  t.px[2] = c;
  for (int i = 0; i < 3; ++i) {
    t.inv_z[i] = 0.25;
    t.obj[i] = {1.0, -1.0, 0.5};
  }
  const double area =
      (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
  t.inv_area = 1.0 / area;
  return t;
}

}  // namespace

TEST(RasterKernels, AdversarialTrianglesScalarAndAvx2Agree) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const SceneConfig cfg = adversarial_scene();
  const auto tris = set_up_triangles(cfg);
  ASSERT_GT(tris.size(), 200u);
  RowKernelPair pair(cfg.camera.width, cfg.camera.height, 21);
  for (std::size_t i = 0; i < tris.size(); ++i) {
    const SetUpTriangle& s = tris[i];
    // Every row of the box, whole: a superset of the renderer's spans.
    for (int y = s.y0; y <= s.y1; ++y) {
      pair.fill(s.t, y, s.x0, s.x1, static_cast<std::uint16_t>(i % 60 + 1));
    }
    ASSERT_TRUE(pair.same()) << "triangle " << i;
  }
}

TEST(RasterKernels, ShortSpansAndTheLastPixelOfTheFrame) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const int w = 61, h = 9;
  RowKernelPair pair(w, h, 22);
  // A triangle over the whole frame, at varying depth.
  kernels::RasterTriangle big = z_fighting({-50, -50}, {200, -40}, {-40, 300});
  big.inv_z[1] = 0.1;
  big.obj[2] = {3.7, 0.2, -1.1};
  std::uint16_t id = 10;
  for (int len = 1; len <= 7; ++len) {
    // Every start lane, the row's first pixel, and spans ending at x = w − 1.
    for (const int first : {0, 1, 2, 3, 4, 5, 13, w - len}) {
      for (int y = 0; y < h; ++y) pair.fill(big, y, first, first + len - 1, id);
      ASSERT_TRUE(pair.same()) << "length " << len << " first " << first;
      ++id;
    }
  }
  // The last row, ending at the last pixel of every buffer.
  for (int first = w - 9; first < w; ++first) {
    pair.fill(big, h - 1, first, w - 1, ++id);
    ASSERT_TRUE(pair.same()) << "last row from " << first;
  }
}

TEST(RasterKernels, ZFightingIsDecidedTheSameWay) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const int w = 160, h = 120;
  RowKernelPair pair(w, h, 23);
  // Vertices on pixel centres with small integer slopes put many pixel
  // centres exactly on an edge, where the weight is 0 up to rounding.
  const kernels::RasterTriangle tris[] = {
      z_fighting({2.5, 2.5}, {150.5, 2.5}, {2.5, 110.5}),
      z_fighting({150.5, 2.5}, {150.5, 110.5}, {2.5, 110.5}),
      z_fighting({10.5, 5.5}, {90.5, 45.5}, {20.5, 115.5}),
      z_fighting({155.5, 117.5}, {3.5, 60.5}, {130.5, 1.5}),
      z_fighting({0.3, 0.7}, {159.9, 30.1}, {40.2, 119.6}),
  };
  std::uint16_t id = 100;
  for (const auto& t : tris) {
    ++id;
    for (int y = 0; y < h; ++y) pair.fill(t, y, 0, w - 1, id);
    ASSERT_TRUE(pair.same()) << "triangle " << id;
    EXPECT_GT(pair.count(id), 0);
  }
}

TEST(RasterKernels, NanWeightsPassAndNanDepthWrites) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const int w = 37, h = 11;
  RowKernelPair pair(w, h, 24);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Every weight NaN: every pixel passes and writes a NaN depth.
  kernels::RasterTriangle all = z_fighting({1, 1}, {30, 2}, {5, 10});
  all.inv_area = nan;
  // One NaN vertex coordinate: w0 stays finite, w1 and w2 are NaN, so
  // exactly the pixels with w0 >= 0 write.
  kernels::RasterTriangle one = z_fighting({1, 1}, {30, 2}, {5, 10});
  one.px[0].x = nan;
  for (int y = 0; y < h; ++y) pair.fill(all, y, 0, w - 1, 7);
  ASSERT_TRUE(pair.same());
  EXPECT_EQ(pair.count(7), w * h);
  for (int y = 0; y < h; ++y) pair.fill(one, y, 3, w - 2, 8);
  ASSERT_TRUE(pair.same());
  EXPECT_GT(pair.count(8), 0);
  EXPECT_LT(pair.count(8), w * h);
}

TEST(NoiseKernels, ScalarAndAvx2AgreeOnEveryTailLength) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  rt::Rng rng(31);
  kernels::NoiseBlock block;
  for (std::size_t k = 0; k < kernels::kNoiseBlockPairs; ++k) {
    const rt::Rng::PolarDraw d = rng.polar_draw();
    block.u[k] = d.u;
    block.v[k] = d.v;
    block.s[k] = d.s;
    block.m2log_s[k] = -2.0 * std::log(d.s);
  }
  int low = 0, high = 0;
  for (const std::size_t pixels :
       {1, 2, 3, 5, 7, 8, 9, 11, 15, 16, 17, 23, 255, 257, 509, 511, 512}) {
    // sigma 1000 saturates at both 0 and 255.
    for (const double sigma : {0.0, 0.5, 6.0, 1000.0}) {
      testutil::GuardedBuffer<std::uint8_t> scalar(pixels), avx2(pixels);
      std::vector<std::uint8_t> before(pixels);
      for (std::size_t i = 0; i < pixels; ++i) {
        const auto random = static_cast<std::uint8_t>(rng.uniform_int(256));
        before[i] = i % 7 == 0 ? 0 : i % 7 == 1 ? 255 : random;
        scalar[i] = avx2[i] = before[i];
      }
      kernels::shape_noise_scalar(scalar.data(), pixels, block, sigma);
      kernels::shape_noise_avx2(avx2.data(), pixels, block, sigma);
      ASSERT_EQ(std::memcmp(scalar.data(), avx2.data(), pixels), 0)
          << pixels << " pixels, sigma " << sigma;
      for (std::size_t i = 0; i < pixels; ++i) {
        // What rng.normal(0, sigma) per pixel gives for this draw.
        const std::size_t k = i / 2;
        const double f = rt::Rng::polar_factor(block.s[k]);
        const double z = (i % 2 == 0 ? block.u[k] : block.v[k]) * f;
        const double v = before[i] + (0.0 + sigma * z);
        ASSERT_EQ(scalar[i],
                  static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)))
            << pixels << " pixels, sigma " << sigma << ", pixel " << i;
        if (sigma == 0.0) {
          ASSERT_EQ(scalar[i], before[i]);
        } else if (sigma == 1000.0) {
          low += scalar[i] == 0 ? 1 : 0;
          high += scalar[i] == 255 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(low, 100);
  EXPECT_GT(high, 100);
}

// ---------------------------------------------------------------------------
// The texture step of the AVX2 row kernel (kernels::texture4_*): four
// lanes' bytes against four fresh scalar lookups.

namespace {

// One group of four object-space points.
struct Group4 {
  double x[4], y[4], z[4];
};

Group4 group_of(const geom::Vec3& a, const geom::Vec3& b, const geom::Vec3& c,
                const geom::Vec3& d) {
  Group4 g{};
  const geom::Vec3* p[4] = {&a, &b, &c, &d};
  for (int k = 0; k < 4; ++k) {
    g.x[k] = p[k]->x;
    g.y[k] = p[k]->y;
    g.z[k] = p[k]->z;
  }
  return g;
}

// texture4_avx2 with `texture` against texture4_scalar, and the scalar form
// against the reference lookup, for write mask `write`.
void expect_texture4(const Group4& g, unsigned write, TextureSampler& texture,
                     const char* what) {
  const std::uint32_t want =
      kernels::texture4_scalar(g.x, g.y, g.z, write, texture);
  for (int k = 0; k < 4; ++k) {
    const std::uint32_t byte = (want >> (8 * k)) & 0xffu;
    const std::uint32_t ref =
        (write >> k & 1u) != 0
            ? reference::texture_value({g.x[k], g.y[k], g.z[k]},
                                       texture.seed(), texture.scale())
            : 0u;
    ASSERT_EQ(byte, ref) << what << " lane " << k;
  }
  ASSERT_EQ(kernels::texture4_avx2(g.x, g.y, g.z, write, texture), want)
      << what << " write " << write;
}

bool memo_is_fresh(TextureSampler& texture) {
  const auto& cell = texture.group_memo().cell;
  return std::all_of(cell, cell + 6, [](double c) { return std::isnan(c); });
}

}  // namespace

TEST(TextureKernels, Hash3LanesMatchScalarHashBitwise) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> cells = {0,          -1,          1,
                                     2147483647, -2147483648, 2147483648,
                                     kMin,       kMax,        -7};
  rt::Rng rng(71);
  for (int i = 0; i < 400; ++i) {
    cells.push_back(static_cast<std::int64_t>(rng()) >> rng.uniform_int(64));
  }
  int checked = 0;
  for (std::size_t i = 0; i + 3 < cells.size(); i += 2) {
    std::int64_t x[4], y[4], z[4];
    for (int k = 0; k < 4; ++k) {
      x[k] = cells[i + static_cast<std::size_t>(k)];
      y[k] = cells[(i * 7 + static_cast<std::size_t>(k)) % cells.size()];
      z[k] = cells[(i * 13 + 3 * static_cast<std::size_t>(k)) % cells.size()];
    }
    for (const std::uint64_t seed : {0x7e57ULL, 0x7e57ULL ^ 0xf1e5ULL, ~0ULL}) {
      double got[4];
      kernels::hash3_avx2(x, y, z, seed, got);
      for (int k = 0; k < 4; ++k) {
        const double want = hash3(x[k], y[k], z[k], seed);
        ASSERT_EQ(std::memcmp(&got[k], &want, sizeof want), 0)
            << x[k] << "," << y[k] << "," << z[k] << " seed " << seed;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

TEST(TextureKernels, LatticeNeighboursAndNegativeCellsUnderEveryWriteMask) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  // Positions on, and one ulp either side of, integers of both lattices,
  // on both sides of zero; each group mixes them across lanes.
  for (const double scale : {3.0, 7.0, 5.0}) {
    std::vector<double> coords;
    for (int k = -12; k <= 12; ++k) {
      for (const double v : {k / scale, k / scale / 3.1}) {
        coords.push_back(std::nextafter(v, -1e9));
        coords.push_back(v);
        coords.push_back(std::nextafter(v, 1e9));
      }
    }
    coords.push_back(-0.0);
    TextureSampler texture(0x7e57, scale);
    const std::size_t n = coords.size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto at = [&](std::size_t j) { return coords[j % n]; };
      const Group4 g = group_of({at(i), at(i + 1), -at(i + 2)},
                                {at(i + 3), -at(i), at(i + 5)},
                                {-at(i + 7), at(i + 11), at(i)},
                                {at(i + 13), at(i + 2), -at(i + 17)});
      for (unsigned write = 0; write < 16; ++write) {
        expect_texture4(g, write, texture, "lattice");
      }
    }
  }
}

TEST(TextureKernels, FloorsPastTwoToThe31TakeTheFallback) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const double scale = 4.0;  // a power of two: obj·scale is exact
  // The smallest s whose fine floor (s·3.1) reaches `target`.
  const auto fine_floor_at = [](double target) {
    double s = target / 3.1;
    while (std::floor(s * 3.1) >= target) s = std::nextafter(s, -1e300);
    while (std::floor(s * 3.1) < target) s = std::nextafter(s, 1e300);
    return s;
  };
  struct Case {
    double s;       // obj·scale on the x axis
    bool fallback;  // some floor lies outside [−2^31, 2^31)
  };
  const auto below = [](double s) { return std::nextafter(s, -1e300); };
  const double fine_hi = fine_floor_at(0x1p31);
  const double fine_lo = fine_floor_at(-0x1p31);
  ASSERT_EQ(std::floor(fine_hi * 3.1), 0x1p31);
  ASSERT_EQ(std::floor(below(fine_hi) * 3.1), 0x1p31 - 1);
  ASSERT_EQ(std::floor(fine_lo * 3.1), -0x1p31);
  ASSERT_EQ(std::floor(below(fine_lo) * 3.1), -0x1p31 - 1);
  const Case cases[] = {
      {fine_hi, true},          // fine floor 2^31
      {below(fine_hi), false},  // fine floor 2^31 − 1
      {fine_lo, false},         // fine floor −2^31
      {below(fine_lo), true},   // fine floor −2^31 − 1
      {0x1p31, true},           // both floors past 2^31
      {-0x1p31 - 1.0, true},
      {3.5e9, true},
      {-3.5e18, true},
      {0x1p63, true},
  };
  for (const Case& c : cases) {
    for (unsigned write = 1; write < 16; ++write) {
      for (int lane = 0; lane < 4; ++lane) {
        if ((write >> lane & 1u) == 0) continue;
        for (int axis = 0; axis < 3; ++axis) {
          // The far point in one writing lane, ordinary points elsewhere.
          Group4 g = group_of({0.1, 0.2, 0.3}, {-0.4, 0.5, 0.6},
                              {0.7, -0.8, 0.9}, {1.1, 1.2, -1.3});
          double* far[3] = {&g.x[lane], &g.y[lane], &g.z[lane]};
          *far[axis] = c.s / scale;
          TextureSampler texture(0x5eed, scale);
          expect_texture4(g, write, texture, "far cell");
          EXPECT_EQ(memo_is_fresh(texture), c.fallback)
              << "s " << c.s << " write " << write << " lane " << lane
              << " axis " << axis;
        }
      }
    }
    // The far point only in a lane that does not write: no fallback.
    Group4 g = group_of({c.s / scale, 0, 0}, {0.5, 0.5, 0.5},
                        {0.25, 0.5, 0.5}, {0.5, 0.25, 0.5});
    TextureSampler texture(0x5eed, scale);
    expect_texture4(g, 0b1110u, texture, "far cell not written");
    EXPECT_FALSE(memo_is_fresh(texture));
  }
}

TEST(TextureKernels, NanAndInfinitePointsMatchTheScalarRule) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, -nan, inf, -inf}) {
    for (int axis = 0; axis < 3; ++axis) {
      for (unsigned write = 1; write < 16; ++write) {
        Group4 g = group_of({0.1, 0.2, 0.3}, {-0.4, 0.5, 0.6},
                            {0.7, -0.8, 0.9}, {1.1, 1.2, -1.3});
        double* lane0[3] = {&g.x[0], &g.y[0], &g.z[0]};
        *lane0[axis] = bad;
        TextureSampler texture(0xbad, 3.0);
        expect_texture4(g, write, texture, "nan/inf");
        EXPECT_EQ(memo_is_fresh(texture), (write & 1u) != 0);
      }
    }
  }
}

TEST(TextureKernels, MemoHitsAcrossRowsAndCellChanges) {
  if (!rt::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const double scale = 3.0;
  const std::uint64_t seed = 0x7e57;
  // Two points in one coarse cell but different fine cells, with
  // different bytes: a memo that compares only the coarse cell would
  // return the first point's byte for the second.
  geom::Vec3 p{0.05, 0.05, 0.05}, q = p;
  while (true) {
    q.x += 0.001;
    ASSERT_LT(q.x, 1.0 / scale);  // still in coarse cell 0
    if (std::floor(q.x * scale * 3.1) != std::floor(p.x * scale * 3.1) &&
        reference::texture_value(q, seed, scale) !=
            reference::texture_value(p, seed, scale)) {
      break;
    }
  }
  {
    TextureSampler texture(seed, scale);
    const Group4 gp = group_of(p, p, p, p), gq = group_of(q, q, q, q);
    expect_texture4(gp, 0xf, texture, "p");
    expect_texture4(gp, 0x6, texture, "p again (a memo hit)");
    expect_texture4(gq, 0xf, texture, "q, same coarse cell");
    expect_texture4(gp, 0x1, texture, "back to p");
  }
  // Rows of groups as the rasterizer walks them, one sampler for all rows:
  // each row starts where the one before started, so its first group lies
  // in cells hashed a row earlier, and cells change within groups.
  rt::Rng rng(72);
  TextureSampler texture(seed, scale);
  for (int row = 0; row < 400; ++row) {
    const double y = -1.0 + row * 0.004;
    const double step = rng.uniform(0.0005, 0.03);
    for (int group = 0; group < 24; ++group) {
      Group4 g{};
      for (int k = 0; k < 4; ++k) {
        g.x[k] = -0.7 + (4 * group + k) * step;
        g.y[k] = y;
        g.z[k] = 0.3 - 0.001 * (4 * group + k);
      }
      const auto write = static_cast<unsigned>(rng.uniform_int(16));
      expect_texture4(g, write, texture, "rows");
    }
  }
}

// ---------------------------------------------------------------------------
// The branch-free Marsaglia draws (kernels::draw_polar) against the
// rejection loop of rt::Rng::polar_draw.

namespace {

// Replays scripted [0, 1) values through rt::Rng::uniform's lo + (hi −
// lo)·u; past the script it continues from an rt::Rng.
class ScriptedUniform {
 public:
  ScriptedUniform(std::vector<double> script, std::uint64_t seed)
      : script_(std::move(script)), rng_(seed) {}

  double uniform(double lo, double hi) {
    const double u = next_ < script_.size() ? script_[next_] : rng_.uniform();
    ++next_;
    return lo + (hi - lo) * u;
  }
  [[nodiscard]] std::size_t used() const { return next_; }

 private:
  std::vector<double> script_;
  std::size_t next_ = 0;
  rt::Rng rng_;
};

// polar_draw's loop, on any generator.
template <typename Generator>
rt::Rng::PolarDraw polar_draw(Generator& g) {
  double u, v, s;
  do {
    u = g.uniform(-1.0, 1.0);
    v = g.uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return {u, v, s};
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

TEST(NoiseKernels, DrawsRejectExactZeroAndExactOne) {
  // uniform 0.5 gives exactly 0 and uniform 0 exactly −1, so the script
  // makes s == 0 (0, 0), s == 1 (−1, 0) and (0, −1): rejections before
  // every other pair and before the last one.
  const std::vector<double> zero = {0.5, 0.5};
  const std::vector<double> one_u = {0.0, 0.5};
  const std::vector<double> one_v = {0.5, 0.0};
  const std::vector<double>* rejects[] = {&zero, &one_u, &one_v};
  for (const std::size_t pairs : {1, 2, 3, 5, 7, 255, 256}) {
    std::vector<double> script;
    std::size_t rejected = 0;
    for (std::size_t k = 0; k < pairs; ++k) {
      if (k % 2 == 0 || k + 1 == pairs) {
        const auto* r = rejects[k % 3];
        script.insert(script.end(), r->begin(), r->end());
        ++rejected;
      }
      script.insert(script.end(), {0.75, 0.25 + 0.001 * k});
    }
    ScriptedUniform a(script, 73), b(script, 73);
    kernels::NoiseBlock block{};
    kernels::draw_polar(a, block, pairs);
    for (std::size_t k = 0; k < pairs; ++k) {
      const rt::Rng::PolarDraw d = polar_draw(b);
      ASSERT_TRUE(same_double(block.u[k], d.u) &&
                  same_double(block.v[k], d.v) &&
                  same_double(block.s[k], d.s))
          << pairs << " pairs, pair " << k;
      ASSERT_TRUE(d.s > 0.0 && d.s < 1.0);
    }
    EXPECT_EQ(a.used(), 2 * (pairs + rejected)) << pairs << " pairs";
    EXPECT_EQ(b.used(), a.used()) << pairs << " pairs";
  }
}

TEST(NoiseKernels, DrawsLeaveTheGeneratorWherePolarDrawDoes) {
  for (const std::size_t pairs : {1, 2, 3, 17, 128, 255, 256}) {
    rt::Rng a(1000 + pairs), b(1000 + pairs);
    kernels::NoiseBlock block{};
    kernels::draw_polar(a, block, pairs);
    for (std::size_t k = 0; k < pairs; ++k) {
      const rt::Rng::PolarDraw d = b.polar_draw();
      ASSERT_TRUE(same_double(block.u[k], d.u) &&
                  same_double(block.v[k], d.v) &&
                  same_double(block.s[k], d.s))
          << pairs << " pairs, pair " << k;
    }
    for (int i = 0; i < 4; ++i) ASSERT_EQ(a(), b()) << pairs << " pairs";
  }
}

// Two threads render the same crowded frames at once, one of them while
// the other holds the pool: both get the reference renderer's bytes.
TEST(RendererEquivalence, ConcurrentRendersMatchReference) {
  const SceneConfig cfg = make_stress_scene(StressRegime::kCrowd, 5, 60);
  const SceneSimulator sim(cfg);
  const int frames[] = {3, 30, 57};
  std::vector<RenderedFrame> ref;
  for (const int f : frames) ref.push_back(reference::render(cfg, f));
  std::vector<RenderedFrame> got[2];
  const auto render_all = [&](int who) {
    for (int round = 0; round < 3; ++round) {
      for (const int f : frames) got[who].push_back(sim.render(f));
    }
  };
  std::thread a(render_all, 0);
  std::thread b(render_all, 1);
  a.join();
  b.join();
  for (const auto& frames_of : got) {
    ASSERT_EQ(frames_of.size(), 3 * ref.size());
    for (std::size_t i = 0; i < frames_of.size(); ++i) {
      expect_same_frame(frames_of[i], ref[i % ref.size()], cfg, 0);
    }
  }
}
