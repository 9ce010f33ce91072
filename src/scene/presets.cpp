#include "scene/presets.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

#include "runtime/rng.hpp"

namespace edgeis::scene {
namespace {

/// `mesh` raised by `dy` so the object stands on the floor.
Mesh lifted(Mesh mesh, double dy) {
  for (auto& v : mesh.vertices) v.y += dy;
  return mesh;
}

SceneObject make_object(ObjectClass cls, int instance_id,
                        const geom::Vec3& position, std::uint64_t seed,
                        double yaw = 0.0) {
  SceneObject o;
  o.cls = cls;
  o.instance_id = instance_id;
  o.motion.base_position = position;
  o.motion.yaw0 = yaw;
  o.texture_seed = seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(instance_id);
  // Every object of a class shares one mesh, built once per process and
  // copied; the centered ones are lifted so they stand on the floor.
  static const Mesh kPerson = lifted(make_cylinder(0.28, 1.7, 10), 0.85);
  static const Mesh kCar = make_car();
  static const Mesh kCrate = lifted(make_box(0.9, 0.9, 0.9), 0.45);
  static const Mesh kSeparator = make_separator();
  static const Mesh kTube = lifted(make_tube(0.22, 2.4, 10), 0.5);
  static const Mesh kCabinet = lifted(make_box(0.8, 1.7, 0.5), 0.85);
  switch (cls) {
    case ObjectClass::kPerson:
      o.mesh = kPerson;
      o.texture_scale = 7.0;
      break;
    case ObjectClass::kCar:
      o.mesh = kCar;
      o.texture_scale = 4.0;
      break;
    case ObjectClass::kCrate:
      o.mesh = kCrate;
      o.texture_scale = 6.0;
      break;
    case ObjectClass::kSeparator:
      o.mesh = kSeparator;
      o.texture_scale = 5.0;
      break;
    case ObjectClass::kTube:
      o.mesh = kTube;
      o.texture_scale = 8.0;
      break;
    case ObjectClass::kCabinet:
      o.mesh = kCabinet;
      o.texture_scale = 5.0;
      break;
    case ObjectClass::kBackground:
      throw std::invalid_argument("background is not an object class");
  }
  return o;
}

SceneConfig base_config(std::uint64_t seed, int frames) {
  SceneConfig cfg;
  cfg.camera.width = 640;
  cfg.camera.height = 480;
  cfg.camera.fx = 520.0;
  cfg.camera.fy = 520.0;
  cfg.camera.cx = 320.0;
  cfg.camera.cy = 240.0;
  cfg.noise_seed = seed;
  cfg.total_frames = frames;
  return cfg;
}

/// Place `count` objects on a ring of radius `ring`, jittered. Instance
/// ids continue from any objects already placed.
void place_ring(SceneConfig& cfg, std::span<const ObjectClass> classes,
                double ring, rt::Rng& rng) {
  int id = static_cast<int>(cfg.objects.size()) + 1;
  const auto count = classes.size();
  cfg.objects.reserve(cfg.objects.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    const double angle =
        2.0 * M_PI * static_cast<double>(i) / static_cast<double>(count) +
        rng.uniform(-0.15, 0.15);
    const double r = ring * rng.uniform(0.75, 1.15);
    const geom::Vec3 pos{r * std::cos(angle), 0.0, r * std::sin(angle)};
    cfg.objects.push_back(make_object(classes[i], id, pos,
                                      cfg.noise_seed + static_cast<std::uint64_t>(id),
                                      rng.uniform(0.0, 2.0 * M_PI)));
    ++id;
  }
}

}  // namespace

SceneConfig make_davis_scene(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "davis";
  rt::Rng rng(seed ^ 0xda715ULL);
  const ObjectClass classes[] = {ObjectClass::kPerson, ObjectClass::kCrate,
                                 ObjectClass::kCabinet};
  place_ring(cfg, classes, 2.2, rng);
  // DAVIS-style: the person moves slowly through the scene.
  cfg.objects[0].motion.velocity = {0.12, 0.0, 0.08};
  cfg.objects[0].motion.start_move_time = 2.0;
  cfg.path.kind = CameraPathKind::kOrbit;
  cfg.path.orbit_radius = 5.0;
  cfg.path.speed = 0.5;
  return cfg;
}

SceneConfig make_kitti_scene(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "kitti";
  cfg.room_size = 26.0;
  rt::Rng rng(seed ^ 0x817715ULL);
  const ObjectClass classes[] = {ObjectClass::kCar, ObjectClass::kCar,
                                 ObjectClass::kPerson, ObjectClass::kCrate,
                                 ObjectClass::kCar};
  place_ring(cfg, classes, 3.4, rng);
  // One car drives across the scene (KITTI-style traffic).
  cfg.objects[1].motion.velocity = {-0.3, 0.0, 0.15};
  cfg.objects[1].motion.start_move_time = 1.5;
  cfg.path.kind = CameraPathKind::kWalk;
  cfg.path.speed = 0.8;
  cfg.path.orbit_radius = 6.0;  // lateral offset of the walk path
  cfg.path.bob_amplitude = 0.01;
  return cfg;
}

SceneConfig make_xiph_scene(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "xiph";
  rt::Rng rng(seed ^ 0x1f4ULL);
  const ObjectClass classes[] = {ObjectClass::kCrate, ObjectClass::kCabinet,
                                 ObjectClass::kPerson, ObjectClass::kCrate};
  place_ring(cfg, classes, 2.5, rng);
  cfg.path.kind = CameraPathKind::kOrbit;
  cfg.path.orbit_radius = 4.5;
  cfg.path.speed = 0.35;
  return cfg;
}

SceneConfig make_field_scene(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "field";
  cfg.room_size = 20.0;
  rt::Rng rng(seed ^ 0xf1e1dULL);
  const ObjectClass classes[] = {ObjectClass::kSeparator, ObjectClass::kTube,
                                 ObjectClass::kSeparator, ObjectClass::kCabinet,
                                 ObjectClass::kTube};
  place_ring(cfg, classes, 3.0, rng);
  cfg.path.kind = CameraPathKind::kInspect;
  cfg.path.orbit_radius = 5.5;
  cfg.path.speed = 0.45;
  cfg.pixel_noise_sigma = 3.0;  // harsher outdoor imaging
  return cfg;
}

SceneConfig make_motion_scene(Gait gait, std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  rt::Rng rng(seed ^ 0x90a17ULL);
  const ObjectClass classes[] = {ObjectClass::kCrate, ObjectClass::kCabinet,
                                 ObjectClass::kPerson};
  place_ring(cfg, classes, 2.2, rng);
  cfg.path.kind = CameraPathKind::kWalk;
  cfg.path.orbit_radius = 5.0;
  cfg.path.walk_center_time = frames / cfg.fps / 2.0;
  switch (gait) {
    case Gait::kWalk:
      cfg.name = "motion-walk";
      cfg.path.speed = 0.7;
      cfg.path.bob_amplitude = 0.012;
      cfg.path.bob_frequency = 1.8;
      break;
    case Gait::kStride:
      cfg.name = "motion-stride";
      cfg.path.speed = 1.4;
      cfg.path.bob_amplitude = 0.03;
      cfg.path.bob_frequency = 2.2;
      break;
    case Gait::kJog:
      cfg.name = "motion-jog";
      cfg.path.speed = 2.6;
      cfg.path.bob_amplitude = 0.07;
      cfg.path.bob_frequency = 2.8;
      break;
  }
  return cfg;
}

SceneConfig make_complexity_scene(Complexity level, std::uint64_t seed,
                                  int frames) {
  SceneConfig cfg = base_config(seed, frames);
  rt::Rng rng(seed ^ 0xc0deULL);
  cfg.path.kind = CameraPathKind::kOrbit;
  cfg.path.orbit_radius = 5.2;
  cfg.path.speed = 0.5;
  switch (level) {
    case Complexity::kEasy: {
      cfg.name = "complexity-easy";
      const ObjectClass classes[] = {ObjectClass::kCrate,
                                     ObjectClass::kCabinet,
                                     ObjectClass::kPerson};
      place_ring(cfg, classes, 2.4, rng);
      break;
    }
    case Complexity::kMedium: {
      cfg.name = "complexity-medium";
      // Two staggered rings: with nine objects on one ring, an orbiting
      // camera sees near objects permanently occluding far ones.
      const ObjectClass inner[] = {ObjectClass::kCrate, ObjectClass::kCabinet,
                                   ObjectClass::kPerson,
                                   ObjectClass::kCrate};
      const ObjectClass outer[] = {ObjectClass::kTube, ObjectClass::kCabinet,
                                   ObjectClass::kPerson, ObjectClass::kCrate,
                                   ObjectClass::kCabinet};
      place_ring(cfg, inner, 1.8, rng);
      place_ring(cfg, outer, 3.8, rng);
      cfg.path.orbit_radius = 6.0;
      break;
    }
    case Complexity::kHard: {
      cfg.name = "complexity-hard";
      const ObjectClass classes[] = {
          ObjectClass::kCrate, ObjectClass::kCabinet, ObjectClass::kPerson,
          ObjectClass::kCrate, ObjectClass::kPerson,  ObjectClass::kTube};
      place_ring(cfg, classes, 2.8, rng);
      // Hard: several objects move during the clip.
      cfg.objects[2].motion.velocity = {0.18, 0.0, -0.10};
      cfg.objects[2].motion.start_move_time = 2.0;
      cfg.objects[4].motion.velocity = {-0.12, 0.0, 0.14};
      cfg.objects[4].motion.start_move_time = 3.0;
      cfg.objects[0].motion.yaw_rate = 0.15;
      cfg.objects[0].motion.start_move_time = 2.5;
      break;
    }
  }
  return cfg;
}

SceneConfig make_dataset_scene(std::string_view name, std::uint64_t seed,
                               int frames) {
  if (name == "davis") return make_davis_scene(seed, frames);
  if (name == "kitti") return make_kitti_scene(seed, frames);
  if (name == "xiph") return make_xiph_scene(seed, frames);
  if (name == "field") return make_field_scene(seed, frames);
  throw std::invalid_argument("unknown dataset preset: " + std::string(name));
}

const char* stress_regime_name(StressRegime regime) {
  switch (regime) {
    case StressRegime::kEntryExit: return "stress-entry-exit";
    case StressRegime::kOcclusion: return "stress-occlusion";
    case StressRegime::kLighting: return "stress-lighting";
    case StressRegime::kShake: return "stress-shake";
    case StressRegime::kCrowd: return "stress-crowd";
  }
  return "stress-unknown";
}

namespace {

// Objects entering and leaving the world mid-sequence: a person walks in
// a third of the way through and vanishes near the end, a crate appears
// later, and one of the initial objects is removed mid-clip. The scripted
// windows are exact, so tests can pin visible-pixel spans against them.
SceneConfig stress_entry_exit(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "stress-entry-exit";
  const double T = frames / cfg.fps;
  rt::Rng rng(seed ^ 0xe171e817ULL);
  const ObjectClass ring[] = {ObjectClass::kCrate, ObjectClass::kCabinet};
  place_ring(cfg, ring, 2.4, rng);
  cfg.objects[1].despawn_time = 0.62 * T;  // the cabinet exits mid-clip

  SceneObject person = make_object(ObjectClass::kPerson, 3,
                                   {-1.2, 0.0, -0.8}, seed + 3);
  person.spawn_time = 0.30 * T;
  person.despawn_time = 0.85 * T;
  person.motion.velocity = {0.22, 0.0, 0.16};
  person.motion.start_move_time = person.spawn_time;
  cfg.objects.push_back(std::move(person));

  SceneObject crate = make_object(ObjectClass::kCrate, 4, {0.8, 0.0, -1.4},
                                  seed + 4, rng.uniform(0.0, 2.0 * M_PI));
  crate.spawn_time = 0.55 * T;
  cfg.objects.push_back(std::move(crate));

  cfg.path.kind = CameraPathKind::kOrbit;
  cfg.path.orbit_radius = 5.0;
  cfg.path.speed = 0.45;
  return cfg;
}

// A wide wall-like occluder sweeps between the camera and a static target
// ring, fully occluding each target in turn before dis-occluding it. The
// camera drifts slowly sideways so the pre-/post-occlusion views differ.
SceneConfig stress_occlusion(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "stress-occlusion";
  rt::Rng rng(seed ^ 0x0cc1ULL);
  const ObjectClass ring[] = {ObjectClass::kPerson, ObjectClass::kCrate,
                              ObjectClass::kCabinet};
  place_ring(cfg, ring, 2.2, rng);

  SceneObject wall = make_object(ObjectClass::kCabinet, 4,
                                 {-5.5, 0.0, 2.9}, seed + 11);
  // Widen the cabinet into a sweep-through wall (the mesh is local, so
  // scaling vertices is enough; the texture scale keeps features dense).
  for (auto& v : wall.mesh.vertices) {
    v.x *= 3.2;
    v.y *= 1.6;
  }
  // Sweep scripted as a fraction of the clip: start at 0.06T, cross the
  // full 13.6 m by 0.94T, so any frame count produces the same pass of
  // occlusion and dis-occlusion over the ring (13.6/0.88 = 15.45).
  const double T = frames / cfg.fps;
  wall.motion.velocity = {15.45 / T, 0.0, 0.0};
  wall.motion.start_move_time = 0.06 * T;
  cfg.objects.push_back(std::move(wall));

  cfg.path.kind = CameraPathKind::kWalk;
  cfg.path.speed = 0.2;
  cfg.path.orbit_radius = 5.0;
  cfg.path.bob_amplitude = 0.008;
  cfg.path.walk_center_time = frames / cfg.fps / 2.0;
  return cfg;
}

// Global exposure collapse mid-clip (ramped, auto-exposure style) plus a
// short bright flash near the end: texture contrast shrinks, FAST corners
// fade, and the matcher faces descriptors extracted under a different
// illumination than the map was built in.
SceneConfig stress_lighting(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "stress-lighting";
  const double T = frames / cfg.fps;
  rt::Rng rng(seed ^ 0x11947ULL);
  const ObjectClass ring[] = {ObjectClass::kCrate, ObjectClass::kCabinet,
                              ObjectClass::kPerson, ObjectClass::kCrate};
  place_ring(cfg, ring, 2.5, rng);
  cfg.path.kind = CameraPathKind::kOrbit;
  cfg.path.orbit_radius = 4.5;
  cfg.path.speed = 0.4;
  cfg.lighting.shifts.push_back(
      {0.30 * T, 0.58 * T, /*ramp_time=*/0.5, /*gain=*/0.42, /*bias=*/-14.0});
  cfg.lighting.shifts.push_back(
      {0.72 * T, 0.80 * T, /*ramp_time=*/0.12, /*gain=*/1.65, /*bias=*/30.0});
  return cfg;
}

// A violent hand-shake window on a walking camera: ~11 px of rotational
// jitter at hand-tremor frequencies, ramped in and out. Feature tracks
// shear frame to frame, VO pose prediction degrades, and MAMT's warp gets
// a hostile pose baseline.
SceneConfig stress_shake(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "stress-shake";
  const double T = frames / cfg.fps;
  rt::Rng rng(seed ^ 0x54a4eULL);
  const ObjectClass ring[] = {ObjectClass::kCrate, ObjectClass::kCabinet,
                              ObjectClass::kPerson};
  place_ring(cfg, ring, 2.2, rng);
  cfg.path.kind = CameraPathKind::kWalk;
  cfg.path.speed = 0.9;
  cfg.path.orbit_radius = 5.0;
  cfg.path.bob_amplitude = 0.015;
  cfg.path.bob_frequency = 2.0;
  cfg.path.walk_center_time = T / 2.0;
  cfg.path.shake.amplitude_rad = 0.022;
  cfg.path.shake.amplitude_m = 0.012;
  cfg.path.shake.frequency_hz = 8.5;
  cfg.path.shake.start_time = 0.35 * T;
  cfg.path.shake.end_time = 0.75 * T;
  cfg.path.shake.seed = seed ^ 0x5aa5ULL;
  return cfg;
}

// The crowded regime: ten objects on two rings, four of them set moving
// at staggered times, plus entry/exit traffic (a person and a car walk
// in, one cabinet is removed). Dynamic-object bookkeeping, per-object
// transfer and CIIA contours all face their worst case at once.
SceneConfig stress_crowd(std::uint64_t seed, int frames) {
  SceneConfig cfg = base_config(seed, frames);
  cfg.name = "stress-crowd";
  cfg.room_size = 24.0;
  const double T = frames / cfg.fps;
  cfg.objects.reserve(12);  // both rings, the walker and the car
  rt::Rng rng(seed ^ 0xc40bdULL);
  const ObjectClass inner[] = {ObjectClass::kCrate, ObjectClass::kPerson,
                               ObjectClass::kCabinet, ObjectClass::kCrate};
  const ObjectClass outer[] = {ObjectClass::kTube, ObjectClass::kCabinet,
                               ObjectClass::kPerson, ObjectClass::kCrate,
                               ObjectClass::kCabinet, ObjectClass::kPerson};
  place_ring(cfg, inner, 1.9, rng);
  place_ring(cfg, outer, 4.0, rng);
  cfg.objects[1].motion.velocity = {0.25, 0.0, -0.15};
  cfg.objects[1].motion.start_move_time = 0.25 * T;
  cfg.objects[3].motion.yaw_rate = 0.4;
  cfg.objects[3].motion.start_move_time = 0.20 * T;
  cfg.objects[6].motion.velocity = {-0.28, 0.0, 0.18};
  cfg.objects[6].motion.start_move_time = 0.35 * T;
  cfg.objects[8].motion.velocity = {0.20, 0.0, 0.22};
  cfg.objects[8].motion.start_move_time = 0.50 * T;
  cfg.objects[5].despawn_time = 0.70 * T;

  SceneObject walker = make_object(ObjectClass::kPerson, 11,
                                   {1.5, 0.0, 1.0}, seed + 21);
  walker.spawn_time = 0.40 * T;
  walker.motion.velocity = {-0.35, 0.0, -0.20};
  walker.motion.start_move_time = walker.spawn_time;
  cfg.objects.push_back(std::move(walker));

  SceneObject car = make_object(ObjectClass::kCar, 12, {-3.5, 0.0, -2.5},
                                seed + 22, rng.uniform(0.0, 2.0 * M_PI));
  car.spawn_time = 0.55 * T;
  car.motion.velocity = {0.50, 0.0, 0.30};
  car.motion.start_move_time = car.spawn_time;
  cfg.objects.push_back(std::move(car));

  cfg.path.kind = CameraPathKind::kOrbit;
  cfg.path.orbit_radius = 6.2;
  cfg.path.speed = 0.6;
  return cfg;
}

}  // namespace

SceneConfig make_stress_scene(StressRegime regime, std::uint64_t seed,
                              int frames) {
  switch (regime) {
    case StressRegime::kEntryExit: return stress_entry_exit(seed, frames);
    case StressRegime::kOcclusion: return stress_occlusion(seed, frames);
    case StressRegime::kLighting: return stress_lighting(seed, frames);
    case StressRegime::kShake: return stress_shake(seed, frames);
    case StressRegime::kCrowd: return stress_crowd(seed, frames);
  }
  throw std::invalid_argument("unknown stress regime");
}

SceneConfig make_stress_scene(std::string_view name, std::uint64_t seed,
                              int frames) {
  for (const StressRegime regime : kAllStressRegimes) {
    if (name == stress_regime_name(regime)) {
      return make_stress_scene(regime, seed, frames);
    }
  }
  throw std::invalid_argument("unknown stress preset: " + std::string(name));
}

}  // namespace edgeis::scene
