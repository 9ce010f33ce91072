#include "scene/scene.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <tuple>

#include "runtime/arena.hpp"
#include "runtime/cpu.hpp"
#include "runtime/rng.hpp"
#include "runtime/worker_pool.hpp"
#include "scene/bands.hpp"
#include "scene/kernels.hpp"
#include "scene/texture.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace edgeis::scene {

const char* class_name(ObjectClass c) {
  switch (c) {
    case ObjectClass::kBackground: return "background";
    case ObjectClass::kPerson: return "person";
    case ObjectClass::kCar: return "car";
    case ObjectClass::kCrate: return "crate";
    case ObjectClass::kSeparator: return "separator";
    case ObjectClass::kTube: return "tube";
    case ObjectClass::kCabinet: return "cabinet";
  }
  return "unknown";
}

geom::SE3 MotionScript::pose_at(double t) const {
  const double tm = std::max(0.0, t - start_move_time);
  const double yaw = yaw0 + yaw_rate * tm;
  geom::Mat3 r = geom::Mat3::identity();
  r(0, 0) = std::cos(yaw);
  r(0, 2) = std::sin(yaw);
  r(2, 0) = -std::sin(yaw);
  r(2, 2) = std::cos(yaw);
  const geom::Vec3 pos = base_position + velocity * tm;
  return geom::SE3{r, pos};
}

double hash3(std::int64_t x, std::int64_t y, std::int64_t z,
             std::uint64_t seed) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<std::uint64_t>(y) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= static_cast<std::uint64_t>(z) * 0x165667b19e3779f9ULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace {

// World->camera pose looking from `pos` toward `target` with world-up
// (0, 1, 0), using the computer-vision convention (z forward, y down).
geom::SE3 look_at(const geom::Vec3& pos, const geom::Vec3& target) {
  const geom::Vec3 f = (target - pos).normalized();
  geom::Vec3 up{0, 1, 0};
  geom::Vec3 r = f.cross(up);
  if (r.squared_norm() < 1e-9) {
    r = {1, 0, 0};  // looking straight up/down: pick an arbitrary right
  }
  r = r.normalized();
  const geom::Vec3 d = f.cross(r);
  geom::Mat3 r_wc;  // columns are camera axes in world coordinates
  r_wc.m = {r.x, d.x, f.x, r.y, d.y, f.y, r.z, d.z, f.z};
  const geom::Mat3 r_cw = r_wc.transpose();
  return geom::SE3{r_cw, -(r_cw * pos)};
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

/// The renderer's near plane.
constexpr double kNearZ = 0.05;

/// Row bands per lane: more bands than lanes lets a lane that drew light
/// rows take another band while one with the room's floor finishes.
constexpr int kBandsPerLane = 3;

// The x-range of one box row in which a pixel can pass the rasterizer's
// w0/w1/w2 >= 0 test; every pixel outside it fails that test. Each edge
// function E(fx) = (a.x - fx)(b.y - fy) - (a.y - fy)(b.x - fx) is linear
// in the pixel centre fx with slope a.y - b.y and a zero at the edge's
// crossing xc of the row. The computed weights differ from their real
// values by less than `slack` in E units (rounding of the products, of
// 1 - w0 - w1 and of the area; the bound grows with the box's reach), so a
// pixel can pass only where sign(area)·E >= -slack on all three edges:
// xc ± slack/|slope| per edge. The span widens that by 2 px for the
// rounding of xc itself. An edge whose widening is not small and finite
// bounds nothing, and so does every edge of a triangle with a vertex past
// 2^40 px: there the row keeps the whole box.
class RowSpans {
 public:
  RowSpans(const geom::Vec2 px[3], double area, int x0, int x1, int y0,
           int y1)
      : px_(px), x0_(x0), x1_(x1), positive_(area > 0) {
    constexpr double kFar = 0x1p40;
    double reach_x = 0.0, reach_y = 0.0;
    for (int i = 0; i < 3; ++i) {
      if (!(std::abs(px[i].x) < kFar && std::abs(px[i].y) < kFar)) return;
      reach_x = std::max({reach_x, std::abs(px[i].x - (x0 + 0.5)),
                          std::abs(px[i].x - (x1 + 0.5))});
      reach_y = std::max({reach_y, std::abs(px[i].y - (y0 + 0.5)),
                          std::abs(px[i].y - (y1 + 0.5))});
    }
    const double edge_terms = 2.0 * reach_x * reach_y;
    const double area_terms = std::abs((px[1].x - px[0].x) *
                                       (px[2].y - px[0].y)) +
                              std::abs((px[1].y - px[0].y) *
                                       (px[2].x - px[0].x));
    slack_ = 32.0 * 0x1p-53 * (edge_terms + area_terms + std::abs(area));
    bounded_ = true;
  }

  /// Inclusive pixel range [first, last] of row y; first > last if empty.
  [[nodiscard]] std::pair<int, int> row(int y) const {
    if (!bounded_) return {x0_, x1_};
    const double fy = y + 0.5;
    double lo = x0_, hi = x1_ + 1.0;  // pixel-centre bounds
    // Edges in the weights' order: w0 over (p1, p2), w1 over (p2, p0),
    // w2 over (p0, p1).
    for (int i = 0; i < 3; ++i) {
      const geom::Vec2& a = px_[(i + 1) % 3];
      const geom::Vec2& b = px_[(i + 2) % 3];
      const double slope = a.y - b.y;
      const double widen = slack_ / std::abs(slope) + 2.0;
      if (!(widen < 1e9)) continue;  // near-horizontal (or level) edge
      const double xc = a.x + (fy - a.y) * (b.x - a.x) / (b.y - a.y);
      if ((slope > 0) == positive_) {
        lo = std::max(lo, xc - widen);
      } else {
        hi = std::min(hi, xc + widen);
      }
    }
    // Pixel x has centre x + 0.5. Clamping in double keeps far crossings
    // from overflowing int; lo > hi clamps to an empty range.
    const double first = std::max(static_cast<double>(x0_),
                                  std::ceil(lo - 0.5));
    const double last = std::min(static_cast<double>(x1_),
                                 std::floor(hi - 0.5));
    if (!(first <= last)) return {x1_ + 1, x1_};
    return {static_cast<int>(first), static_cast<int>(last)};
  }

 private:
  const geom::Vec2* px_;
  int x0_, x1_;
  bool positive_;
  bool bounded_ = false;
  double slack_ = 0.0;
};

// A projected triangle of the draw list, with its pixel box and area.
struct DrawTriangle {
  kernels::RasterTriangle t;
  double area;
  int x0, x1, y0, y1;
};

// A mesh of the draw list: its triangles, in mesh order, and what its
// pixels get.
struct DrawMesh {
  std::size_t first, end;  // triangle range in the draw list
  std::uint16_t instance_id;
  std::uint64_t texture_seed;
  double texture_scale;
};

// Every triangle of a frame, posed, near-clipped and projected in draw
// order (mesh by mesh, triangle by triangle), in frame-arena storage that
// lives as long as `scratch`. The serial step of a render.
class DrawList {
 public:
  DrawList(rt::ArenaScope& scratch, std::size_t meshes, std::size_t triangles)
      : scratch_(scratch),
        meshes_(scratch.alloc<DrawMesh>(meshes)),
        // Near-clipping splits a triangle into at most two.
        triangles_(scratch.alloc<DrawTriangle>(2 * triangles)) {}

  void add(const geom::PinholeCamera& cam, const Mesh& mesh,
           const geom::SE3& t_co, std::uint16_t instance_id,
           std::uint64_t tex_seed, double tex_scale) {
    const auto cam_pos = scratch_.alloc<geom::Vec3>(mesh.vertices.size());
    for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
      cam_pos[i] = t_co * mesh.vertices[i];
    }
    DrawMesh& m = meshes_[mesh_count_++];
    m = {triangle_count_, triangle_count_, instance_id, tex_seed, tex_scale};
    for (const auto& tri : mesh.triangles) {
      ClipVertex in[3] = {{cam_pos[tri.a], mesh.vertices[tri.a]},
                          {cam_pos[tri.b], mesh.vertices[tri.b]},
                          {cam_pos[tri.c], mesh.vertices[tri.c]}};
      ClipVertex poly[4];
      const int n = clip_near(in, kNearZ, poly);
      for (int k = 2; k < n; ++k) {
        const ClipVertex* v[3] = {&poly[0], &poly[k - 1], &poly[k]};
        project(cam, v);
      }
    }
    m.end = triangle_count_;
  }

  [[nodiscard]] std::span<const DrawMesh> meshes() const {
    return meshes_.first(mesh_count_);
  }
  [[nodiscard]] const DrawTriangle& triangle(std::size_t i) const {
    return triangles_[i];
  }

 private:
  // Appends one clipped sub-triangle unless a vertex fails to project or
  // the triangle is degenerate.
  void project(const geom::PinholeCamera& cam, const ClipVertex* const v[3]) {
    DrawTriangle& d = triangles_[triangle_count_];
    kernels::RasterTriangle& t = d.t;
    t = {};
    const geom::Vec2* px = t.px;
    for (int i = 0; i < 3; ++i) {
      const auto p = cam.project(v[i]->cam, kNearZ * 0.5);
      if (!p) return;
      t.px[i] = *p;
      t.inv_z[i] = 1.0 / v[i]->cam.z;
      t.obj[i] = v[i]->obj;
    }
    // Bounding box in pixels.
    d.x0 = std::max(0, static_cast<int>(std::floor(
                           std::min({px[0].x, px[1].x, px[2].x}))));
    d.x1 = std::min(cam.width - 1, static_cast<int>(std::ceil(std::max(
                                       {px[0].x, px[1].x, px[2].x}))));
    d.y0 = std::max(0, static_cast<int>(std::floor(
                           std::min({px[0].y, px[1].y, px[2].y}))));
    d.y1 = std::min(cam.height - 1, static_cast<int>(std::ceil(std::max(
                                        {px[0].y, px[1].y, px[2].y}))));
    d.area = (px[1].x - px[0].x) * (px[2].y - px[0].y) -
             (px[1].y - px[0].y) * (px[2].x - px[0].x);
    if (std::abs(d.area) < 1e-9) return;
    t.inv_area = 1.0 / d.area;
    ++triangle_count_;
  }

  rt::ArenaScope& scratch_;
  std::span<DrawMesh> meshes_;
  std::span<DrawTriangle> triangles_;
  std::size_t mesh_count_ = 0;
  std::size_t triangle_count_ = 0;
};

// What a frame gets after the draw list: the scripted lighting, then
// sensor noise from the stream seeded by `noise_seed`.
struct Finish {
  bool lit = false;
  double gain = 1.0;
  double bias = 0.0;
  double sigma = 0.0;  // no noise when 0
  std::uint64_t noise_seed = 0;
};

// Rows [y_begin, y_end) of the three frame buffers: every triangle of the
// draw list that reaches them, in draw order, each mesh with a fresh
// texture sampler (its memo is exact, so the bytes do not depend on where
// a band starts).
void raster_band(const DrawList& list, int y_begin, int y_end,
                 img::GrayImage& intensity, img::IdImage& ids,
                 img::DepthImage& depth) {
  const auto fill_row = rt::cpu_has_avx2() ? kernels::raster_row_avx2
                                           : kernels::raster_row_scalar;
  for (const DrawMesh& m : list.meshes()) {
    TextureSampler texture(m.texture_seed, m.texture_scale);
    for (std::size_t i = m.first; i < m.end; ++i) {
      const DrawTriangle& d = list.triangle(i);
      const int y0 = std::max(d.y0, y_begin);
      const int y1 = std::min(d.y1, y_end - 1);
      if (y0 > y1) continue;
      const RowSpans spans(d.t.px, d.area, d.x0, d.x1, d.y0, d.y1);
      for (int y = y0; y <= y1; ++y) {
        const auto [first, last] = spans.row(y);
        const kernels::RasterRow row{y + 0.5, intensity.row(y), ids.row(y),
                                     depth.row(y), m.instance_id};
        fill_row(d.t, row, first, last, texture);
      }
    }
  }
}

void light_band(const Finish& finish, int y_begin, int y_end,
                img::GrayImage& image) {
  for (int y = y_begin; y < y_end; ++y) {
    auto* row = image.row(y);
    for (int x = 0; x < image.width(); ++x) {
      const double v = finish.gain * row[x] + finish.bias;
      row[x] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
}

// The noise stream's state before the pair of each band's first pixel:
// `first_pixel(b)` is non-decreasing in b. Pixel p takes pair p / 2, so
// the replay runs the Marsaglia accept loop up to the last band's first
// pair and keeps nothing but the states. It counts accepted attempts as
// kernels::draw_polar does, without a branch on the draw (the rejection
// branch mispredicts), and takes no log.
template <typename FirstPixel>
void find_noise_states(std::uint64_t seed, std::span<rt::Rng> states,
                       FirstPixel first_pixel) {
  rt::Rng rng(seed);
  std::size_t pair = 0;
  for (std::size_t b = 0; b < states.size(); ++b) {
    const std::size_t first = first_pixel(b) / 2;
    while (pair < first) {
      const double u = rng.uniform(-1.0, 1.0);
      const double v = rng.uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      pair += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
    }
    std::construct_at(&states[b], rng);
  }
}

// Adds N(0, sigma) to pixels [begin, end) of the row-major frame, drawing
// from `rng`, the stream's state before pair begin / 2: the same draws and
// arithmetic as `px + rng.normal(0.0, sigma)` pixel by pixel over the
// whole frame, where pixel 2k takes pair k's u·f and pixel 2k + 1 its spare
// v·f. A band that opens on a pair's second pixel takes that pair's v·f
// alone; a band that closes on a pair's first pixel takes its u·f alone,
// as the frame's last pixel does when the count is odd. Each block first
// draws its accepted (u, v, s) triples without a branch on the draw
// (kernels::draw_polar; the Marsaglia rejection branch mispredicts), then
// takes one libm log per pair, and then runs the div/sqrt/scale chains
// branch-free (kernels::shape_noise_*), letting them overlap. Blocks stay
// on the stack: a frame-sized draw buffer (3.7 MB at 640x480) shows up in
// peak RSS.
void add_noise_band(std::uint8_t* data, std::size_t begin, std::size_t end,
                    double sigma, rt::Rng rng) {
  const auto shape = rt::cpu_has_avx2() ? kernels::shape_noise_avx2
                                        : kernels::shape_noise_scalar;
  constexpr std::size_t kBlockPixels = 2 * kernels::kNoiseBlockPairs;
  kernels::NoiseBlock block{};
  const auto draw = [&](std::size_t pairs) {
    kernels::draw_polar(rng, block, pairs);
    for (std::size_t k = 0; k < pairs; ++k) {
      block.m2log_s[k] = -2.0 * __builtin_log(block.s[k]);
    }
  };
  std::size_t start = begin;
  if (start % 2 != 0 && start < end) {
    draw(1);
    std::uint8_t pair[2] = {0, data[start]};
    shape(pair, 2, block, sigma);
    data[start++] = pair[1];
  }
  for (; start < end; start += kBlockPixels) {
    const std::size_t pixels = std::min(end - start, kBlockPixels);
    draw((pixels + 1) / 2);
    shape(data + start, pixels, block, sigma);
  }
}

// Renders the draw list into the frame buffers in `bands` row bands on
// the worker pool, then finishes them. Band b holds rows
// [b·h / bands, (b + 1)·h / bands). The first job fills and lights every
// band while its task 0 replays the noise stream to each band's first
// pair; the second adds each band's noise. Every pixel's bytes depend only
// on the ordered draw list and its own stream position, so they do not
// depend on `bands` or on which lane runs a task. Tasks allocate nothing.
void draw_frame(const DrawList& list, const Finish& finish,
                img::GrayImage& intensity, img::IdImage& ids,
                img::DepthImage& depth, int bands,
                rt::ArenaScope& scratch) {
  const auto n = static_cast<std::size_t>(bands);
  const auto h = static_cast<std::size_t>(intensity.height());
  const auto w = static_cast<std::size_t>(intensity.width());
  const auto first_row = [&](std::size_t b) { return b * h / n; };
  const auto first_pixel = [&](std::size_t b) { return first_row(b) * w; };
  const bool noisy = finish.sigma > 0.0;
  const std::span<rt::Rng> states = scratch.alloc<rt::Rng>(noisy ? n : 0);
  auto& pool = rt::WorkerPool::shared();
  pool.run(n + 1, [&](std::size_t task) {
    if (task == 0) {
      if (noisy) find_noise_states(finish.noise_seed, states, first_pixel);
      return;
    }
    const std::size_t b = task - 1;
    const int y_begin = static_cast<int>(first_row(b));
    const int y_end = static_cast<int>(first_row(b + 1));
    raster_band(list, y_begin, y_end, intensity, ids, depth);
    if (finish.lit) light_band(finish, y_begin, y_end, intensity);
  });
  if (!noisy) return;
  pool.run(n, [&](std::size_t b) {
    add_noise_band(intensity.data(), first_pixel(b), first_pixel(b + 1),
                   finish.sigma, states[b]);
  });
}

}  // namespace

double LightingShift::strength_at(double t) const {
  if (t < start_time || t >= end_time) return 0.0;
  const double ramp = std::max(1e-9, ramp_time);
  const double in = (t - start_time) / ramp;
  const double out = (end_time - t) / ramp;
  return std::clamp(std::min(in, out), 0.0, 1.0);
}

std::pair<double, double> LightingScript::at(double t) const {
  double gain = 1.0;
  double bias = 0.0;
  for (const auto& s : shifts) {
    const double w = s.strength_at(t);
    if (w <= 0.0) continue;
    // Interpolate each shift toward identity by its envelope; shifts
    // compose (gains multiply, biases add).
    gain *= 1.0 + w * (s.gain - 1.0);
    bias += w * s.bias;
  }
  return {gain, bias};
}

double ShakeScript::envelope_at(double t) const {
  if (!active() || t < start_time || t >= end_time) return 0.0;
  const double ramp = std::max(1e-9, ramp_time);
  const double in = (t - start_time) / ramp;
  const double out = (end_time - t) / ramp;
  return std::clamp(std::min(in, out), 0.0, 1.0);
}

geom::SE3 ShakeScript::perturbation_at(double t) const {
  const double env = envelope_at(t);
  if (env <= 0.0) return geom::SE3::identity();
  // Two incommensurate sinusoids per axis; phases hashed from the seed so
  // the six jitter channels are mutually decorrelated while remaining a
  // pure function of t.
  const double w1 = 2.0 * M_PI * frequency_hz;
  const double w2 = w1 * 1.6180339887;  // golden ratio: aperiodic sum
  auto channel = [&](int axis, int kind) {
    const double p1 = 2.0 * M_PI * hash3(axis, kind, 1, seed);
    const double p2 = 2.0 * M_PI * hash3(axis, kind, 2, seed ^ 0x5eedULL);
    return 0.62 * std::sin(w1 * t + p1) + 0.38 * std::sin(w2 * t + p2);
  };
  const geom::Vec3 w{amplitude_rad * env * channel(0, 0),
                     amplitude_rad * env * channel(1, 0),
                     amplitude_rad * env * channel(2, 0)};
  const geom::Vec3 v{amplitude_m * env * channel(0, 1),
                     amplitude_m * env * channel(1, 1),
                     amplitude_m * env * channel(2, 1)};
  return geom::SE3{so3_exp(w), v};
}

geom::SE3 CameraPath::pose_at(double t) const {
  geom::SE3 base = geom::SE3::identity();
  switch (kind) {
    case CameraPathKind::kOrbit: {
      const double w = speed / std::max(0.5, orbit_radius);
      const double a = w * t;
      const geom::Vec3 pos{orbit_radius * std::cos(a), height,
                           orbit_radius * std::sin(a)};
      base = look_at(pos, {0.0, height * 0.6, 0.0});
      break;
    }
    case CameraPathKind::kWalk: {
      const double bob =
          bob_amplitude * std::sin(2.0 * M_PI * bob_frequency * t);
      const double sway =
          0.5 * bob_amplitude * std::sin(2.0 * M_PI * bob_frequency * t * 0.5);
      const geom::Vec3 pos{speed * (t - walk_center_time), height + bob,
                           orbit_radius + sway};
      base = look_at(pos, {0.0, height * 0.6, 0.0});
      break;
    }
    case CameraPathKind::kInspect: {
      const double w = speed / std::max(0.5, orbit_radius);
      const double a = 0.8 * std::sin(w * t);  // sweep back and forth
      const double r = orbit_radius * (0.85 + 0.15 * std::cos(0.5 * w * t));
      const geom::Vec3 pos{r * std::cos(a), height, r * std::sin(a)};
      base = look_at(pos, {0.0, height * 0.5, 0.0});
      break;
    }
  }
  if (shake.active()) {
    // Camera-frame jitter: perturb after the world->camera mapping.
    return shake.perturbation_at(t) * base;
  }
  return base;
}

SceneSimulator::SceneSimulator(SceneConfig config)
    : config_(std::move(config)),
      room_(make_room(config_.room_size, config_.room_height,
                      config_.room_size)) {}

int bands::default_count(int height) {
  const int lanes = rt::WorkerPool::shared().lanes();
  if (lanes == 1) return 1;
  return std::clamp(kBandsPerLane * lanes, 1, std::max(1, height));
}

RenderedFrame bands::render(const SceneConfig& config, const Mesh& room,
                            int frame_index, int bands) {
  const auto& cam = config.camera;
  RenderedFrame frame;
  frame.index = frame_index;
  frame.timestamp = frame_index / config.fps;
  frame.intensity = img::GrayImage(cam.width, cam.height, 0);
  frame.instance_ids = img::IdImage(cam.width, cam.height, 0);
  frame.depth = img::DepthImage(cam.width, cam.height, 1e30f);
  frame.true_t_cw = config.path.pose_at(frame.timestamp);

  rt::ArenaScope scratch;
  std::size_t triangles = room.triangles.size();
  for (const auto& obj : config.objects) triangles += obj.mesh.triangles.size();
  DrawList list(scratch, 1 + config.objects.size(), triangles);

  // Background room.
  list.add(cam, room, frame.true_t_cw, 0, config.noise_seed ^ 0x400d, 3.0);

  // Objects. Poses are recorded for every configured object (the vector
  // stays index-aligned with config().objects); only objects whose
  // presence window covers the frame are drawn.
  frame.true_t_wo.reserve(config.objects.size());
  for (const auto& obj : config.objects) {
    const geom::SE3 t_wo = obj.motion.pose_at(frame.timestamp);
    frame.true_t_wo.push_back(t_wo);
    if (!obj.present_at(frame.timestamp)) continue;
    list.add(cam, obj.mesh, frame.true_t_cw * t_wo,
             static_cast<std::uint16_t>(obj.instance_id), obj.texture_seed,
             obj.texture_scale);
  }

  // Scripted global lighting (exposure shifts, flashes), then sensor
  // noise (deterministic per frame), as real illumination would be.
  Finish finish;
  if (!config.lighting.empty()) {
    std::tie(finish.gain, finish.bias) = config.lighting.at(frame.timestamp);
    finish.lit = finish.gain != 1.0 || finish.bias != 0.0;
  }
  finish.sigma = config.pixel_noise_sigma;
  finish.noise_seed = config.noise_seed * 0x51ed2701ULL +
                      static_cast<std::uint64_t>(frame_index);
  draw_frame(list, finish, frame.intensity, frame.instance_ids, frame.depth,
             bands, scratch);
  return frame;
}

img::IdImage bands::unoccluded_ids(const SceneConfig& config,
                                   int frame_index, int object_index,
                                   int bands) {
  const auto& cam = config.camera;
  const auto& obj = config.objects.at(static_cast<std::size_t>(object_index));
  img::GrayImage intensity(cam.width, cam.height, 0);
  img::IdImage ids(cam.width, cam.height, 0);
  img::DepthImage depth(cam.width, cam.height, 1e30f);
  const double t = frame_index / config.fps;
  rt::ArenaScope scratch;
  DrawList list(scratch, 1, obj.mesh.triangles.size());
  if (obj.present_at(t)) {
    list.add(cam, obj.mesh, config.path.pose_at(t) * obj.motion.pose_at(t),
             static_cast<std::uint16_t>(obj.instance_id), obj.texture_seed,
             obj.texture_scale);
  }
  draw_frame(list, Finish{}, intensity, ids, depth, bands, scratch);
  return ids;
}

RenderedFrame SceneSimulator::render(int frame_index) const {
  return bands::render(config_, room_, frame_index,
                       bands::default_count(config_.camera.height));
}

mask::InstanceMask SceneSimulator::ground_truth_mask(
    const RenderedFrame& frame, int instance_id, ObjectClass cls) {
  mask::InstanceMask m = mask::mask_from_id_image(
      frame.instance_ids, static_cast<std::uint16_t>(instance_id));
  m.class_id = static_cast<int>(cls);
  return m;
}

mask::InstanceMask SceneSimulator::unoccluded_mask(int frame_index,
                                                   int object_index) const {
  const auto& obj = config_.objects.at(static_cast<std::size_t>(object_index));
  auto m = mask::mask_from_id_image(
      bands::unoccluded_ids(config_, frame_index, object_index,
                            bands::default_count(config_.camera.height)),
      static_cast<std::uint16_t>(obj.instance_id));
  m.class_id = static_cast<int>(obj.cls);
  return m;
}

std::vector<mask::InstanceMask> SceneSimulator::ground_truth_masks(
    const RenderedFrame& frame) const {
  const auto present = mask::masks_from_id_image(frame.instance_ids);
  std::vector<mask::InstanceMask> out;
  for (const auto& obj : config_.objects) {
    const mask::InstanceMask* m =
        mask::find_instance(present, obj.instance_id);
    if (m == nullptr) continue;
    out.push_back(*m);
    out.back().class_id = static_cast<int>(obj.cls);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-sample kernels (scene/kernels.hpp). Each AVX2 form computes, lane by
// lane, the IEEE operations of its scalar form in the same order; DESIGN.md
// §9 ("Vector kernels") lists the invariants that keep the bytes equal.

namespace kernels {

void raster_row_scalar(const RasterTriangle& tri, const RasterRow& row,
                       int first, int last, TextureSampler& texture) {
  // A local copy: the byte stores below may alias anything, and would
  // otherwise force a reload of every vertex field per pixel.
  const RasterTriangle t = tri;
  const geom::Vec2* px = t.px;
  const double* inv_z = t.inv_z;
  const double fy = row.fy;
  for (int x = first; x <= last; ++x) {
    const double fx = x + 0.5;
    // Barycentric via edge functions (sign-consistent with area).
    double w0 = ((px[1].x - fx) * (px[2].y - fy) -
                 (px[1].y - fy) * (px[2].x - fx)) * t.inv_area;
    double w1 = ((px[2].x - fx) * (px[0].y - fy) -
                 (px[2].y - fy) * (px[0].x - fx)) * t.inv_area;
    double w2 = 1.0 - w0 - w1;
    if (w0 < 0 || w1 < 0 || w2 < 0) continue;
    // Perspective-correct interpolation.
    const double iz = w0 * inv_z[0] + w1 * inv_z[1] + w2 * inv_z[2];
    const double z = 1.0 / iz;
    if (z >= row.depth[x]) continue;
    const geom::Vec3 obj =
        (t.obj[0] * (w0 * inv_z[0]) + t.obj[1] * (w1 * inv_z[1]) +
         t.obj[2] * (w2 * inv_z[2])) * z;
    row.depth[x] = static_cast<float>(z);
    row.ids[x] = row.instance_id;
    row.intensity[x] = texture(obj);
  }
}

std::uint32_t texture4_scalar(const double x[4], const double y[4],
                              const double z[4], unsigned write,
                              TextureSampler& texture) {
  std::uint32_t bytes = 0;
  for (int k = 0; k < 4; ++k) {
    if ((write >> k & 1u) == 0) continue;
    TextureSampler fresh(texture.seed(), texture.scale());
    bytes |= std::uint32_t{fresh({x[k], y[k], z[k]})} << (8 * k);
  }
  return bytes;
}

namespace {

// Pixels 2·k0 .. pixels − 1 of a noise block, one pair at a time.
void shape_noise_pairs(std::uint8_t* px, std::size_t pixels,
                       const NoiseBlock& b, double sigma, std::size_t k0) {
  auto noisy = [sigma](std::uint8_t p, double z) {
    const double v = p + (0.0 + sigma * z);
    return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
  };
  const std::size_t full = pixels / 2;
  for (std::size_t k = k0; k < full; ++k) {
    const double f = __builtin_sqrt(b.m2log_s[k] / b.s[k]);
    px[2 * k] = noisy(px[2 * k], b.u[k] * f);
    px[2 * k + 1] = noisy(px[2 * k + 1], b.v[k] * f);
  }
  if (pixels % 2 != 0) {
    const double f = __builtin_sqrt(b.m2log_s[full] / b.s[full]);
    px[2 * full] = noisy(px[2 * full], b.u[full] * f);
  }
}

}  // namespace

void shape_noise_scalar(std::uint8_t* px, std::size_t pixels,
                        const NoiseBlock& block, double sigma) {
  shape_noise_pairs(px, pixels, block, sigma, 0);
}

#if defined(__x86_64__)

namespace {

// One object-space component at four pixels: ((o0·a0 + o1·a1) + o2·a2)·z.
[[gnu::target("avx2")]] inline __m256d interpolate4(double o0, double o1,
                                                    double o2, __m256d a0,
                                                    __m256d a1, __m256d a2,
                                                    __m256d z) {
  const __m256d sum =
      _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(o0), a0),
                                  _mm256_mul_pd(_mm256_set1_pd(o1), a1)),
                    _mm256_mul_pd(_mm256_set1_pd(o2), a2));
  return _mm256_mul_pd(sum, z);
}

// a·b mod 2^64 in each 64-bit lane, from three 32x32 -> 64-bit products:
// lo(a)·lo(b) + ((hi(a)·lo(b) + lo(a)·hi(b)) << 32).
[[gnu::target("avx2")]] inline __m256i mul64(__m256i a, std::uint64_t b) {
  const __m256i b_lo = _mm256_set1_epi64x(static_cast<long long>(b));
  const __m256i b_hi = _mm256_set1_epi64x(static_cast<long long>(b >> 32));
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b_lo),
                          _mm256_slli_epi64(cross, 32));
}

// hash3 in four 64-bit lanes. The last step, (h >> 11)·2^-53, is exact:
// the 53-bit integer's high 21 bits ride in the mantissa of 2^84 and its
// low 32 bits in that of 2^52; (2^84 + hi·2^32) − (2^84 + 2^52) is an
// integer below 2^53 in magnitude, and adding 2^52 + lo gives hi·2^32 + lo,
// also below 2^53. Each step's exact result is a double, so none rounds.
[[gnu::target("avx2")]] inline __m256d hash3x4(__m256i x, __m256i y,
                                               __m256i z, __m256i seed) {
  __m256i h = _mm256_xor_si256(seed, mul64(x, 0x9e3779b97f4a7c15ULL));
  h = mul64(_mm256_xor_si256(h, _mm256_srli_epi64(h, 30)),
            0xbf58476d1ce4e5b9ULL);
  h = _mm256_xor_si256(h, mul64(y, 0xc2b2ae3d27d4eb4fULL));
  h = mul64(_mm256_xor_si256(h, _mm256_srli_epi64(h, 27)),
            0x94d049bb133111ebULL);
  h = _mm256_xor_si256(h, mul64(z, 0x165667b19e3779f9ULL));
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 31));
  const __m256i u = _mm256_srli_epi64(h, 11);
  const __m256d hi = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(u, 32), _mm256_set1_epi64x(0x4530000000000000)));
  const __m256d lo = _mm256_castsi256_pd(
      _mm256_blend_epi32(u, _mm256_set1_epi64x(0x4330000000000000), 0xaa));
  const __m256d value =
      _mm256_add_pd(_mm256_sub_pd(hi, _mm256_set1_pd(0x1p84 + 0x1p52)), lo);
  return _mm256_mul_pd(value, _mm256_set1_pd(0x1p-53));
}

// An integer-valued double in [−2^31, 2^31) as a sign-extended 64-bit lane.
[[gnu::target("avx2")]] inline __m256i cell_index4(__m256d floor) {
  return _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(floor));
}

// The sampler's scalar lookup for the lanes set in `writing`, in the low
// byte of each 32-bit lane (0 elsewhere).
[[gnu::target("avx2"), gnu::noinline, gnu::cold]] __m128i
texture4_scalar_lanes(__m256d ox, __m256d oy, __m256d oz, unsigned writing,
                      TextureSampler& texture) {
  alignas(32) double x[4], y[4], z[4];
  _mm256_store_pd(x, ox);
  _mm256_store_pd(y, oy);
  _mm256_store_pd(z, oz);
  alignas(16) std::int32_t bytes[4] = {};
  for (unsigned rest = writing; rest != 0; rest &= rest - 1) {
    const int k = __builtin_ctz(rest);
    bytes[k] = texture({x[k], y[k], z[k]});
  }
  return _mm_load_si128(reinterpret_cast<const __m128i*>(bytes));
}

// TextureSampler's byte at four lanes, in the low byte of each 32-bit lane,
// for the lanes that are all-ones in `write`; the other lanes' bytes are
// unspecified. Same products as the sampler (s = obj·scale, then s·3.1),
// floors, hash3 of both cells and (45 + 170·c) + 16·(f − 0.5), clamped by
// max then min (the hashes are in [0, 1), so no NaN reaches it) and
// truncated. A group whose writing lanes all lie in the memo's two cells
// takes its byte; a group with a floor outside [−2^31, 2^31) or NaN takes
// the sampler's scalar lookup per writing lane, which keeps its INT64_MIN
// rule exact.
[[gnu::target("avx2"), gnu::always_inline]] inline __m128i texture4(
    __m256d ox, __m256d oy, __m256d oz, __m256d write,
    TextureSampler& texture) {
  const __m256d scale = _mm256_set1_pd(texture.scale());
  const __m256d f = _mm256_set1_pd(3.1);
  const __m256d s[3] = {_mm256_mul_pd(ox, scale), _mm256_mul_pd(oy, scale),
                        _mm256_mul_pd(oz, scale)};
  __m256d cell[6];
  for (int i = 0; i < 3; ++i) {
    cell[i] = _mm256_floor_pd(s[i]);
    cell[i + 3] = _mm256_floor_pd(_mm256_mul_pd(s[i], f));
  }
  TextureSampler::GroupMemo& memo = texture.group_memo();
  const __m256d lo = _mm256_set1_pd(-0x1p31);
  const __m256d hi = _mm256_set1_pd(0x1p31);
  __m256d same = write;
  __m256d in_range = write;
  for (int i = 0; i < 6; ++i) {
    const __m256d memo_cell = _mm256_set1_pd(memo.cell[i]);
    same = _mm256_and_pd(same, _mm256_cmp_pd(cell[i], memo_cell, _CMP_EQ_OQ));
    in_range = _mm256_and_pd(
        in_range, _mm256_and_pd(_mm256_cmp_pd(cell[i], lo, _CMP_GE_OQ),
                                _mm256_cmp_pd(cell[i], hi, _CMP_LT_OQ)));
  }
  // testc(a, write): every lane that writes is set in a.
  if (_mm256_testc_pd(same, write)) return _mm_set1_epi32(memo.value);
  const unsigned writing = static_cast<unsigned>(_mm256_movemask_pd(write));
  if (!_mm256_testc_pd(in_range, write)) {
    return texture4_scalar_lanes(ox, oy, oz, writing, texture);
  }
  const std::uint64_t seed = texture.seed();
  const __m256d coarse =
      hash3x4(cell_index4(cell[0]), cell_index4(cell[1]),
              cell_index4(cell[2]),
              _mm256_set1_epi64x(static_cast<long long>(seed)));
  const __m256d fine =
      hash3x4(cell_index4(cell[3]), cell_index4(cell[4]),
              cell_index4(cell[5]),
              _mm256_set1_epi64x(static_cast<long long>(seed ^ 0xf1e5ULL)));
  const __m256d v = _mm256_add_pd(
      _mm256_add_pd(_mm256_set1_pd(45.0),
                    _mm256_mul_pd(_mm256_set1_pd(170.0), coarse)),
      _mm256_mul_pd(_mm256_set1_pd(16.0),
                    _mm256_sub_pd(fine, _mm256_set1_pd(0.5))));
  const __m128i bytes = _mm256_cvttpd_epi32(_mm256_min_pd(
      _mm256_max_pd(v, _mm256_set1_pd(15.0)), _mm256_set1_pd(240.0)));
  // The memo takes the last writing lane: the next group starts beside it.
  const int k = 31 - __builtin_clz(writing);
  alignas(32) double lane[4];
  for (int i = 0; i < 6; ++i) {
    _mm256_store_pd(lane, cell[i]);
    memo.cell[i] = lane[k];
  }
  alignas(16) std::int32_t byte[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(byte), bytes);
  memo.value = static_cast<std::uint8_t>(byte[k]);
  return bytes;
}

// px + (0.0 + sigma·z) for four pixels held as 16-bit lanes, clamped to
// [0, 255] and truncated to 32-bit lanes.
[[gnu::target("avx2")]] inline __m128i noisy4(__m128i px16, __m256d z,
                                              __m256d sigma) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d p = _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(px16));
  const __m256d v =
      _mm256_add_pd(p, _mm256_add_pd(zero, _mm256_mul_pd(sigma, z)));
  return _mm256_cvttpd_epi32(
      _mm256_min_pd(_mm256_max_pd(v, zero), _mm256_set1_pd(255.0)));
}

}  // namespace

// Four pixels of a row per step. Ordered predicates keep the scalar
// comparisons' NaN behaviour: a NaN weight is not < 0, so it passes, and
// a NaN z is not >= the stored depth, so it writes. The depth of lanes
// past `last` is never loaded (masked load) and no lane past it is
// written. Each pixel's outputs depend on that pixel alone (the texture
// byte is a pure function of its cells), so the lanes that pass write
// together: depth by masked store, and in a whole group ids and bytes by
// load, blend and store of the group's own pixels.
[[gnu::target("avx2")]] void raster_row_avx2(const RasterTriangle& t,
                                             const RasterRow& row, int first,
                                             int last,
                                             TextureSampler& texture) {
  const double fy = row.fy;
  const __m256d p0x = _mm256_set1_pd(t.px[0].x);
  const __m256d p1x = _mm256_set1_pd(t.px[1].x);
  const __m256d p2x = _mm256_set1_pd(t.px[2].x);
  // The scalar loop forms these differences per pixel; fy is per row.
  const __m256d d0y = _mm256_set1_pd(t.px[0].y - fy);
  const __m256d d1y = _mm256_set1_pd(t.px[1].y - fy);
  const __m256d d2y = _mm256_set1_pd(t.px[2].y - fy);
  const __m256d inv_area = _mm256_set1_pd(t.inv_area);
  const __m256d iz0 = _mm256_set1_pd(t.inv_z[0]);
  const __m256d iz1 = _mm256_set1_pd(t.inv_z[1]);
  const __m256d iz2 = _mm256_set1_pd(t.inv_z[2]);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d lane_x = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  const __m128i lane_index = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i lane_bit = _mm_setr_epi32(1, 2, 4, 8);
  const __m128i id = _mm_set1_epi16(static_cast<short>(row.instance_id));
  for (int x = first; x <= last; x += 4) {
    const int lanes = std::min(4, last - x + 1);
    const __m256d fx = _mm256_add_pd(_mm256_set1_pd(x + 0.5), lane_x);
    const __m256d w0 = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_mul_pd(_mm256_sub_pd(p1x, fx), d2y),
                      _mm256_mul_pd(d1y, _mm256_sub_pd(p2x, fx))),
        inv_area);
    const __m256d w1 = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_mul_pd(_mm256_sub_pd(p2x, fx), d0y),
                      _mm256_mul_pd(d2y, _mm256_sub_pd(p0x, fx))),
        inv_area);
    const __m256d w2 = _mm256_sub_pd(_mm256_sub_pd(one, w0), w1);
    const __m256d outside =
        _mm256_or_pd(_mm256_or_pd(_mm256_cmp_pd(w0, zero, _CMP_LT_OQ),
                                  _mm256_cmp_pd(w1, zero, _CMP_LT_OQ)),
                     _mm256_cmp_pd(w2, zero, _CMP_LT_OQ));
    const __m256d a0 = _mm256_mul_pd(w0, iz0);
    const __m256d a1 = _mm256_mul_pd(w1, iz1);
    const __m256d a2 = _mm256_mul_pd(w2, iz2);
    const __m256d z =
        _mm256_div_pd(one, _mm256_add_pd(_mm256_add_pd(a0, a1), a2));
    const __m128i in_row = _mm_cmpgt_epi32(_mm_set1_epi32(lanes), lane_index);
    const __m128 stored = lanes == 4
                              ? _mm_loadu_ps(row.depth + x)
                              : _mm_maskload_ps(row.depth + x, in_row);
    const __m256d hidden =
        _mm256_cmp_pd(z, _mm256_cvtps_pd(stored), _CMP_GE_OQ);
    const __m256d write = _mm256_andnot_pd(
        _mm256_or_pd(outside, hidden),
        _mm256_castsi256_pd(_mm256_cvtepi32_epi64(in_row)));
    const unsigned bits = static_cast<unsigned>(_mm256_movemask_pd(write));
    if (bits == 0) continue;
    const __m128i tex = texture4(
        interpolate4(t.obj[0].x, t.obj[1].x, t.obj[2].x, a0, a1, a2, z),
        interpolate4(t.obj[0].y, t.obj[1].y, t.obj[2].y, a0, a1, a2, z),
        interpolate4(t.obj[0].z, t.obj[1].z, t.obj[2].z, a0, a1, a2, z),
        write, texture);
    const __m128i write32 = _mm_cmpeq_epi32(
        _mm_and_si128(_mm_set1_epi32(static_cast<int>(bits)), lane_bit),
        lane_bit);
    _mm_maskstore_ps(row.depth + x, write32, _mm256_cvtpd_ps(z));
    if (lanes == 4) {
      const __m128i write16 = _mm_packs_epi32(write32, write32);
      auto* ids = reinterpret_cast<__m128i*>(row.ids + x);
      _mm_storel_epi64(ids, _mm_blendv_epi8(_mm_loadl_epi64(ids), id,
                                            write16));
      std::uint32_t px;
      std::memcpy(&px, row.intensity + x, 4);
      const __m128i tex8 =
          _mm_packus_epi16(_mm_packus_epi32(tex, tex), _mm_setzero_si128());
      px = static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_blendv_epi8(
          _mm_cvtsi32_si128(static_cast<int>(px)), tex8,
          _mm_packs_epi16(write16, write16))));
      std::memcpy(row.intensity + x, &px, 4);
    } else {
      alignas(16) std::int32_t bytes[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(bytes), tex);
      for (unsigned rest = bits; rest != 0; rest &= rest - 1) {
        const int k = __builtin_ctz(rest);
        row.ids[x + k] = row.instance_id;
        row.intensity[x + k] = static_cast<std::uint8_t>(bytes[k]);
      }
    }
  }
}

[[gnu::target("avx2")]] std::uint32_t texture4_avx2(const double x[4],
                                                    const double y[4],
                                                    const double z[4],
                                                    unsigned write,
                                                    TextureSampler& texture) {
  if ((write & 0xfu) == 0) return 0;
  const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256d lanes = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(write), lane_bit), lane_bit));
  alignas(16) std::int32_t bytes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(bytes),
                  texture4(_mm256_loadu_pd(x), _mm256_loadu_pd(y),
                           _mm256_loadu_pd(z), lanes, texture));
  std::uint32_t out = 0;
  for (int k = 0; k < 4; ++k) {
    if ((write >> k & 1u) == 0) continue;
    out |= static_cast<std::uint32_t>(bytes[k] & 0xff) << (8 * k);
  }
  return out;
}

[[gnu::target("avx2")]] void hash3_avx2(const std::int64_t x[4],
                                        const std::int64_t y[4],
                                        const std::int64_t z[4],
                                        std::uint64_t seed, double out[4]) {
  _mm256_storeu_pd(
      out, hash3x4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(x)),
                   _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y)),
                   _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z)),
                   _mm256_set1_epi64x(static_cast<long long>(seed))));
}

// Four pairs (eight pixels) per step: f = sqrt(m2log_s / s), z = u·f and
// v·f, px + (0.0 + sigma·z), clamp, truncate. Even pixels take u, odd
// pixels v. The clamp is max-then-min instead of std::clamp's compares;
// the two differ only in the sign of a zero, which truncation drops. The
// pairs after the last whole step go through the scalar form.
[[gnu::target("avx2")]] void shape_noise_avx2(std::uint8_t* px,
                                              std::size_t pixels,
                                              const NoiseBlock& b,
                                              double sigma) {
  const __m256d sig = _mm256_set1_pd(sigma);
  const __m128i low_byte = _mm_set1_epi16(0x00ff);
  const std::size_t steps = pixels / 8;
  for (std::size_t i = 0; i < steps; ++i) {
    const std::size_t k = 4 * i;
    const __m256d f = _mm256_sqrt_pd(_mm256_div_pd(
        _mm256_loadu_pd(b.m2log_s + k), _mm256_loadu_pd(b.s + k)));
    const __m256d zu = _mm256_mul_pd(_mm256_loadu_pd(b.u + k), f);
    const __m256d zv = _mm256_mul_pd(_mm256_loadu_pd(b.v + k), f);
    // 16-bit lane j holds pixel 2j (low byte) and pixel 2j + 1 (high).
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(px + 2 * k));
    const __m128i even = noisy4(_mm_and_si128(bytes, low_byte), zu, sig);
    const __m128i odd = noisy4(_mm_srli_epi16(bytes, 8), zv, sig);
    const __m128i pairs = _mm_or_si128(even, _mm_slli_epi32(odd, 8));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(px + 2 * k),
                     _mm_packus_epi32(pairs, pairs));
  }
  shape_noise_pairs(px, pixels, b, sigma, 4 * steps);
}

#else

void raster_row_avx2(const RasterTriangle& t, const RasterRow& row, int first,
                     int last, TextureSampler& texture) {
  raster_row_scalar(t, row, first, last, texture);
}

std::uint32_t texture4_avx2(const double x[4], const double y[4],
                            const double z[4], unsigned write,
                            TextureSampler& texture) {
  return texture4_scalar(x, y, z, write, texture);
}

void hash3_avx2(const std::int64_t x[4], const std::int64_t y[4],
                const std::int64_t z[4], std::uint64_t seed, double out[4]) {
  for (int k = 0; k < 4; ++k) out[k] = hash3(x[k], y[k], z[k], seed);
}

void shape_noise_avx2(std::uint8_t* px, std::size_t pixels,
                      const NoiseBlock& block, double sigma) {
  shape_noise_scalar(px, pixels, block, sigma);
}

#endif

}  // namespace kernels

}  // namespace edgeis::scene
