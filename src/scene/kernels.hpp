// The renderer's per-sample kernels, each in a scalar and an AVX2 form,
// and the noise draws, one form for every CPU. Internal to the scene
// library: SceneSimulator picks a form per call with rt::cpu_has_avx2(),
// and the tests compare the two forms byte for byte.
// The AVX2 forms exist only on x86-64; elsewhere they forward to the
// scalar form, and nothing calls them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geometry/vec.hpp"
#include "scene/texture.hpp"

namespace edgeis::scene::kernels {

/// One projected triangle, set up for filling rows.
struct RasterTriangle {
  geom::Vec2 px[3];   // pixel-space vertices
  double inv_z[3];    // 1 / camera-space depth of each vertex
  geom::Vec3 obj[3];  // object-space position of each vertex
  double inv_area;    // 1 / signed area of px
};

/// Row y of the three frame buffers, and what a covered pixel gets.
struct RasterRow {
  double fy;  // pixel-centre y, y + 0.5
  std::uint8_t* intensity;
  std::uint16_t* ids;
  float* depth;
  std::uint16_t instance_id;
};

/// Fills pixels first..last (inclusive, all inside the row) with the
/// triangle wherever its weights are all >= 0 and it is nearer than the
/// depth already there: depth, id, then the texture byte, in ascending x.
void raster_row_scalar(const RasterTriangle& t, const RasterRow& row,
                       int first, int last, TextureSampler& texture);
void raster_row_avx2(const RasterTriangle& t, const RasterRow& row,
                     int first, int last, TextureSampler& texture);

/// The texture bytes of four object-space points (x[k], y[k], z[k]):
/// byte k of the result is lane k's byte when bit k of `write` is set, and
/// 0 otherwise. The scalar form takes four fresh lookups. The AVX2 form
/// hashes the cells in vector lanes, reuses `texture`'s group memo, and
/// hands a group with a cell floor outside [−2^31, 2^31) (or NaN) to
/// `texture`'s scalar lookup.
std::uint32_t texture4_scalar(const double x[4], const double y[4],
                              const double z[4], unsigned write,
                              TextureSampler& texture);
std::uint32_t texture4_avx2(const double x[4], const double y[4],
                            const double z[4], unsigned write,
                            TextureSampler& texture);

/// hash3 of four cells, as the AVX2 texture kernel computes it.
void hash3_avx2(const std::int64_t x[4], const std::int64_t y[4],
                const std::int64_t z[4], std::uint64_t seed, double out[4]);

/// One block of Marsaglia polar draws for the sensor noise: pair k is
/// (u[k], v[k]) with s[k] = u² + v², and m2log_s[k] = -2 ln s[k].
inline constexpr std::size_t kNoiseBlockPairs = 256;
struct NoiseBlock {
  alignas(32) double u[kNoiseBlockPairs];
  alignas(32) double v[kNoiseBlockPairs];
  alignas(32) double s[kNoiseBlockPairs];
  alignas(32) double m2log_s[kNoiseBlockPairs];
};

/// Fills pairs 0 .. pairs − 1 (at most kNoiseBlockPairs) of `block` with
/// the (u, v, s) triples that `pairs` calls of rt::Rng::polar_draw would
/// accept, leaving `rng` in the same state. Every attempt is written to
/// slot k, and k advances when s < 1 and s != 0, so no branch depends on
/// the draw. `Generator` provides uniform(lo, hi) as rt::Rng does.
template <typename Generator>
void draw_polar(Generator& rng, NoiseBlock& block, std::size_t pairs) {
  std::size_t k = 0;
  while (k < pairs) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    block.u[k] = u;
    block.v[k] = v;
    block.s[k] = s;
    k += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
  }
}

/// Adds sigma·N(0, 1) to `pixels` bytes (at most 2·kNoiseBlockPairs):
/// pixel 2k gets u[k]·f and pixel 2k + 1 gets v[k]·f, with
/// f = sqrt(m2log_s[k] / s[k]), as px + (0.0 + sigma·z), clamped to
/// [0, 255] and truncated.
void shape_noise_scalar(std::uint8_t* px, std::size_t pixels,
                        const NoiseBlock& block, double sigma);
void shape_noise_avx2(std::uint8_t* px, std::size_t pixels,
                      const NoiseBlock& block, double sigma);

}  // namespace edgeis::scene::kernels
