// Procedural surface texture of the synthetic scene.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "geometry/vec.hpp"

namespace edgeis::scene {

/// Deterministic 3-D integer hash -> [0, 1).
double hash3(std::int64_t x, std::int64_t y, std::int64_t z,
             std::uint64_t seed);

// Procedural texture: cells whose brightness is an independent hash of the
// cell coordinates, plus a finer second octave. Neighboring cells differ
// sharply (FAST corners at every cell boundary) while the pattern is
// aperiodic, so BRIEF descriptors are locally unique — a periodic pattern
// (e.g. a plain checkerboard) would alias feature matches coherently and
// poison RANSAC with a self-consistent false consensus.
//
// Neighbouring pixels mostly land in the same cell, so the sampler keeps
// each octave's last cell as [lo, lo + 1) per axis and reuses its hash
// while the scaled position stays inside. lo is an integer-valued double,
// so lo <= v < lo + 1 holds exactly when floor(v) == lo: a hit returns the
// byte a fresh floor + hash3 would. The renderer makes one sampler per
// mesh it rasterizes; no state outlives it.
class TextureSampler {
 public:
  TextureSampler(std::uint64_t seed, double scale)
      : seed_(seed), scale_(scale) {}

  std::uint8_t operator()(const geom::Vec3& p_obj) {
    const double sx = p_obj.x * scale_;
    const double sy = p_obj.y * scale_;
    const double sz = p_obj.z * scale_;
    const double f = 3.1;  // non-commensurate with the coarse lattice
    bool moved = coarse_.enter(sx, sy, sz, seed_);
    moved |= fine_.enter(sx * f, sy * f, sz * f, seed_ ^ 0xf1e5ULL);
    if (moved) {
      const double v = 45.0 + 170.0 * coarse_.hash + 16.0 * (fine_.hash - 0.5);
      value_ = static_cast<std::uint8_t>(std::clamp(v, 15.0, 240.0));
    }
    return value_;
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }

  /// The memo of the vector texture kernel (kernels::texture4_avx2): the
  /// cell floors of the lane it hashed last (coarse x, y, z, then fine x,
  /// y, z) and that lane's byte. The byte is a pure function of the two
  /// cells, so a group of lanes that all lie in both cells takes it
  /// unchanged. NaN floors never compare equal: the first group hashes.
  struct GroupMemo {
    double cell[6] = {kNaN, kNaN, kNaN, kNaN, kNaN, kNaN};
    std::uint8_t value = 0;
  };
  GroupMemo& group_memo() noexcept { return group_; }

 private:
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  struct Cell {
    // NaN bounds: the first lookup always misses.
    double lo[3] = {kNaN, kNaN, kNaN};
    double hi[3] = {kNaN, kNaN, kNaN};
    double hash = 0.0;

    // An integer-valued double as a cell index. NaN, ±inf and values at
    // or past ±2^63 (a NaN weight in the rasterizer reaches here) map to
    // INT64_MIN, which is what the x86-64 conversion returns for them;
    // the bare cast is undefined there.
    static std::int64_t cell_index(double lo) {
      constexpr double kLimit = 0x1p63;
      if (lo >= -kLimit && lo < kLimit) return static_cast<std::int64_t>(lo);
      return std::numeric_limits<std::int64_t>::min();
    }

    // Moves to the cell holding (x, y, z); true when it changed cell.
    bool enter(double x, double y, double z, std::uint64_t seed) {
      const bool in_xy = x >= lo[0] && x < hi[0] && y >= lo[1] && y < hi[1];
      if (in_xy && z >= lo[2] && z < hi[2]) return false;
      const double v[3] = {x, y, z};
      std::int64_t c[3];
      for (int i = 0; i < 3; ++i) {
        lo[i] = std::floor(v[i]);
        hi[i] = lo[i] + 1.0;
        c[i] = cell_index(lo[i]);
      }
      hash = hash3(c[0], c[1], c[2], seed);
      return true;
    }
  };

  std::uint64_t seed_;
  double scale_;
  Cell coarse_;
  Cell fine_;
  std::uint8_t value_ = 0;
  GroupMemo group_;
};

}  // namespace edgeis::scene
