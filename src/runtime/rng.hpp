// Deterministic random number generation for reproducible experiments.
//
// Every component that needs randomness takes an explicit Rng (or a seed to
// construct one); there is no global generator and no wall-clock seeding, so
// identical seeds always reproduce identical experiment outputs.
#pragma once

#include <cstdint>
#include <limits>

namespace edgeis::rt {

/// xoshiro256** — small, fast, high-quality PRNG with a splitmix64 seeder.
/// Satisfies the essential parts of UniformRandomBitGenerator so it can be
/// used with <random> distributions if ever needed, though we provide the
/// few distributions the project uses directly.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept {
    // splitmix64 to spread a small seed over the whole state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// One accepted draw of the Marsaglia polar method: (u, v) uniform in
  /// the unit disc minus its centre, s = u² + v². The two normals are
  /// u·f and v·f with f = polar_factor(s).
  struct PolarDraw {
    double u, v, s;
  };
  // Forced inline: without it normal() grows past the size at which GCC
  // inlines it into loops such as the BRIEF pattern draw in set-up.
  [[gnu::always_inline]] PolarDraw polar_draw() noexcept {
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    return {u, v, s};
  }

  /// sqrt(-2 ln s / s). No <cmath> in the header's hot path; call libm
  /// directly.
  static double polar_factor(double s) noexcept {
    return __builtin_sqrt(-2.0 * __builtin_log(s) / s);
  }

  /// Standard normal via Marsaglia polar method: returns u·f and keeps v·f
  /// as the spare for the next call.
  double normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    const PolarDraw d = polar_draw();
    const double f = polar_factor(d.s);
    spare_ = d.v * f;
    has_spare_ = true;
    return d.u * f;
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Derive an independent child generator (for parallel sub-streams).
  Rng fork() noexcept { return Rng((*this)() ^ 0xa5a5a5a5a5a5a5a5ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace edgeis::rt
