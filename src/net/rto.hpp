// Adaptive retransmission timeout for the request ledger: a TCP-style
// Jacobson/Karels estimator (RFC 6298) of the mobile<->edge round trip.
// The field study (Section VI-C2) runs over real WiFi/LTE where round
// trips swing by an order of magnitude; a fixed per-link deadline either
// fires spuriously on slow links (wasted retransmissions and radio
// energy) or reacts too late on fast ones (stale masks). The estimator
// is seeded from the link profile's base latency, fed by every completed
// request and ping probe (never by a retransmitted request — Karn's
// rule), and backs off exponentially while attempts keep expiring.
#pragma once

#include <algorithm>
#include <cmath>

namespace edgeis::net {

/// Tuning knobs for RttEstimator. The defaults are deliberately
/// link-agnostic: the per-link information enters through the seed RTT,
/// not through per-deployment tuning (the point of replacing the fixed
/// `request_timeout_ms`).
struct RtoConfig {
  double min_rto_ms = 200.0;   // lower clamp on the computed RTO
  double max_rto_ms = 6000.0;  // upper clamp, also caps the backoff
  /// Floor on the deviation term. Responses are observed at frame
  /// granularity and clean links still carry congestion bursts the
  /// EWMA deviation forgets between spikes; the floor keeps a tightly
  /// converged RTO from firing on the first post-calm burst.
  double rttvar_floor_ms = 40.0;
  /// Compute allowance added to the link's propagation round trip when
  /// seeding the estimator: the first real sample includes an inference
  /// pass the link profile knows nothing about.
  double initial_compute_guess_ms = 800.0;
};

/// Smoothed RTT + deviation with exponential timeout backoff.
///
///   first sample:  srtt = r,              rttvar = r / 2
///   then:          rttvar = 3/4 rttvar + 1/4 |srtt - r|
///                  srtt   = 7/8 srtt   + 1/8 r
///   rto = clamp(srtt + 4 * max(rttvar, floor)) * backoff
///
/// `on_timeout()` multiplies the backoff (evidence the estimate is
/// stale); any accepted sample resets it (the link answered).
class RttEstimator {
 public:
  RttEstimator() : RttEstimator(RtoConfig{}, 100.0) {}

  /// `seed_rtt_ms` is the pre-sample round-trip guess, conventionally
  /// `2 * link.base_latency_ms + cfg.initial_compute_guess_ms`. The
  /// seed uses the first-sample rule (rttvar = rtt/2), so the initial
  /// RTO is a generous 3x the guess.
  RttEstimator(const RtoConfig& cfg, double seed_rtt_ms)
      : cfg_(cfg),
        seed_rtt_ms_(seed_rtt_ms),
        srtt_ms_(seed_rtt_ms),
        rttvar_ms_(seed_rtt_ms / 2.0) {}

  /// Feed one measured round trip. Callers enforce Karn's rule: only
  /// never-retransmitted requests (and ping probes, which never retry)
  /// may be sampled.
  void sample(double rtt_ms) {
    if (rtt_ms < 0.0) return;
    if (samples_ == 0) {
      srtt_ms_ = rtt_ms;
      rttvar_ms_ = rtt_ms / 2.0;
    } else {
      rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - rtt_ms);
      srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * rtt_ms;
    }
    ++samples_;
    backoff_ = 1.0;
  }

  /// An attempt deadline expired: inflate the RTO. The multiplier keeps
  /// growing past the max_rto clamp (bounded only against overflow) so
  /// degraded-mode entry can key off the inflation itself, even under a
  /// min==max "fixed timeout" configuration.
  void on_timeout() {
    // Multiplier applied to the RTO per timeout (Karn backoff).
    constexpr double kBackoffFactor = 2.0;
    ++timeouts_;
    backoff_ = std::min(backoff_ * kBackoffFactor, 1048576.0);
  }

  /// A response arrived (possibly unsampleable under Karn's rule): the
  /// link is alive, so the inflation is no longer warranted.
  void reset_backoff() { backoff_ = 1.0; }

  [[nodiscard]] double rto_ms() const {
    const double base =
        srtt_ms_ + 4.0 * std::max(rttvar_ms_, cfg_.rttvar_floor_ms);
    return std::clamp(base * backoff_, cfg_.min_rto_ms, cfg_.max_rto_ms);
  }

  [[nodiscard]] double srtt_ms() const { return srtt_ms_; }
  [[nodiscard]] double rttvar_ms() const { return rttvar_ms_; }
  /// Current backoff multiplier; 1.0 when the last event was a response.
  [[nodiscard]] double backoff() const { return backoff_; }
  [[nodiscard]] int samples() const { return samples_; }
  [[nodiscard]] int timeouts() const { return timeouts_; }
  [[nodiscard]] const RtoConfig& config() const { return cfg_; }
  /// The pre-sample seed guess — the healthy-link reference point that
  /// congestion estimates (srtt / seed) are measured against.
  [[nodiscard]] double seed_rtt_ms() const { return seed_rtt_ms_; }
  /// Live link-pressure factor, >= 1: how much slower the link answers
  /// than its healthy seed, or the timeout backoff when attempts are
  /// expiring — whichever signal is worse.
  [[nodiscard]] double congestion() const {
    const double slowdown = seed_rtt_ms_ > 0.0 ? srtt_ms_ / seed_rtt_ms_ : 1.0;
    return std::max({1.0, slowdown, backoff_});
  }

 private:
  RtoConfig cfg_;
  double seed_rtt_ms_;
  double srtt_ms_;
  double rttvar_ms_;
  double backoff_ = 1.0;
  int samples_ = 0;
  int timeouts_ = 0;
};

}  // namespace edgeis::net
