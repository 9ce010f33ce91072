// Streaming and batch statistics used across the evaluation harness:
// running mean/variance, percentiles, histograms and empirical CDFs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace edgeis::rt {

/// Welford's online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept {
    return std::sqrt(variance());
  }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch sample collection with percentile queries and CDF export.
/// Order statistics (percentile, min/max, CDF) share a lazily-sorted cache
/// rebuilt at most once per batch of add()s — the evaluator and the CDF
/// benches query percentiles repeatedly between insertions.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_valid_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  [[nodiscard]] double mean() const noexcept {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }

  /// Linear-interpolated percentile; p in [0, 100].
  [[nodiscard]] double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    const std::vector<double>& s = sorted();
    const double rank =
        p / 100.0 * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, s.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return s[lo] + frac * (s[hi] - s[lo]);
  }

  [[nodiscard]] double min() const {
    return samples_.empty() ? 0.0 : sorted().front();
  }
  [[nodiscard]] double max() const {
    return samples_.empty() ? 0.0 : sorted().back();
  }

  /// Fraction of samples strictly below `threshold`.
  [[nodiscard]] double fraction_below(double threshold) const {
    if (samples_.empty()) return 0.0;
    const std::vector<double>& s = sorted();
    const auto it = std::lower_bound(s.begin(), s.end(), threshold);
    return static_cast<double>(it - s.begin()) /
           static_cast<double>(s.size());
  }

  /// Empirical CDF sampled at `points` evenly spaced values across
  /// [lo, hi]. Returns (x, P[X <= x]) pairs.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(
      double lo, double hi, std::size_t points) const {
    const std::vector<double>& s = sorted();
    std::vector<std::pair<double, double>> out;
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
      const double x =
          lo + (hi - lo) * static_cast<double>(i) /
                   static_cast<double>(points > 1 ? points - 1 : 1);
      const auto it = std::upper_bound(s.begin(), s.end(), x);
      const double frac =
          s.empty() ? 0.0
                    : static_cast<double>(it - s.begin()) /
                          static_cast<double>(s.size());
      out.emplace_back(x, frac);
    }
    return out;
  }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  const std::vector<double>& sorted() const {
    if (!sorted_valid_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_ = true;
    }
    return sorted_;
  }

  std::vector<double> samples_;  // insertion order (samples() contract)
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Mobile-side link health accounting under fault injection: what the
/// request ledger observed (timeouts, retries, degraded-mode time) plus
/// the link-level faults actually injected. Filled by the pipelines;
/// consumed by the fault-sweep bench and the fault tests. All fields are
/// deterministic for a fixed seed and fault script.
struct LinkHealthStats {
  // Request ledger.
  int requests_sent = 0;        // unique requests (first attempts only)
  int retransmissions = 0;      // backoff-scheduled re-sends
  int attempt_timeouts = 0;     // attempts whose deadline expired
  int requests_failed = 0;      // requests that exhausted every retry
  int responses_received = 0;   // responses matched to a ledger entry
  int stale_responses = 0;      // duplicate / post-abandon deliveries ignored
  // A retransmission proved unnecessary: the response to an earlier
  // attempt arrived after a later attempt was already on the wire (the
  // deadline fired on a slow response, not a lost one).
  int spurious_retransmissions = 0;
  // Streamed (full-duplex) responses: per-instance chunk accounting.
  int chunks_received = 0;      // distinct chunks matched to a ledger entry
  int duplicate_chunks = 0;     // chunk re-deliveries ignored (idempotent)
  int partial_applies = 0;      // chunks applied before their set completed
  int resend_requests = 0;      // missing-chunk-set retransmissions sent
  // Adaptive RTO (net/rto.hpp) — gauges read at the end of the run.
  double srtt_ms = 0.0;
  double rttvar_ms = 0.0;
  double rto_ms = 0.0;
  int rtt_samples = 0;          // accepted samples (Karn's rule filters)
  int rto_backoffs = 0;         // timeout-driven RTO inflations
  // Admission control (shared multi-client edge GPU): explicit server
  // pushback, distinct from timeouts — the link answered, the GPU queue
  // was full.
  int admission_rejects = 0;    // inference requests refused at the gate
  int busy_pings = 0;           // ping echoes carrying the saturated flag
  // Degraded mode.
  int probes_sent = 0;          // liveness pings while degraded
  int degraded_entries = 0;     // times degraded mode was entered
  int degraded_frames = 0;
  double time_in_degraded_ms = 0.0;
  int refresh_requests = 0;     // full-quality refreshes after recovery
  // Canvas-delta uplink (enc::Canvas + enc::UplinkEncoder). Zero in full
  // uplink mode.
  int canvas_full_keyframes = 0;  // full (canvas-seeding) uploads
  int canvas_deltas = 0;          // delta uploads
  int canvas_resyncs = 0;         // edge refused a delta (epoch mismatch)
  long long canvas_tiles_sent = 0;    // tiles actually put on the wire
  long long canvas_tiles_reused = 0;  // tiles the edge filled from canvas
  // Link-level ground truth (from the fault injectors).
  int uplink_drops = 0;
  int downlink_drops = 0;
  int duplicates_injected = 0;
  int reorders_injected = 0;
  /// Per-frame age of the newest applied edge annotation while running.
  SampleSet mask_staleness_ms;
};

}  // namespace edgeis::rt
