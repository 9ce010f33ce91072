// Named metrics registry: monotonically increasing counters, last-value
// gauges, and bounded-memory histograms. The registry is filled after a
// run (rt::publish derives it from LinkHealthStats), so entries are
// addressed by string key; sketch_handle gives a histogram's stable
// reference for bulk replay. The histogram backend is a P²/reservoir
// quantile sketch (QuantileSketch), so a 1000-client fleet run costs
// O(clients · metrics) memory instead of O(samples). A snapshot exports to
// JSON (edgeis_cli --metrics) and parses back (MetricsSnapshot::parse_json)
// — including non-finite values, written as the NaN/Infinity literals
// Python's json module round-trips — so harnesses and tests can compare
// the numbers without an external JSON dependency.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/rng.hpp"
#include "runtime/stats.hpp"

namespace edgeis::rt {

/// Bounded-memory quantile estimator. Below `capacity` samples every value
/// is retained, and percentiles match SampleSet's linear interpolation
/// exactly. Beyond it, two estimators share the stream: P² markers (Jain &
/// Chlamtac 1985) track the exported p50/p90/p99, and a deterministic
/// reservoir (Algorithm R on a fixed-seed Rng, so identical insertion
/// sequences always produce identical sketches) answers every other
/// percentile from a uniform subsample. count/mean/min/max stay exact at
/// any stream length.
class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t capacity = 1024)
      : capacity_(std::max<std::size_t>(capacity, 8)),
        rng_(0x51e7c4a9u),
        p2_{P2Marker(0.50), P2Marker(0.90), P2Marker(0.99)} {}

  void add(double x) {
    ++count_;
    mean_ += (x - mean_) / static_cast<double>(count_);
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
    if (samples_.size() < capacity_) {
      samples_.push_back(x);
    } else {
      const std::uint64_t j = rng_.uniform_int(count_);
      if (j < capacity_) samples_[j] = x;
    }
    sorted_valid_ = false;
    for (auto& m : p2_) m.add(x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  /// True while every sample is still retained (percentiles are exact).
  [[nodiscard]] bool exact() const noexcept { return count_ <= capacity_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Linear-interpolated percentile; p in [0, 100]. Exact below capacity;
  /// P² for the tracked 50/90/99 beyond it, reservoir otherwise.
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    if (!exact()) {
      for (const auto& m : p2_) {
        if (std::abs(m.quantile() * 100.0 - p) < 1e-9) return m.estimate();
      }
    }
    const std::vector<double>& s = sorted();
    const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, s.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return s[lo] + frac * (s[hi] - s[lo]);
  }

  /// Resident footprint: the bound the fleet bench reports as "peak
  /// metrics memory". Counts the reservoir and its sort cache at their
  /// steady-state (capacity) size.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(*this) + 2 * capacity_ * sizeof(double);
  }

 private:
  /// One P² marker set: five heights maintained so the middle one tracks
  /// the target quantile without storing the stream.
  class P2Marker {
   public:
    explicit P2Marker(double q) : q_(q) {}

    void add(double x) {
      if (seen_ < 5) {
        height_[seen_++] = x;
        if (seen_ == 5) {
          std::sort(height_, height_ + 5);
          for (int i = 0; i < 5; ++i) pos_[i] = i + 1;
          desired_[0] = 1.0;
          desired_[1] = 1.0 + 2.0 * q_;
          desired_[2] = 1.0 + 4.0 * q_;
          desired_[3] = 3.0 + 2.0 * q_;
          desired_[4] = 5.0;
          incr_[0] = 0.0;
          incr_[1] = q_ / 2.0;
          incr_[2] = q_;
          incr_[3] = (1.0 + q_) / 2.0;
          incr_[4] = 1.0;
        }
        return;
      }
      int k = 3;
      if (x < height_[0]) {
        height_[0] = x;
        k = 0;
      } else if (x >= height_[4]) {
        height_[4] = x;
      } else {
        for (int i = 1; i < 5; ++i) {
          if (x < height_[i]) {
            k = i - 1;
            break;
          }
        }
      }
      for (int i = k + 1; i < 5; ++i) ++pos_[i];
      for (int i = 0; i < 5; ++i) desired_[i] += incr_[i];
      for (int i = 1; i < 4; ++i) {
        const double d = desired_[i] - static_cast<double>(pos_[i]);
        if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1) ||
            (d <= -1.0 && pos_[i - 1] - pos_[i] < -1)) {
          const int s = d >= 0.0 ? 1 : -1;
          const double h = parabolic(i, s);
          height_[i] = (height_[i - 1] < h && h < height_[i + 1])
                           ? h
                           : linear(i, s);
          pos_[i] += s;
        }
      }
    }

    [[nodiscard]] double quantile() const noexcept { return q_; }
    /// Only meaningful past the five-sample prime; the sketch never asks
    /// earlier (below capacity the exact path answers).
    [[nodiscard]] double estimate() const noexcept { return height_[2]; }

   private:
    [[nodiscard]] double parabolic(int i, int s) const {
      const double d = static_cast<double>(s);
      const double np = static_cast<double>(pos_[i + 1] - pos_[i]);
      const double nm = static_cast<double>(pos_[i] - pos_[i - 1]);
      return height_[i] +
             d / static_cast<double>(pos_[i + 1] - pos_[i - 1]) *
                 ((nm + d) * (height_[i + 1] - height_[i]) / np +
                  (np - d) * (height_[i] - height_[i - 1]) / nm);
    }
    [[nodiscard]] double linear(int i, int s) const {
      return height_[i] + static_cast<double>(s) *
                              (height_[i + s] - height_[i]) /
                              static_cast<double>(pos_[i + s] - pos_[i]);
    }

    double q_ = 0.5;
    int seen_ = 0;
    double height_[5] = {};
    long long pos_[5] = {};
    double desired_[5] = {};
    double incr_[5] = {};
  };

  [[nodiscard]] const std::vector<double>& sorted() const {
    if (!sorted_valid_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_ = true;
    }
    return sorted_;
  }

  std::size_t capacity_;
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  Rng rng_;
  P2Marker p2_[3];
};

/// Pre-registered counter handle: look the name up once, bump a stable
/// reference thereafter (std::map nodes never move, so handles stay valid
/// for the registry's lifetime no matter what is registered later).
class Counter {
 public:
  void add(double delta = 1.0) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Pre-registered last-value gauge handle; same lifetime rules as Counter.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Per-session staleness-SLO state machine: every processed frame lands in
/// one of three states — clean (annotation younger than the SLO), stale
/// (annotation at or past it), degraded (serving locally, link given up) —
/// and the tracker accumulates dwell time per state plus a violation
/// counter (transitions out of clean). Time between two frames is
/// attributed to the state the earlier frame observed.
class SloTracker {
 public:
  enum class State { kClean = 0, kStale = 1, kDegraded = 2 };

  struct Summary {
    double clean_ms = 0.0;
    double stale_ms = 0.0;
    double degraded_ms = 0.0;
    int frames = 0;
    int violation_frames = 0;  // frames observed stale or degraded
    int violations = 0;        // clean -> (stale | degraded) transitions
  };

  explicit SloTracker(double staleness_slo_ms = 1000.0)
      : slo_ms_(staleness_slo_ms) {}

  /// One processed frame. `staleness_ms < 0` means no edge annotation has
  /// been applied yet (bootstrap): clean unless the session is degraded.
  void observe_frame(double now_ms, double staleness_ms, bool degraded) {
    const State next =
        degraded ? State::kDegraded
                 : (staleness_ms >= slo_ms_ ? State::kStale : State::kClean);
    if (has_prev_ && now_ms > prev_ms_) {
      dwell_ms_[static_cast<int>(state_)] += now_ms - prev_ms_;
    }
    if (state_ == State::kClean && next != State::kClean && has_prev_) {
      ++summary_.violations;
    }
    if (next != State::kClean) ++summary_.violation_frames;
    ++summary_.frames;
    state_ = next;
    prev_ms_ = now_ms;
    has_prev_ = true;
  }

  /// Close the run: attribute the tail (last frame to `end_ms`) to the
  /// final state.
  void finish(double end_ms) {
    if (has_prev_ && end_ms > prev_ms_) {
      dwell_ms_[static_cast<int>(state_)] += end_ms - prev_ms_;
      prev_ms_ = end_ms;
    }
  }

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] double slo_ms() const noexcept { return slo_ms_; }
  [[nodiscard]] Summary summary() const {
    Summary s = summary_;
    s.clean_ms = dwell_ms_[0];
    s.stale_ms = dwell_ms_[1];
    s.degraded_ms = dwell_ms_[2];
    return s;
  }

 private:
  double slo_ms_;
  State state_ = State::kClean;
  double prev_ms_ = 0.0;
  bool has_prev_ = false;
  double dwell_ms_[3] = {};
  Summary summary_;
};

/// Flattened registry contents: what to_json() writes, what parse_json()
/// reads back. Histograms are summarized (count/mean/min/max/percentiles);
/// raw samples never leave the registry.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::map<std::string, double>> histograms;

  /// Parse the subset of JSON that to_json() emits. Returns nullopt on
  /// malformed input.
  static std::optional<MetricsSnapshot> parse_json(std::string_view json);
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t sketch_capacity = 1024)
      : sketch_capacity_(sketch_capacity) {}

  /// The named histogram, created on first use: one map lookup, then
  /// plain sketch adds. Valid for the registry's lifetime.
  QuantileSketch& sketch_handle(const std::string& name) {
    return histograms_.try_emplace(name, sketch_capacity_).first->second;
  }

  void counter_add(const std::string& name, double delta = 1.0) {
    counters_[name].add(delta);
  }
  void gauge_set(const std::string& name, double value) {
    gauges_[name].set(value);
  }
  void observe(const std::string& name, double sample) {
    histograms_.try_emplace(name, sketch_capacity_)
        .first->second.add(sample);
  }

  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second.value();
  }
  [[nodiscard]] double gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second.value();
  }
  [[nodiscard]] const QuantileSketch* histogram(
      const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  /// Approximate resident footprint of everything registered — the number
  /// a fleet run reports so "bounded memory" is a measured claim, not an
  /// asserted one. Keys, values, sketch reservoirs, and a per-node map
  /// overhead estimate.
  [[nodiscard]] std::size_t approx_memory_bytes() const {
    constexpr std::size_t kNode = 4 * sizeof(void*);  // rb-tree node links
    std::size_t total = sizeof(*this);
    for (const auto& [name, c] : counters_) {
      total += kNode + name.capacity() + sizeof(c);
    }
    for (const auto& [name, g] : gauges_) {
      total += kNode + name.capacity() + sizeof(g);
    }
    for (const auto& [name, sketch] : histograms_) {
      total += kNode + name.capacity() + sketch.memory_bytes();
    }
    return total;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    for (const auto& [name, c] : counters_) s.counters[name] = c.value();
    for (const auto& [name, g] : gauges_) s.gauges[name] = g.value();
    for (const auto& [name, sketch] : histograms_) {
      auto& h = s.histograms[name];
      h["count"] = static_cast<double>(sketch.count());
      h["mean"] = sketch.mean();
      h["min"] = sketch.min();
      h["max"] = sketch.max();
      h["p50"] = sketch.percentile(50.0);
      h["p90"] = sketch.percentile(90.0);
      h["p99"] = sketch.percentile(99.0);
    }
    return s;
  }

  [[nodiscard]] std::string to_json() const { return to_json(snapshot()); }

  static std::string to_json(const MetricsSnapshot& s) {
    std::string out = "{\n  \"counters\": {";
    append_flat(out, s.counters);
    out += "},\n  \"gauges\": {";
    append_flat(out, s.gauges);
    out += "},\n  \"histograms\": {";
    bool first = true;
    for (const auto& [name, fields] : s.histograms) {
      if (!first) out += ',';
      first = false;
      out += "\n    \"";
      append_escaped(out, name);
      out += "\": {";
      append_flat(out, fields);
      out += '}';
    }
    if (!s.histograms.empty()) out += "\n  ";
    out += "}\n}\n";
    return out;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::string json = to_json();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  static void append_escaped(std::string& out, const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
  }

  static void append_flat(std::string& out,
                          const std::map<std::string, double>& kv) {
    bool first = true;
    char buf[48];
    for (const auto& [key, value] : kv) {
      if (!first) out += ", ";
      first = false;
      out += '"';
      append_escaped(out, key);
      out += "\": ";
      // Non-finite values use the bare literals Python's json module both
      // emits and accepts, so a snapshot with a NaN gauge still
      // round-trips through every consumer we have.
      if (std::isnan(value)) {
        out += "NaN";
      } else if (std::isinf(value)) {
        out += value > 0.0 ? "Infinity" : "-Infinity";
      } else {
        const auto ll = static_cast<long long>(value);
        if (static_cast<double>(ll) == value && value > -1e15 &&
            value < 1e15) {
          std::snprintf(buf, sizeof(buf), "%lld", ll);
        } else {
          std::snprintf(buf, sizeof(buf), "%.17g", value);
        }
        out += buf;
      }
    }
  }

  std::size_t sketch_capacity_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, QuantileSketch> histograms_;
};

/// Export one session's LinkHealthStats into `reg`: the ledger and
/// degraded-mode counters (added, zeros included, so a registry shared by
/// a fleet sums them), the RTT estimator's srtt/rto as gauges (last
/// writer wins), and every mask-staleness sample into the
/// `mask_staleness_ms` sketch. Call once per session after its run;
/// LinkHealthStats stays the only source of these numbers.
inline void publish(const LinkHealthStats& h, MetricsRegistry& reg) {
  const std::pair<const char*, int> counters[] = {
      {"requests_sent", h.requests_sent},
      {"retransmissions", h.retransmissions},
      {"attempt_timeouts", h.attempt_timeouts},
      {"requests_failed", h.requests_failed},
      {"responses_received", h.responses_received},
      {"stale_responses", h.stale_responses},
      {"spurious_retransmissions", h.spurious_retransmissions},
      {"chunks_received", h.chunks_received},
      {"duplicate_chunks", h.duplicate_chunks},
      {"partial_applies", h.partial_applies},
      {"resend_requests", h.resend_requests},
      {"admission_rejects", h.admission_rejects},
      {"busy_pings", h.busy_pings},
      {"probes_sent", h.probes_sent},
      {"degraded_entries", h.degraded_entries},
      {"degraded_frames", h.degraded_frames},
      {"refresh_requests", h.refresh_requests},
      {"canvas_deltas", h.canvas_deltas},
      {"canvas_resyncs", h.canvas_resyncs},
  };
  for (const auto& [name, value] : counters) reg.counter_add(name, value);
  reg.gauge_set("srtt_ms", h.srtt_ms);
  reg.gauge_set("rto_ms", h.rto_ms);
  QuantileSketch& staleness = reg.sketch_handle("mask_staleness_ms");
  for (double x : h.mask_staleness_ms.samples()) staleness.add(x);
}

namespace detail {

/// Minimal recursive-descent reader for the two-level JSON objects of
/// numbers that MetricsRegistry emits. Not a general JSON parser.
class MetricsJsonReader {
 public:
  explicit MetricsJsonReader(std::string_view s) : s_(s) {}

  bool parse(MetricsSnapshot& out) {
    skip_ws();
    if (!consume('{')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (consume('}')) break;
      if (!first && !consume(',')) return false;
      first = false;
      skip_ws();
      std::string section;
      if (!read_string(section)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (section == "counters") {
        if (!read_flat(out.counters)) return false;
      } else if (section == "gauges") {
        if (!read_flat(out.gauges)) return false;
      } else if (section == "histograms") {
        if (!consume('{')) return false;
        bool hfirst = true;
        while (true) {
          skip_ws();
          if (consume('}')) break;
          if (!hfirst && !consume(',')) return false;
          hfirst = false;
          skip_ws();
          std::string name;
          if (!read_string(name)) return false;
          skip_ws();
          if (!consume(':')) return false;
          skip_ws();
          if (!read_flat(out.histograms[name])) return false;
        }
      } else {
        return false;
      }
    }
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_).substr(0, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool read_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];  // only \" and \\ are ever emitted
      }
      out += c;
    }
    return consume('"');
  }
  bool read_number(double& out) {
    // Non-finite literals first: they share no prefix with the numeric
    // character class below ('-Infinity' would otherwise stop after '-').
    if (consume_literal("NaN")) {
      out = std::nan("");
      return true;
    }
    if (consume_literal("Infinity")) {
      out = std::numeric_limits<double>::infinity();
      return true;
    }
    if (consume_literal("-Infinity")) {
      out = -std::numeric_limits<double>::infinity();
      return true;
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out = std::stod(std::string(s_.substr(start, pos_ - start)));
    } catch (...) {
      return false;
    }
    return true;
  }
  bool read_flat(std::map<std::string, double>& out) {
    if (!consume('{')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (consume('}')) return true;
      if (!first && !consume(',')) return false;
      first = false;
      skip_ws();
      std::string key;
      if (!read_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      double value = 0.0;
      if (!read_number(value)) return false;
      out[key] = value;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

inline std::optional<MetricsSnapshot> MetricsSnapshot::parse_json(
    std::string_view json) {
  MetricsSnapshot s;
  detail::MetricsJsonReader reader(json);
  if (!reader.parse(s)) return std::nullopt;
  return s;
}

}  // namespace edgeis::rt
