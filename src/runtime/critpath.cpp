#include "runtime/critpath.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

namespace edgeis::rt {

namespace {

constexpr double kEps = 1e-6;

double arg_number(const Tracer::Event& e, const char* key,
                  double fallback = 0.0) {
  for (const auto& a : e.args) {
    if (!a.is_text && a.key == key) return a.number;
  }
  return fallback;
}

bool arg_text_is(const Tracer::Event& e, const char* key,
                 const char* value) {
  for (const auto& a : e.args) {
    if (a.is_text && a.key == key) return a.text == value;
  }
  return false;
}

struct UplinkX {
  double ts = 0.0;
  double end = 0.0;
  double queue_wait = 0.0;
  bool usable = false;  // neither dropped nor the lagging duplicate copy
};

struct InferX {
  double start = 0.0;
  double end = 0.0;
  int batch = 1;
  int batch_index = 0;
};

struct DownX {
  double ts = 0.0;
  double end = 0.0;
  bool usable = false;
};

struct Resp {
  double ts = 0.0;
  double rtt = 0.0;
  int attempt = 0;
  int chunks = 0;
};

struct Span {
  double ts = 0.0;
  double end = 0.0;
};

using Key = std::pair<int, int>;  // (session, request/frame)

}  // namespace

void CritPathStages::accumulate(const CritPathStages& other) {
  uplink_retry_ms += other.uplink_retry_ms;
  uplink_queue_ms += other.uplink_queue_ms;
  uplink_transit_ms += other.uplink_transit_ms;
  gpu_wait_ms += other.gpu_wait_ms;
  compute_ms += other.compute_ms;
  stream_tail_ms += other.stream_tail_ms;
  downlink_queue_ms += other.downlink_queue_ms;
  downlink_transit_ms += other.downlink_transit_ms;
  pickup_ms += other.pickup_ms;
}

CritPathStages CritPathRollup::mean() const {
  CritPathStages m;
  if (requests == 0) return m;
  const double n = static_cast<double>(requests);
  m.uplink_retry_ms = total.uplink_retry_ms / n;
  m.uplink_queue_ms = total.uplink_queue_ms / n;
  m.uplink_transit_ms = total.uplink_transit_ms / n;
  m.gpu_wait_ms = total.gpu_wait_ms / n;
  m.compute_ms = total.compute_ms / n;
  m.stream_tail_ms = total.stream_tail_ms / n;
  m.downlink_queue_ms = total.downlink_queue_ms / n;
  m.downlink_transit_ms = total.downlink_transit_ms / n;
  m.pickup_ms = total.pickup_ms / n;
  return m;
}

CritPathAnalysis CritPathAnalysis::from_trace(const Tracer& tracer,
                                              double from_ms) {
  std::map<Key, double> first_send;
  std::map<Key, Resp> responses;  // first response closes the set
  std::map<Key, std::vector<UplinkX>> uplinks;
  std::map<Key, std::vector<DownX>> downlinks;
  std::map<Key, std::vector<InferX>> infers;       // edge, session arg key
  std::map<Key, std::vector<double>> chunk_ready;  // edge, session arg key
  std::map<int, std::vector<Span>> renders;        // per session
  // B-event stack per mobile track for render span pairing.
  std::map<int, std::vector<const Tracer::Event*>> open_spans;

  for (const auto& e : tracer.events()) {
    if (e.pid == track::kEdge.pid) {
      const int session = static_cast<int>(arg_number(e, "session", -1.0));
      const int frame = static_cast<int>(arg_number(e, "frame", -1.0));
      if (e.ph == 'X' && e.name == "infer") {
        InferX x;
        x.start = e.ts_ms;
        x.end = e.ts_ms + e.dur_ms;
        x.batch = static_cast<int>(arg_number(e, "batch", 1.0));
        x.batch_index = static_cast<int>(arg_number(e, "batch_index", 0.0));
        infers[{session, frame}].push_back(x);
      } else if (e.ph == 'i' && e.name == "chunk_ready") {
        chunk_ready[{session, frame}].push_back(e.ts_ms);
      }
      continue;
    }
    const int mod = ((e.pid % 4) + 4) % 4;
    if (mod == 1) {
      const int session = (e.pid - 1) / 4;
      if (e.tid == track::kLedger.tid && e.ph == 'i') {
        if (e.name == "send") {
          if (arg_number(e, "ping") != 0.0) continue;
          const Key key{session,
                        static_cast<int>(arg_number(e, "request"))};
          first_send.emplace(key, e.ts_ms);  // keeps the earliest attempt
        } else if (e.name == "response") {
          const Key key{session,
                        static_cast<int>(arg_number(e, "request"))};
          Resp r;
          r.ts = e.ts_ms;
          r.rtt = arg_number(e, "rtt_ms");
          r.attempt = static_cast<int>(arg_number(e, "attempt"));
          r.chunks = static_cast<int>(arg_number(e, "chunks"));
          responses.emplace(key, r);
        }
      } else if (e.tid == track::kMobile.tid) {
        auto& stack = open_spans[e.pid];
        if (e.ph == 'B') {
          stack.push_back(&e);
        } else if (e.ph == 'E' && !stack.empty()) {
          const Tracer::Event* b = stack.back();
          stack.pop_back();
          if (b->name == "render") {
            renders[session].push_back({b->ts_ms, e.ts_ms});
          }
        }
      }
    } else if (mod == 3 && e.ph == 'X') {
      const int session = (e.pid - 3) / 4;
      const Key key{session, static_cast<int>(arg_number(e, "request"))};
      const bool usable = !arg_text_is(e, "fault", "dropped") &&
                          !arg_text_is(e, "fault", "duplicate-copy");
      if (e.tid == track::kUplink.tid && e.name == "uplink") {
        UplinkX u;
        u.ts = e.ts_ms;
        u.end = e.ts_ms + e.dur_ms;
        u.queue_wait = arg_number(e, "queue_wait_ms");
        u.usable = usable;
        uplinks[key].push_back(u);
      } else if (e.tid == track::kDownlink.tid && e.name == "downlink") {
        DownX d;
        d.ts = e.ts_ms;
        d.end = e.ts_ms + e.dur_ms;
        d.usable = usable;
        downlinks[key].push_back(d);
      }
    }
  }

  CritPathAnalysis analysis;
  for (const auto& [key, resp] : responses) {
    const auto fs = first_send.find(key);
    if (fs == first_send.end()) continue;
    const double t0 = fs->second;
    const double t1 = resp.ts;
    if (t0 + kEps < from_ms || t1 < t0) continue;

    CritPath cp;
    cp.session = key.first;
    cp.request = key.second;
    cp.attempt = resp.attempt;
    cp.chunks = resp.chunks;
    cp.send_ms = t0;
    cp.response_ms = t1;
    cp.rtt_arg_ms = resp.rtt;

    // Delivering uplink attempt: the last usable transfer fully inside
    // the span (the one whose delivery the edge actually answered).
    const UplinkX* up = nullptr;
    if (const auto it = uplinks.find(key); it != uplinks.end()) {
      for (const auto& u : it->second) {
        if (u.usable && u.ts + kEps >= t0 && u.end <= t1 + kEps &&
            (up == nullptr || u.end > up->end)) {
          up = &u;
        }
      }
    }

    // The infer window serving this request: prefer the first one
    // starting after the delivering uplink arrives; fall back to the last
    // one ending inside the span (resends answer from the result cache,
    // leaving no fresh infer).
    const double arrive = up != nullptr ? up->end : t0;
    const InferX* inf = nullptr;
    if (const auto it = infers.find(key); it != infers.end()) {
      const auto& list = it->second;
      for (const auto& x : list) {
        if (x.start + kEps >= arrive && x.end <= t1 + kEps) {
          if (inf == nullptr || x.start < inf->start) inf = &x;
        }
      }
      if (inf == nullptr) {
        for (const auto& x : list) {
          if (x.end <= t1 + kEps && (inf == nullptr || x.end > inf->end)) {
            inf = &x;
          }
        }
      }
    }
    if (inf != nullptr) {
      cp.batch_size = inf->batch;
      cp.rider = inf->batch_index > 0;
    }

    // First/last streamed chunk inside the selected infer's window.
    double first_chunk = -1.0;
    double last_chunk = -1.0;
    if (const auto it = chunk_ready.find(key); it != chunk_ready.end()) {
      const double lo = inf != nullptr ? inf->start : arrive;
      for (double ts : it->second) {
        if (ts + kEps < lo || ts > t1 + kEps) continue;
        if (first_chunk < 0.0 || ts < first_chunk) first_chunk = ts;
        if (ts > last_chunk) last_chunk = ts;
      }
    }

    // Final downlink delivery (resends and duplicate copies included:
    // whatever arrived last before the response closed the set).
    const DownX* down = nullptr;
    if (const auto it = downlinks.find(key); it != downlinks.end()) {
      for (const auto& d : it->second) {
        if (d.usable && d.end <= t1 + kEps &&
            (down == nullptr || d.end > down->end)) {
          down = &d;
        }
      }
    }

    // Clamped-monotone milestones: each at least the previous, at most
    // t1, so the stage differences are non-negative and telescope to the
    // span exactly. Matching gaps (a resend answered from cache, a
    // missing event) flow into the following stage rather than breaking
    // the sum.
    double prev = t0;
    const auto step = [&prev, t1](double t) {
      prev = std::min(std::max(prev, t), t1);
      return prev;
    };
    const double m1 = step(up != nullptr ? up->ts : t0);
    const double m2 = step(up != nullptr ? up->end : m1);
    const double m3 = step(inf != nullptr ? inf->start : m2);
    const double m4 = step(first_chunk >= 0.0 ? first_chunk : m3);
    const double m5 = step(last_chunk >= 0.0 ? last_chunk : m4);
    const double m6 = step(down != nullptr ? down->ts : m5);
    const double m7 = step(down != nullptr ? down->end : m6);

    const double uplink_wait = m1 - t0;
    const double queue =
        std::min(up != nullptr ? up->queue_wait : 0.0, uplink_wait);
    cp.stages.uplink_retry_ms = uplink_wait - queue;
    cp.stages.uplink_queue_ms = queue;
    cp.stages.uplink_transit_ms = m2 - m1;
    cp.stages.gpu_wait_ms = m3 - m2;
    cp.stages.compute_ms = m4 - m3;
    cp.stages.stream_tail_ms = m5 - m4;
    cp.stages.downlink_queue_ms = m6 - m5;
    cp.stages.downlink_transit_ms = m7 - m6;
    cp.stages.pickup_ms = t1 - m7;

    // Render cost of the applying frame: the first render span at or
    // after the response instant (the response is picked up inside that
    // frame's processing, before its stage spans are laid out).
    if (const auto it = renders.find(cp.session); it != renders.end()) {
      for (const auto& span : it->second) {
        if (span.ts + kEps >= t1) {
          cp.render_ms = span.end - span.ts;
          break;
        }
      }
    }

    analysis.requests_.push_back(std::move(cp));
  }
  return analysis;
}

std::vector<int> CritPathAnalysis::sessions() const {
  std::vector<int> out;
  for (const auto& cp : requests_) {
    if (std::find(out.begin(), out.end(), cp.session) == out.end()) {
      out.push_back(cp.session);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

CritPathRollup CritPathAnalysis::rollup() const {
  CritPathRollup r;
  for (const auto& cp : requests_) {
    ++r.requests;
    if (cp.rider) ++r.riders;
    r.total.accumulate(cp.stages);
    r.span_ms.add(cp.span_ms());
    if (cp.render_ms > 0.0) {
      r.render_total_ms += cp.render_ms;
      ++r.render_count;
    }
  }
  return r;
}

CritPathRollup CritPathAnalysis::rollup(int session) const {
  CritPathRollup r;
  for (const auto& cp : requests_) {
    if (cp.session != session) continue;
    ++r.requests;
    if (cp.rider) ++r.riders;
    r.total.accumulate(cp.stages);
    r.span_ms.add(cp.span_ms());
    if (cp.render_ms > 0.0) {
      r.render_total_ms += cp.render_ms;
      ++r.render_count;
    }
  }
  return r;
}

}  // namespace edgeis::rt
