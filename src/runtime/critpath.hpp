// Critical-path attribution: walk a finished trace and, for every
// completed keyframe request, partition its end-to-end span — first ledger
// `send` instant to the `response` instant that closed the chunk set —
// into contiguous stages: retry/backoff slack, uplink serializer queue,
// uplink transit, GPU wait (admission queue + CIIA batch collection),
// compute up to the first streamed chunk, the chunk-stream tail, downlink
// queue, downlink transit, and mobile pickup (delivered chunks waiting for
// the next frame tick). Stages are differences of clamped-monotone
// milestones, so they are non-negative and sum to the span *exactly*; the
// independent cross-check is the pipeline's own rtt_ms argument on the
// response instant, which must agree with the reconstructed span to 1% on
// requests that were sent once (hard-checked by fig11, test_trace, and
// scripts/trace_summary.py).
//
// Works on single-client traces (canonical pids) and fleet traces (pid
// stride 4 per client, shared edge pid 2 with per-event `session` args).
// Only X/i events are consumed, so sessions sampled down to
// Tracer::Detail::kInstants still contribute; the optional `render` column
// (the applying frame's render span, outside the summed window) needs the
// mobile B/E spans of a fully-traced session.
#pragma once

#include <vector>

#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace edgeis::rt {

/// The contiguous stage partition of one request's [send, response] span.
/// All milliseconds; sums exactly to span_ms() by construction.
struct CritPathStages {
  double uplink_retry_ms = 0.0;    // first send -> delivering attempt,
                                   // minus its serializer queue wait
  double uplink_queue_ms = 0.0;    // serializer head-of-line wait
  double uplink_transit_ms = 0.0;  // serialization + propagation (+fault)
  double gpu_wait_ms = 0.0;        // arrival -> infer start (admission
                                   // queue + CIIA batch collection)
  double compute_ms = 0.0;         // infer start -> first chunk ready
  double stream_tail_ms = 0.0;     // first -> last chunk off the mask head
  double downlink_queue_ms = 0.0;  // last chunk ready -> wire entry
  double downlink_transit_ms = 0.0;
  double pickup_ms = 0.0;          // delivered -> applying frame tick

  [[nodiscard]] double sum_ms() const {
    return uplink_retry_ms + uplink_queue_ms + uplink_transit_ms +
           gpu_wait_ms + compute_ms + stream_tail_ms + downlink_queue_ms +
           downlink_transit_ms + pickup_ms;
  }
  void accumulate(const CritPathStages& other);
};

/// One completed keyframe request.
struct CritPath {
  int session = 0;
  int request = 0;       // frame index (request id)
  int attempt = 0;       // ledger attempt at completion (0 = sent once)
  int chunks = 0;        // chunk count from the response instant
  bool rider = false;    // batched behind another session's lead element
  int batch_size = 1;
  double send_ms = 0.0;      // first ledger send instant
  double response_ms = 0.0;  // response instant (chunk set closed)
  double rtt_arg_ms = 0.0;   // pipeline-recorded RTT (independent check)
  double render_ms = 0.0;    // applying frame's render span; 0 if the
                             // session's mobile spans were sampled out
  CritPathStages stages;

  [[nodiscard]] double span_ms() const { return response_ms - send_ms; }
};

/// Stage totals over a set of requests (per session or fleet-pooled).
struct CritPathRollup {
  int requests = 0;
  int riders = 0;
  CritPathStages total;      // stage sums over all requests
  SampleSet span_ms;         // end-to-end distribution
  double render_total_ms = 0.0;
  int render_count = 0;

  /// Stage means (total / requests); zeros when empty.
  [[nodiscard]] CritPathStages mean() const;
  [[nodiscard]] double mean_span_ms() const { return span_ms.mean(); }
  [[nodiscard]] double mean_render_ms() const {
    return render_count > 0 ? render_total_ms / render_count : 0.0;
  }
};

class CritPathAnalysis {
 public:
  /// Analyze every request whose first send lands at or after `from_ms`
  /// (the warmup filter the benches use).
  static CritPathAnalysis from_trace(const Tracer& tracer,
                                     double from_ms = 0.0);

  [[nodiscard]] const std::vector<CritPath>& requests() const {
    return requests_;
  }
  /// Session ids with at least one analyzed request, ascending.
  [[nodiscard]] std::vector<int> sessions() const;
  /// Fleet-pooled rollup.
  [[nodiscard]] CritPathRollup rollup() const;
  /// One session's rollup.
  [[nodiscard]] CritPathRollup rollup(int session) const;

 private:
  std::vector<CritPath> requests_;
};

}  // namespace edgeis::rt
