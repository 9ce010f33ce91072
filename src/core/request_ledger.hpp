// The request ledger and degraded-mode state machine of one edgeIS client
// (DESIGN.md "Failure handling"): deadlines from an adaptive RTO under
// Karn's rule, capped retry backoff, missing-chunk resends, admission
// rejects, canvas resyncs, and degraded mode with its recovery probes. It
// owns the downlink half of the link; the uplink half is the EdgeServer's.
// It needs no scene: the client learns what happened through a
// LedgerListener, called inline and in event order, so the client's
// reaction to one response runs before the next response is matched.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/edge_server.hpp"
#include "core/pipeline_config.hpp"
#include "net/faults.hpp"
#include "net/protocol.hpp"
#include "net/rto.hpp"
#include "net/send_queue.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace.hpp"

namespace edgeis::core {

/// One outstanding request. Kept until its response is matched or every
/// retry is exhausted; `request` and `upload` are retained for
/// retransmission.
struct LedgerEntry {
  int frame_index = 0;      // the request id; pings use negative ids
  bool is_ping = false;
  bool is_init = false;     // an initialization-pair annotation request
  bool dead = false;        // failed, pending removal
  // Listen-only: degraded mode gave up on this request — no further
  // retransmissions, and it no longer blocks the transmission gate — but
  // its uplink cost is already paid, so a late response still completes
  // it (and proves the link is back). Purged when superseded by a new
  // transmission.
  bool abandoned = false;
  int attempt = 0;          // 0 = first send
  double sent_ms = 0.0;     // uplink entry time of the live attempt
  double deadline_ms = 0.0; // response deadline of the live attempt
  double resend_at_ms = -1.0;  // >= 0: waiting out the backoff
  std::size_t bytes = 0;
  segnet::InferenceRequest request;
  // What a retransmitted attempt must re-submit to the canvas. A
  // retransmitted delta re-applies cleanly — the canvas treats a
  // same-epoch re-apply as a duplicate.
  EdgeServer::Upload upload;
  // Streamed (full-duplex) partial-response accounting. The response
  // arrives as one chunk per instance; each applied chunk extends the
  // deadline, and a deadline that fires with a partial set triggers a
  // missing-chunk resend instead of a full retransmission.
  net::ChunkAssembler chunks;
  // Chunk count at the previous deadline expiry: the retry budget
  // guards liveness, not progress — a timeout that follows fresh chunks
  // schedules another (tiny) missing-set resend even past max_retries,
  // while a stalled stream exhausts the budget as before. Bounded: each
  // extra round requires strictly more chunks on the books.
  int chunks_at_last_timeout = 0;
  // Applied chunks' masks, cumulative in arrival order (partial sets
  // annotate the keyframe as they grow).
  std::vector<mask::InstanceMask> arrived_masks;
  segnet::InferenceStats stats;        // carried by every chunk
  std::size_t response_bytes = 0;      // distinct chunk payloads so far
};

/// What the ledger reports to its owner, synchronously and in event order.
class LedgerListener {
 public:
  virtual ~LedgerListener() = default;
  /// A chunk of `e` was applied (`e.arrived_masks`: every applied chunk's
  /// masks, in arrival order). When `complete` the set has closed and the
  /// masks may be moved out. Returns true when they annotated the running
  /// tracker (a partial set so applied counts as a partial apply).
  virtual bool on_chunks(LedgerEntry& e, bool complete, double now_ms) = 0;
  /// The edge refused a canvas delta (epoch mismatch or cold canvas).
  virtual void on_canvas_resync() = 0;
  /// A canvas upload died or was abandoned: whether it reached the edge
  /// is unknowable, so the canvas chain must restart.
  virtual void on_canvas_upload_lost() = 0;
  /// An init-pair request failed (timed out, refused at the gate, or
  /// voided by degraded entry); the ledger has dropped both halves.
  virtual void on_init_failed() = 0;
  /// Degraded mode ended on a ping echo: the link is back, but no masks
  /// came with it.
  virtual void on_ping_recovery() = 0;
};

class RequestLedger {
 public:
  /// Non-owning: `config`, `edge` and `listener` must outlive the ledger.
  RequestLedger(const PipelineConfig& config, EdgeServer& edge,
                LedgerListener& listener);

  void set_tracer(rt::Tracer* tracer) { tracer_ = tracer; }

  /// The per-frame step, before the frame's own work: account degraded
  /// time, drain the edge's completed chunks into the downlink, deliver
  /// whatever has landed by `now_ms`, expire deadlines, schedule and
  /// execute retransmissions, enter degraded mode after enough
  /// consecutive timeouts, and send a recovery probe when one is due.
  /// Returns the bytes the probe put on the uplink (0 or 64).
  std::size_t advance(int frame_index, double now_ms);

  /// Send the first attempt of a new request. A fresh request supersedes
  /// any listen-only survivors of a degraded episode.
  void send(int frame_index, std::size_t bytes,
            segnet::InferenceRequest request, EdgeServer::Upload upload,
            bool is_init, double now_ms);

  /// Forget every request and every delivery in flight.
  void clear();

  [[nodiscard]] bool degraded() const { return degraded_; }
  /// Any request or ping still on the books (the radio stays awake).
  [[nodiscard]] bool awaiting_response() const { return !ledger_.empty(); }
  [[nodiscard]] std::size_t size() const { return ledger_.size(); }
  /// An inference request neither failed nor abandoned is outstanding.
  [[nodiscard]] bool has_outstanding_request() const;
  /// Full-duplex transmission gate: only a request that has not yet
  /// produced any chunk blocks the next keyframe. Once a response is
  /// streaming down, the uplink is free — the next keyframe overlaps the
  /// remainder of the stream.
  [[nodiscard]] bool has_blocking_request() const;
  /// Live link-pressure factor for the uplink encoder (RttEstimator).
  [[nodiscard]] double congestion() const { return rto_.congestion(); }

  /// The counters; the owner adds its own (uplink plan, refreshes,
  /// annotation staleness).
  rt::LinkHealthStats& health() { return health_; }
  /// The counters merged with the link-level fault counters of both
  /// injectors and the RTT estimator's state. Deterministic for a fixed
  /// seed + script.
  [[nodiscard]] rt::LinkHealthStats link_health() const;

 private:
  struct PendingResponse {
    double deliver_at_ms = 0.0;
    EdgeServer::Response response;
  };

  void deliver_due_responses(double now_ms);
  /// Expire attempts, schedule/execute retransmissions, enter degraded
  /// mode after enough consecutive timeouts.
  void service(double now_ms);
  /// Put one attempt of `e` on the uplink (the edge queues whatever it
  /// completes for the next poll).
  void send_attempt(LedgerEntry& e, double now_ms);
  void queue_response_with_faults(EdgeServer::Response r);
  /// A chunk of `it` arrived: record it, report it, complete the entry
  /// when the set closes.
  void accept_chunk(std::vector<LedgerEntry>::iterator it,
                    EdgeServer::Response& resp, double now_ms);
  /// Drop every init request and report the failed pair.
  void fail_init();
  /// One instant on the ledger track. No-op without a tracer.
  void note(std::string_view name, double now_ms, rt::TraceArgs args) const;
  /// Emit the RTT-estimator state as counter series on the ledger track
  /// (trace satellite of LinkHealthStats). No-op without a tracer.
  void trace_rto_counters(double now_ms) const;

  const PipelineConfig& config_;
  EdgeServer& edge_;
  LedgerListener& listener_;
  rt::Tracer* tracer_ = nullptr;  // non-owning; null = tracing off
  net::FaultInjector downlink_faults_;
  // Downlink direction of the full-duplex pair (the uplink queue lives in
  // the edge server, beside the uplink fault injector).
  net::SendQueue downlink_queue_;
  // Adaptive per-attempt deadlines: Jacobson/Karels RTT estimator seeded
  // from the link profile, fed by completed requests and ping probes.
  net::RttEstimator rto_;
  std::vector<PendingResponse> pending_;
  std::vector<LedgerEntry> ledger_;
  rt::LinkHealthStats health_;
  bool degraded_ = false;
  int next_ping_id_ = -1;
  int last_probe_frame_ = -1000000;
  double prev_frame_ms_ = 0.0;
};

}  // namespace edgeis::core
