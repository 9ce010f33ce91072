#include "core/request_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "net/link.hpp"

namespace edgeis::core {

namespace {

bool is_canvas_upload(const EdgeServer::Upload& upload) {
  return !std::holds_alternative<std::monostate>(upload);
}

}  // namespace

RequestLedger::RequestLedger(const PipelineConfig& config, EdgeServer& edge,
                             LedgerListener& listener)
    : config_(config),
      edge_(edge),
      listener_(listener),
      downlink_faults_(config.faults.downlink,
                       rt::Rng(config.seed ^ 0xfa02eULL)),
      downlink_queue_(config.link, rt::Rng(config.seed ^ 0xd0171ULL)),
      rto_(config.rto, 2.0 * config.link.base_latency_ms +
                           config.rto.initial_compute_guess_ms) {}

std::size_t RequestLedger::advance(int frame_index, double now_ms) {
  if (degraded_) {
    health_.time_in_degraded_ms += now_ms - prev_frame_ms_;
    ++health_.degraded_frames;
  }
  prev_frame_ms_ = now_ms;
  // Drain the edge's completed work into the downlink queue in completion
  // order (the queue's serializer needs admissions in time order), then
  // deliver whatever the downlink has landed by now.
  for (auto& r : edge_.poll(now_ms)) {
    queue_response_with_faults(std::move(r));
  }
  deliver_due_responses(now_ms);
  service(now_ms);
  // Probe for recovery on a fixed cadence: a 64-byte ping instead of a
  // full keyframe, so an outage costs (almost) nothing to wait out. The
  // probe starts *before* degraded mode commits — two consecutive
  // unanswered deadlines already make the link suspect — and rides the
  // full-duplex uplink queue behind any keyframe still serializing, so
  // liveness evidence accrues while inference requests are in flight.
  // The cadence is the only gate: probes are cheap enough that a lost one
  // must not block the next for its whole (inflated) RTO lifetime.
  if (!degraded_ && rto_.backoff() < 2) return 0;
  if (frame_index - last_probe_frame_ < config_.probe_interval_frames) return 0;
  LedgerEntry ping;
  ping.frame_index = next_ping_id_--;
  ping.is_ping = true;
  ping.bytes = 64;
  ++health_.probes_sent;
  note("degraded.probe", now_ms, {{"request", ping.frame_index}});
  send_attempt(ping, now_ms);
  ledger_.push_back(std::move(ping));
  last_probe_frame_ = frame_index;
  return 64;
}

void RequestLedger::send(int frame_index, std::size_t bytes,
                         segnet::InferenceRequest request,
                         EdgeServer::Upload upload, bool is_init,
                         double now_ms) {
  // Listen-only survivors of a degraded episode: their answer, if it ever
  // comes, would now be older than this request. Only now do they count
  // as failed.
  std::erase_if(ledger_, [&](const LedgerEntry& e) {
    if (!e.abandoned) return false;
    ++health_.requests_failed;
    note("superseded", now_ms, {{"request", e.frame_index}});
    return true;
  });
  LedgerEntry entry;
  entry.frame_index = frame_index;
  entry.is_init = is_init;
  entry.bytes = bytes;
  entry.request = std::move(request);
  entry.upload = std::move(upload);
  ++health_.requests_sent;
  send_attempt(entry, now_ms);
  ledger_.push_back(std::move(entry));
}

void RequestLedger::clear() {
  pending_.clear();
  ledger_.clear();
}

void RequestLedger::deliver_due_responses(double now_ms) {
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->deliver_at_ms > now_ms) {
      ++it;
      continue;
    }
    EdgeServer::Response resp = std::move(it->response);
    it = pending_.erase(it);

    // Match the response to its ledger entry. Unmatched deliveries are
    // duplicates or answers to abandoned requests: ignore them wholesale —
    // annotating an ancient keyframe would only corrupt the tracker.
    const auto entry = std::find_if(
        ledger_.begin(), ledger_.end(), [&](const LedgerEntry& e) {
          return !e.dead && e.frame_index == resp.frame_index &&
                 e.is_ping == resp.is_ping;
        });
    if (entry == ledger_.end()) {
      ++health_.stale_responses;
      note("stale_response", now_ms,
           {{"request", resp.frame_index}, {"attempt", resp.attempt}});
      continue;
    }
    // Admission-control pushback from a shared GPU. The server answered —
    // the link is fine — so a reject neither exits degraded mode nor
    // feeds the RTT estimator; it only means "come back later". An
    // inference reject inflates the timeout backoff like a loss would, so
    // a client hammering a saturated gate backs off exponentially and
    // eventually parks itself in degraded mode (MAMT carries the masks
    // forward locally) until a clean probe proves the queue drained. A
    // busy ping echo is that probe failing: the client stays parked.
    if (resp.rejected) {
      if (resp.is_ping) {
        ++health_.busy_pings;
        note("ping_busy", now_ms, {{"request", resp.frame_index}});
        ledger_.erase(entry);
        continue;
      }
      ++health_.admission_rejects;
      rto_.on_timeout();
      note("admission_reject", now_ms,
           {{"request", resp.frame_index}, {"attempt", resp.attempt}});
      trace_rto_counters(now_ms);
      const bool was_init = entry->is_init;
      ledger_.erase(entry);
      // A rejected init-pair half voids the pair (both halves must be
      // annotated); bootstrap restarts once the gate opens.
      if (was_init) fail_init();
      continue;
    }
    // Canvas-delta pushback: the edge refused to reconstruct (epoch
    // mismatch or cold canvas). The link answered — clear the timeout
    // inflation — but the canvas chain is broken: the client owes the
    // edge a full keyframe. Never an init request (bootstrap uploads are
    // always full keyframes).
    if (resp.canvas_resync) {
      ++health_.canvas_resyncs;
      rto_.reset_backoff();
      listener_.on_canvas_resync();
      note("canvas_resync", now_ms,
           {{"request", resp.frame_index}, {"attempt", resp.attempt}});
      ledger_.erase(entry);
      continue;
    }
    // Feed the RTT estimator. Karn's rule: a retransmitted request is
    // ambiguous (which attempt does this response answer?) and is never
    // sampled; it does not deflate the timeout backoff either — the
    // inflated RTO stands until a never-retransmitted request (or ping)
    // completes cleanly. An attempt-0 response overtaken by a
    // retransmission proves the deadline fired on a slow response, not a
    // lost one — the definition of a spurious retransmission. Streamed
    // responses sample per chunk: every chunk of a clean first attempt is
    // an independent observation of the (stream-position-weighted) round
    // trip. Resent chunks answer a retransmitted request — never sampled.
    if (resp.attempt < entry->attempt) {
      ++health_.spurious_retransmissions;
      note("spurious_retransmission", now_ms, {{"request", resp.frame_index}});
    }
    if (entry->attempt == 0 && !resp.is_resend) {
      rto_.sample(now_ms - entry->sent_ms);
      trace_rto_counters(now_ms);
    } else {
      // Forward progress on a retransmitted attempt is unsampleable under
      // Karn's rule, but the link answered: the timeout inflation is no
      // longer warranted. Without this, a stream that loses one chunk per
      // round would compound its backoff into degraded mode while chunks
      // are demonstrably arriving.
      rto_.reset_backoff();
    }
    if (degraded_) {
      // Any delivery proves the link is back. A ping carries no masks, so
      // recovery via ping owes the tracker a full-quality refresh; an
      // inference chunk is itself fresh annotation.
      degraded_ = false;
      if (resp.is_ping) listener_.on_ping_recovery();
      note("degraded.exit", now_ms, {{"via_ping", resp.is_ping}});
    }
    if (resp.is_ping) {
      note("ping_response", now_ms,
           {{"request", resp.frame_index},
            {"attempt", resp.attempt},
            {"rtt_ms", now_ms - entry->sent_ms}});
      ledger_.erase(entry);
      ++health_.responses_received;
      continue;
    }
    accept_chunk(entry, resp, now_ms);
  }
}

void RequestLedger::accept_chunk(std::vector<LedgerEntry>::iterator it,
                                 EdgeServer::Response& resp, double now_ms) {
  LedgerEntry& e = *it;
  if (e.chunks.accept(resp.frame_index, resp.chunk_index, resp.chunk_count) !=
      net::ChunkAssembler::Accept::kApplied) {
    // Downlink duplicate, a resend racing the original, or the other
    // inference of a duplicated request framed differently: never merged.
    ++health_.duplicate_chunks;
    note("duplicate_chunk", now_ms,
         {{"request", resp.frame_index}, {"chunk", resp.chunk_index}});
    return;
  }
  ++health_.chunks_received;
  e.stats = resp.stats;
  e.response_bytes += resp.payload_bytes;
  for (auto& m : resp.masks) e.arrived_masks.push_back(std::move(m));
  const bool complete = e.chunks.complete();
  note("chunk", now_ms,
       {{"request", resp.frame_index},
        {"attempt", resp.attempt},
        {"chunk", resp.chunk_index},
        {"received", e.chunks.received()},
        {"expected", e.chunks.expected()},
        {"resend", resp.is_resend},
        {"bytes", resp.payload_bytes}});

  // Report whatever has arrived: a partial set still annotates the
  // keyframe, so the renderer never waits for the stream's tail (the
  // point of streaming the response at all).
  const bool applied = listener_.on_chunks(e, complete, now_ms);
  if (!complete) {
    if (applied) {
      ++health_.partial_applies;
      note("partial_apply", now_ms,
           {{"frame", e.frame_index},
            {"received", e.chunks.received()},
            {"expected", e.chunks.expected()}});
    }
    // Streaming progress must not time out between chunks: every applied
    // chunk renews the entry's deadline and cancels a pending backoff.
    e.deadline_ms = now_ms + rto_.rto_ms();
    e.resend_at_ms = -1.0;
    return;
  }

  // `attempt` is the ledger's (0 = sent once), so on attempt 0 rtt_ms and
  // the first-send-to-response span measure the same interval. The
  // completing chunk's echo is on its `chunk` instant.
  note("response", now_ms,
       {{"request", e.frame_index},
        {"attempt", e.attempt},
        {"rtt_ms", now_ms - e.sent_ms},
        {"chunks", e.chunks.expected()},
        {"bytes", e.response_bytes}});
  ledger_.erase(it);
  ++health_.responses_received;
}

void RequestLedger::send_attempt(LedgerEntry& e, double now_ms) {
  if (e.chunks.received() > 0 && !e.chunks.complete()) {
    // Partial response on the books: retransmit the *missing chunk set*,
    // not the keyframe. The request names chunks by index (the receiver
    // never learned the instance ids of chunks that didn't arrive); the
    // edge answers from its result cache without re-running inference.
    net::ResendRequestMessage req;
    req.frame_index = e.frame_index;
    req.chunk_indices = e.chunks.missing_chunks();
    const std::vector<int>& missing = req.chunk_indices;
    const std::size_t bytes = net::Codec::wire_bytes(req);
    ++health_.resend_requests;
    note("resend_missing", now_ms,
         {{"request", e.frame_index},
          {"attempt", e.attempt},
          {"missing", missing.size()},
          {"of", e.chunks.expected()},
          {"bytes", bytes}});
    if (!edge_.submit_resend(e.frame_index, now_ms, bytes, missing,
                             e.attempt)) {
      // Result cache miss (should not happen once a chunk arrived): fall
      // back to a full retransmission, which leaves the canvas alone.
      edge_.submit(e.frame_index, now_ms, e.bytes, e.request, e.attempt);
    }
  } else {
    rt::TraceArgs args{{"request", e.frame_index},
                       {"attempt", e.attempt},
                       {"bytes", e.bytes},
                       {"ping", e.is_ping}};
    if (is_canvas_upload(e.upload)) {
      args.push_back(
          {"delta", std::holds_alternative<enc::CanvasDelta>(e.upload)});
    }
    note("send", now_ms, std::move(args));
    if (e.is_ping) {
      edge_.submit_ping(e.frame_index, now_ms);
    } else {
      edge_.submit(e.frame_index, now_ms, e.bytes, e.request, e.attempt,
                   e.upload);
    }
  }
  e.sent_ms = now_ms;
  e.deadline_ms = now_ms + rto_.rto_ms();
  e.resend_at_ms = -1.0;
}

void RequestLedger::queue_response_with_faults(EdgeServer::Response r) {
  // The response enters the downlink direction of the full-duplex pair:
  // chunks of one response (and interleaved ping echoes) serialize
  // back-to-back through the queue, each with its own propagation sample
  // and fault fate.
  const auto out = downlink_queue_.enqueue(
      r.ready_ms, std::max<std::size_t>(r.payload_bytes, 1),
      downlink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/false, out.slot.enter_ms,
                      out.slot.transit_ms, r.payload_bytes, out.fate,
                      r.frame_index, r.attempt, out.duplicate_transit_ms,
                      out.slot.queue_wait_ms,
                      r.chunk_count > 1 ? r.chunk_index : -1, r.chunk_count,
                      r.is_resend);
  if (out.fate.drop) return;  // the ledger deadline will notice
  if (out.fate.duplicate) {
    pending_.push_back({out.duplicate_deliver_ms, r});
  }
  pending_.push_back({out.deliver_ms, std::move(r)});
}

void RequestLedger::note(std::string_view name, double now_ms,
                         rt::TraceArgs args) const {
  if (tracer_ != nullptr) {
    tracer_->instant(rt::track::kLedger, name, now_ms, std::move(args));
  }
}

void RequestLedger::trace_rto_counters(double now_ms) const {
  if (tracer_ == nullptr) return;
  tracer_->counter(rt::track::kLedger, "srtt_ms", now_ms, rto_.srtt_ms());
  tracer_->counter(rt::track::kLedger, "rttvar_ms", now_ms,
                   rto_.rttvar_ms());
  tracer_->counter(rt::track::kLedger, "rto_ms", now_ms, rto_.rto_ms());
  tracer_->counter(rt::track::kLedger, "rto_backoff", now_ms,
                   rto_.backoff());
}

void RequestLedger::service(double now_ms) {
  bool init_failed = false;
  for (auto& e : ledger_) {
    if (e.dead || e.abandoned) continue;
    if (e.resend_at_ms >= 0.0) {
      if (now_ms >= e.resend_at_ms) {
        ++e.attempt;
        ++health_.retransmissions;
        note("retransmit", now_ms,
             {{"request", e.frame_index}, {"attempt", e.attempt}});
        send_attempt(e, now_ms);
      }
      continue;
    }
    if (now_ms < e.deadline_ms) continue;
    ++health_.attempt_timeouts;
    // Inflate the RTO: the next attempt (of any request) waits longer
    // before concluding loss. Any response deflates it again.
    rto_.on_timeout();
    note("timeout", now_ms,
         {{"request", e.frame_index},
          {"attempt", e.attempt},
          {"ping", e.is_ping}});
    trace_rto_counters(now_ms);
    const bool progressed = e.chunks.received() > e.chunks_at_last_timeout;
    e.chunks_at_last_timeout = e.chunks.received();
    if (e.is_ping || (e.attempt >= config_.max_retries && !progressed)) {
      // Pings never retry: the probe cadence replaces them.
      e.dead = true;
      if (!e.is_ping) {
        ++health_.requests_failed;
        // A dead canvas upload may or may not have reached the edge; the
        // mirror can no longer be trusted to match — force a full resync.
        if (is_canvas_upload(e.upload)) listener_.on_canvas_upload_lost();
        if (e.is_init) init_failed = true;
        note("request_failed", now_ms,
             {{"request", e.frame_index}, {"init", e.is_init}});
      }
    } else {
      // exp2 of an unbounded attempt count overflows to inf and schedules
      // the resend past the end of the scenario; clamp to the same bound
      // as the RTO itself.
      e.resend_at_ms =
          now_ms + std::min(config_.retry_backoff_base_ms *
                                std::exp2(std::min(e.attempt, 16)),
                            config_.rto.max_rto_ms);
    }
  }

  if (!degraded_ && rto_.backoff() >= config_.degraded_entry_rto_inflation) {
    degraded_ = true;
    ++health_.degraded_entries;
    note("degraded.enter", now_ms,
         {{"rto_backoff", rto_.backoff()}, {"outstanding", ledger_.size()}});
    // Stop paying the link: no more retransmissions for outstanding
    // inference requests. Their uplink cost is sunk, so keep them
    // listen-only — a response that was merely late (bandwidth collapse,
    // not loss) still annotates the tracker and proves the link is back.
    // MAMT keeps serving masks off the last labeled keyframe; only the
    // probe cadence touches the radio until the link answers again.
    // Initialization pairs are the exception: both halves must arrive for
    // the pair to be usable, so a degraded entry voids them outright and
    // bootstrap restarts once the link recovers.
    for (auto& e : ledger_) {
      if (e.is_ping || e.dead || e.abandoned) continue;
      if (e.is_init) {
        e.dead = true;
        ++health_.requests_failed;
        init_failed = true;
      } else {
        e.abandoned = true;
        e.resend_at_ms = -1.0;
        // No further retransmissions: whether this canvas upload made it
        // to the edge is unknowable, so the delta chain must restart.
        if (is_canvas_upload(e.upload)) listener_.on_canvas_upload_lost();
        note("abandon", now_ms,
             {{"request", e.frame_index}, {"attempt", e.attempt}});
      }
    }
  }

  std::erase_if(ledger_, [](const LedgerEntry& e) { return e.dead; });
  if (init_failed) fail_init();
}

void RequestLedger::fail_init() {
  std::erase_if(ledger_, [](const LedgerEntry& e) { return e.is_init; });
  listener_.on_init_failed();
}

bool RequestLedger::has_outstanding_request() const {
  for (const auto& e : ledger_) {
    if (!e.is_ping && !e.dead && !e.abandoned) return true;
  }
  return false;
}

bool RequestLedger::has_blocking_request() const {
  for (const auto& e : ledger_) {
    if (e.is_ping || e.dead || e.abandoned) continue;
    if (!e.chunks.started()) return true;
  }
  return false;
}

rt::LinkHealthStats RequestLedger::link_health() const {
  rt::LinkHealthStats h = health_;
  const auto& up = edge_.uplink_faults().stats();
  const auto& down = downlink_faults_.stats();
  h.uplink_drops = up.total_lost();
  h.downlink_drops = down.total_lost();
  h.duplicates_injected = up.duplicated + down.duplicated;
  h.reorders_injected = up.reordered + down.reordered;
  h.srtt_ms = rto_.srtt_ms();
  h.rttvar_ms = rto_.rttvar_ms();
  h.rto_ms = rto_.rto_ms();
  h.rtt_samples = rto_.samples();
  h.rto_backoffs = rto_.timeouts();
  return h;
}

}  // namespace edgeis::core
