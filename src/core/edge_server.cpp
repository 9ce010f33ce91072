#include "core/edge_server.hpp"

#include <algorithm>

#include "net/link.hpp"
#include "net/protocol.hpp"

namespace edgeis::core {

void EdgeServer::submit_streamed(int frame_index, double sent_ms,
                                 std::size_t bytes,
                                 const segnet::InferenceRequest& request,
                                 int attempt) {
  const auto out = uplink_queue_.enqueue(sent_ms, bytes, uplink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/true, out.slot.enter_ms,
                      out.slot.transit_ms, bytes, out.fate, frame_index,
                      attempt, out.duplicate_transit_ms,
                      out.slot.queue_wait_ms);
  if (out.fate.drop) return;
  enqueue_gpu(frame_index, out.deliver_ms, request, attempt);
  if (out.fate.duplicate) {
    enqueue_gpu(frame_index, out.duplicate_deliver_ms, request, attempt);
  }
}

void EdgeServer::submit_canvas_full(int frame_index, double sent_ms,
                                    std::size_t bytes,
                                    const segnet::InferenceRequest& request,
                                    int attempt,
                                    const enc::EncodedFrame& encoded,
                                    std::uint32_t epoch) {
  const auto out = uplink_queue_.enqueue(sent_ms, bytes, uplink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/true, out.slot.enter_ms,
                      out.slot.transit_ms, bytes, out.fate, frame_index,
                      attempt, out.duplicate_transit_ms,
                      out.slot.queue_wait_ms);
  if (out.fate.drop) return;
  const int copies = out.fate.duplicate ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    const double at = copy == 0 ? out.deliver_ms : out.duplicate_deliver_ms;
    // A full keyframe unconditionally (re)seeds the canvas — re-applying
    // a duplicated copy at the same epoch is idempotent.
    canvas_.apply_full(encoded, epoch);
    enqueue_gpu(frame_index, at, request, attempt);
  }
}

void EdgeServer::submit_canvas_delta(int frame_index, double sent_ms,
                                     std::size_t bytes,
                                     const segnet::InferenceRequest& request,
                                     int attempt,
                                     const enc::CanvasDelta& delta) {
  const auto out = uplink_queue_.enqueue(sent_ms, bytes, uplink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/true, out.slot.enter_ms,
                      out.slot.transit_ms, bytes, out.fate, frame_index,
                      attempt, out.duplicate_transit_ms,
                      out.slot.queue_wait_ms);
  if (out.fate.drop) return;
  const int copies = out.fate.duplicate ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    const double at = copy == 0 ? out.deliver_ms : out.duplicate_deliver_ms;
    const auto applied = canvas_.apply_delta(delta);
    if (applied.status == enc::CanvasApplyStatus::kApplied ||
        applied.status == enc::CanvasApplyStatus::kDuplicate) {
      // Reconstruction succeeded: unsent tiles came from the warped
      // canvas, so the model sees the canvas's post-apply content
      // quality, not the quality of the sent tiles alone.
      if (tracer_ != nullptr) {
        tracer_->instant(rt::track::kEdge, "canvas_hit", at,
                         {{"frame", frame_index},
                          {"sent", applied.tiles_sent},
                          {"reused", applied.tiles_reused},
                          {"quality", applied.content_quality},
                          {"session", session_id_}});
      }
      segnet::InferenceRequest reconstructed = request;
      reconstructed.content_quality = applied.content_quality;
      enqueue_gpu(frame_index, at, reconstructed, attempt);
      continue;
    }
    // Cold canvas or epoch mismatch: the edge cannot faithfully
    // reconstruct the frame, and segmenting a divergent canvas would
    // silently return masks for stale pixels. Refuse with a tiny resync
    // response — no inference, no RNG — and let the mobile side fall
    // back to a full keyframe.
    if (tracer_ != nullptr) {
      tracer_->instant(
          rt::track::kEdge, "canvas_resync", at,
          {{"frame", frame_index},
           {"attempt", attempt},
           {"base_epoch", static_cast<int>(delta.base_epoch)},
           {"canvas_epoch", static_cast<int>(canvas_.epoch())},
           {"cold", applied.status == enc::CanvasApplyStatus::kCold},
           {"session", session_id_}});
    }
    Response r;
    r.frame_index = frame_index;
    r.attempt = attempt;
    r.canvas_resync = true;
    // Epoch check + tiny refusal frame: no inference queue involved.
    r.ready_ms = at + 0.3;
    r.payload_bytes = 32;
    completed_.push_back(std::move(r));
  }
}

void EdgeServer::enqueue_gpu(int frame_index, double arrive_ms,
                             const segnet::InferenceRequest& request,
                             int attempt) {
  if (tracer_ != nullptr) {
    tracer_->instant(rt::track::kEdge, "decode", arrive_ms,
                     {{"frame", frame_index},
                      {"attempt", attempt},
                      {"session", session_id_}});
  }
  if (gpu_->saturated()) {
    // The gate sits in front of the model: a rejected request draws no
    // RNG, runs no inference and occupies no GPU time, so admission
    // pressure from one client cannot perturb another's result stream.
    gpu_->record_reject();
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kEdge, "admission_reject", arrive_ms,
                       {{"frame", frame_index},
                        {"attempt", attempt},
                        {"queued", gpu_->queued()},
                        {"session", session_id_}});
    }
    Response r;
    r.frame_index = frame_index;
    r.attempt = attempt;
    r.rejected = true;
    // Gate check + tiny reject frame: no inference queue involved.
    r.ready_ms = arrive_ms + 0.3;
    r.payload_bytes = 32;
    completed_.push_back(std::move(r));
    return;
  }
  EdgeGpu::Pending item;
  item.frame_index = frame_index;
  item.attempt = attempt;
  item.arrive_ms = arrive_ms;
  item.width = request.width;
  item.height = request.height;
  // Evaluate the model at admission: each session's RNG stream sees its
  // requests in submission order no matter how the shared GPU later
  // interleaves the batches. Only *timing* is deferred to dispatch —
  // the property the fleet-of-one equivalence test pins.
  item.result = model_.infer(request);
  gpu_->admit(session_id_, std::move(item));
}

bool EdgeServer::submit_resend(int frame_index, double sent_ms,
                               std::size_t bytes,
                               const std::vector<int>& chunk_indices,
                               int attempt) {
  const auto cached = result_cache_.find(frame_index);
  if (cached == result_cache_.end()) return false;

  const auto out = uplink_queue_.enqueue(sent_ms, bytes, uplink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/true, out.slot.enter_ms,
                      out.slot.transit_ms, bytes, out.fate, frame_index,
                      attempt, out.duplicate_transit_ms,
                      out.slot.queue_wait_ms, /*chunk_index=*/-1,
                      /*chunk_count=*/0, /*is_resend=*/true);
  if (out.fate.drop) return true;  // the request died; ledger retries

  // A duplicated resend request re-emits the chunks twice — the second
  // stream exercises the receiver's duplicate-chunk idempotence exactly
  // like a duplicated downlink would.
  const int copies = out.fate.duplicate ? 2 : 1;
  bool emitted = false;
  for (int copy = 0; copy < copies; ++copy) {
    const double arrive =
        copy == 0 ? out.deliver_ms : out.duplicate_deliver_ms;
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kEdge, "resend", arrive,
                       {{"frame", frame_index},
                        {"missing", chunk_indices.size()},
                        {"attempt", attempt},
                        {"session", session_id_}});
    }
    for (const auto& chunk : cached->second.chunks) {
      if (std::find(chunk_indices.begin(), chunk_indices.end(),
                    chunk.chunk_index) == chunk_indices.end()) {
        continue;
      }
      Response r;
      r.frame_index = frame_index;
      // Cache lookup + re-serialization only: no inference queue.
      r.ready_ms = arrive + 0.3;
      r.attempt = attempt;
      r.stats = cached->second.stats;
      r.chunk_index = chunk.chunk_index;
      r.chunk_count = cached->second.chunk_count;
      r.is_resend = true;
      r.payload_bytes = chunk.wire_bytes;
      if (chunk.instance_id >= 0) r.masks.push_back(chunk.mask);
      completed_.push_back(std::move(r));
      emitted = true;
    }
  }
  return emitted;
}

void EdgeServer::emit_batched(int frame_index, int attempt, int width,
                              int height, segnet::InferenceResult&& result,
                              double arrive_ms, double start_ms,
                              double mask_base_ms, int batch_index,
                              int batch_size) {
  const double mask_head_ms =
      result.stats.mask_head_ms * device_.model_compute_scale;
  if (tracer_ != nullptr) {
    // Per-element spans are X events: batch elements overlap by
    // construction (one fused first stage, back-to-back mask windows).
    if (start_ms > arrive_ms) {
      tracer_->complete(rt::track::kEdge, "queue_wait", arrive_ms,
                        start_ms - arrive_ms,
                        {{"frame", frame_index}, {"session", session_id_}});
    }
    // CIIA instrumentation: the anchor and RoI counts are exactly the
    // work CIIA saves, so ablations show up as differences in these args.
    const auto& s = result.stats;
    tracer_->complete(rt::track::kEdge, "infer", start_ms,
                      mask_base_ms + mask_head_ms - start_ms,
                      {{"frame", frame_index},
                       {"attempt", attempt},
                       {"instances", result.instances.size()},
                       {"anchors", s.anchors_evaluated},
                       {"proposals", s.proposals_pre_nms},
                       {"rois_selected", s.rois_after_selection},
                       {"rois_after_pruning", s.rois_after_pruning},
                       {"batch", batch_size},
                       {"batch_index", batch_index},
                       {"session", session_id_}});
  }

  // Frame the result as per-instance protocol chunks (wire sizes come
  // from actually serializing each chunk message) and emit each chunk as
  // its mask leaves the mask head.
  std::vector<mask::InstanceMask> masks;
  masks.reserve(result.instances.size());
  for (auto& inst : result.instances) {
    masks.push_back(std::move(inst.mask));
  }
  const auto chunks = net::chunk_mask_result(
      net::build_mask_result(frame_index, width, height, masks));
  const auto n = static_cast<double>(chunks.size());

  CachedResult cache;
  cache.chunk_count = static_cast<int>(chunks.size());
  cache.stats = result.stats;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& chunk = chunks[i];
    Response r;
    r.frame_index = frame_index;
    r.ready_ms =
        mask_base_ms + mask_head_ms * (static_cast<double>(i) + 1.0) / n;
    r.attempt = attempt;
    r.stats = result.stats;
    r.chunk_index = static_cast<int>(i);
    r.chunk_count = static_cast<int>(chunks.size());
    r.payload_bytes = net::wire_bytes(chunk);

    CachedChunk cc;
    cc.wire_bytes = r.payload_bytes;
    cc.chunk_index = r.chunk_index;
    if (!chunk.instances.empty()) {
      const int instance_id = chunk.instances.front().instance_id;
      for (const auto& m : masks) {
        if (m.instance_id == instance_id) {
          r.masks.push_back(m);
          cc.mask = m;
          break;
        }
      }
      cc.instance_id = instance_id;
    }
    if (tracer_ != nullptr) {
      tracer_->instant(rt::track::kEdge, "chunk_ready", r.ready_ms,
                       {{"frame", frame_index},
                        {"chunk", r.chunk_index},
                        {"chunks", r.chunk_count},
                        {"instance", cc.instance_id},
                        {"bytes", r.payload_bytes},
                        {"session", session_id_}});
    }
    cache.chunks.push_back(std::move(cc));
    completed_.push_back(std::move(r));
  }
  result_cache_[frame_index] = std::move(cache);
  while (result_cache_.size() > kResultCacheFrames) {
    result_cache_.erase(result_cache_.begin());
  }
}

int EdgeGpu::register_session(EdgeServer* server) {
  sessions_.push_back({server, {}});
  return static_cast<int>(sessions_.size()) - 1;
}

void EdgeGpu::admit(int session, Pending&& item) {
  sessions_[static_cast<std::size_t>(session)].queue.push_back(
      std::move(item));
  ++queued_;
}

void EdgeGpu::advance_to(double now_ms) {
  for (;;) {
    // Earliest dispatchable instant: the GPU is free AND at least one
    // session head has arrived.
    double min_arrive = 0.0;
    bool any = false;
    for (const auto& s : sessions_) {
      if (s.queue.empty()) continue;
      const double a = s.queue.front().arrive_ms;
      if (!any || a < min_arrive) {
        min_arrive = a;
        any = true;
      }
    }
    if (!any) return;
    const double start = std::max(free_at_ms_, min_arrive);
    if (start > now_ms) return;

    // Collect the batch round-robin from a rotating origin: at most one
    // request per session per pass, so under saturation every client's
    // head-of-line request is served before any client's second.
    std::vector<std::pair<std::size_t, Pending>> batch;
    const std::size_t n = sessions_.size();
    for (std::size_t k = 0;
         k < n && static_cast<int>(batch.size()) < config_.max_batch; ++k) {
      const std::size_t s = (rr_start_ + k) % n;
      auto& q = sessions_[s].queue;
      if (q.empty() || q.front().arrive_ms > start) continue;
      batch.emplace_back(s, std::move(q.front()));
      q.pop_front();
      --queued_;
    }
    rr_start_ = (rr_start_ + 1) % n;
    // Non-empty by construction: the session owning min_arrive qualifies.
    const int size = static_cast<int>(batch.size());
    ++stats_.batches;
    stats_.batched_requests += size;
    stats_.max_batch = std::max(stats_.max_batch, size);

    if (size == 1) {
      auto& [sid, item] = batch.front();
      EdgeServer* server = sessions_[sid].server;
      const double scale = server->device_.model_compute_scale;
      const auto& st = item.result.stats;
      const double compute_ms = st.total_ms() * scale;
      const double first_stage_ms =
          (st.backbone_ms + st.rpn_ms + st.head_ms) * scale;
      server->emit_batched(item.frame_index, item.attempt, item.width,
                           item.height, std::move(item.result),
                           item.arrive_ms, start, start + first_stage_ms,
                           /*batch_index=*/0, /*batch_size=*/1);
      // Occupancy is start + total * scale, NOT first-stage-plus-mask-
      // window arithmetic: the two expressions differ in floating point,
      // and every single-session figure in bench/expected pins this one.
      free_at_ms_ = start + compute_ms;
      stats_.busy_ms += compute_ms;
      continue;
    }

    // Fused pass: full first stage for the lead element, marginal cost
    // for each rider, then the mask heads run back-to-back in batch
    // order. Each element's chunks stream out of its own mask window.
    double fs_end = start;
    std::vector<double> mask_ms(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& [sid, item] = batch[i];
      const double scale =
          sessions_[sid].server->device_.model_compute_scale;
      const auto& st = item.result.stats;
      const double fs = (st.backbone_ms + st.rpn_ms + st.head_ms) * scale;
      fs_end += i == 0 ? fs : fs * config_.batch_first_stage_marginal;
      mask_ms[i] = st.mask_head_ms * scale;
    }
    double batch_end = fs_end;
    for (double m : mask_ms) batch_end += m;

    rt::Tracer* tracer = sessions_[batch.front().first].server->tracer_;
    if (tracer != nullptr) {
      tracer->complete(rt::track::kEdge, "batch", start, batch_end - start,
                       {{"size", size}, {"queued", queued_}});
    }

    double mask_base = fs_end;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto& [sid, item] = batch[i];
      EdgeServer* server = sessions_[sid].server;
      server->emit_batched(item.frame_index, item.attempt, item.width,
                           item.height, std::move(item.result),
                           item.arrive_ms, start, mask_base,
                           static_cast<int>(i), size);
      mask_base += mask_ms[i];
    }
    free_at_ms_ = batch_end;
    stats_.busy_ms += batch_end - start;
  }
}

void EdgeServer::submit_ping(int ping_id, double sent_ms) {
  const auto out = uplink_queue_.enqueue(sent_ms, 64, uplink_faults_);
  net::trace_transfer(tracer_, /*uplink=*/true, out.slot.enter_ms,
                      out.slot.transit_ms, 64, out.fate, ping_id, 0,
                      out.duplicate_transit_ms, out.slot.queue_wait_ms);
  if (out.fate.drop) return;
  Response r;
  r.frame_index = ping_id;
  r.is_ping = true;
  // The echo carries the GPU's saturation state (a server's own GPU has
  // no gate and never saturates): the probe answer is "alive but busy",
  // which keeps a degraded client parked until the queue actually drains
  // rather than thrashing the gate.
  r.rejected = gpu_->saturated();
  // Echoed from the network stack: no inference queue involved.
  r.ready_ms = out.deliver_ms + 0.2;
  if (tracer_ != nullptr) {
    tracer_->instant(rt::track::kEdge, "ping_echo", r.ready_ms,
                     {{"request", ping_id}});
  }
  r.payload_bytes = 64;
  completed_.push_back(std::move(r));
}

std::vector<EdgeServer::Response> EdgeServer::poll(double now_ms) {
  // Dispatch GPU batches first: everything whose batch start has been
  // reached lands in completed_ before the readiness scan.
  gpu_->advance_to(now_ms);
  std::vector<Response> ready;
  auto it = completed_.begin();
  while (it != completed_.end()) {
    if (it->ready_ms <= now_ms) {
      ready.push_back(std::move(*it));
      it = completed_.erase(it);
    } else {
      ++it;
    }
  }
  // Stable: chunks of one response share emission order under ties, so
  // the downlink serializer admits them in stream order.
  std::stable_sort(ready.begin(), ready.end(),
                   [](const Response& a, const Response& b) {
                     return a.ready_ms < b.ready_ms;
                   });
  return ready;
}

}  // namespace edgeis::core
