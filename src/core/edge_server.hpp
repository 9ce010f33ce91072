// The edge node: the (simulated) segmentation model behind an EdgeGpu,
// with compute time scaled by the edge device profile. Pipelines submit
// inference requests through the caller-visible uplink SendQueue and poll
// for responses; downlink latency is applied by the caller.
//
// There is one serving path. A request is admitted through the uplink
// send queue, queued on the server's EdgeGpu, and answered with one
// response *chunk per finished instance mask*, in head/mask-head
// completion order, so the mobile side can apply whatever arrived by its
// frame deadline. The newest frames' results are cached so
// `submit_resend` can re-emit only the chunks a partial receiver is
// missing, without re-running inference.
//
// Every server owns a one-session EdgeGpu with the default GpuConfig: an
// unbounded gate that never rejects and a single session that never forms
// a batch larger than one — a plain FIFO in front of the model. For
// multi-client fleets, any number of servers (one per client session: its
// own ledger state, result cache and fault script) attach to one shared
// EdgeGpu instead, which adds an admission gate (bounded queue, explicit
// busy responses) and fuses concurrent keyframes into batched CIIA
// passes, collected round-robin across sessions.
#pragma once

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "encoding/canvas.hpp"
#include "mask/mask.hpp"
#include "net/faults.hpp"
#include "net/send_queue.hpp"
#include "runtime/rng.hpp"
#include "runtime/trace.hpp"
#include "segnet/model.hpp"
#include "sim/device.hpp"

namespace edgeis::core {

class EdgeServer;

/// Shared-GPU policy knobs. The defaults preserve single-client
/// semantics: an unbounded queue never rejects, and a single session can
/// never form a batch larger than one.
struct GpuConfig {
  /// Admission gate: a streamed request arriving while this many requests
  /// are already queued (across every session) is refused with an
  /// explicit busy response instead of being admitted. 0 = unbounded.
  int admission_queue_limit = 0;
  /// Largest number of requests fused into one batched CIIA model pass.
  int max_batch = 8;
  /// First-stage (backbone + RPN + box head) cost of batch elements after
  /// the lead one, as a fraction of their standalone cost: the fused pass
  /// amortizes weight loads and activation memory across the batch.
  double batch_first_stage_marginal = 0.55;
};

struct GpuStats {
  int batches = 0;            // model passes dispatched
  int batched_requests = 0;   // requests served across all passes
  int max_batch = 0;          // largest single pass
  int admission_rejects = 0;  // requests refused at the gate
  double busy_ms = 0.0;       // total GPU occupancy
};

/// One GPU serving N client sessions. Each session keeps a FIFO of
/// admitted requests (model already evaluated; only *timing* is decided
/// here); `advance_to` dispatches batches in simulated-time order,
/// collecting at most one request per session round-robin so no client
/// monopolizes the fused pass. Queues are FIFO in submission order — a
/// duplicated uplink copy may arrive out of order and simply waits its
/// turn.
class EdgeGpu {
 public:
  explicit EdgeGpu(GpuConfig config = {}) : config_(config) {}

  /// Register a per-client server; returns its session id. Called by the
  /// EdgeServer constructor (its own GPU) and EdgeServer::attach_gpu.
  int register_session(EdgeServer* server);

  /// Dispatch every batch whose start time (GPU free and at least one
  /// session head arrived) has been reached by `now_ms`. Lazy: driven
  /// from EdgeServer::poll, which every client calls each frame in
  /// global sim-time order.
  void advance_to(double now_ms);

  [[nodiscard]] bool saturated() const {
    return config_.admission_queue_limit > 0 &&
           queued_ >= config_.admission_queue_limit;
  }
  [[nodiscard]] int queued() const { return queued_; }
  [[nodiscard]] double free_at_ms() const { return free_at_ms_; }
  [[nodiscard]] const GpuStats& stats() const { return stats_; }
  [[nodiscard]] const GpuConfig& config() const { return config_; }

 private:
  friend class EdgeServer;

  struct Pending {
    int frame_index = 0;
    int attempt = 0;
    double arrive_ms = 0.0;
    int width = 0;
    int height = 0;
    segnet::InferenceResult result;  // evaluated at admission
  };
  struct Session {
    EdgeServer* server = nullptr;
    std::deque<Pending> queue;  // FIFO in submission order
  };

  void admit(int session, Pending&& item);
  void record_reject() { ++stats_.admission_rejects; }

  GpuConfig config_;
  std::vector<Session> sessions_;
  int queued_ = 0;             // across all sessions (gate variable)
  double free_at_ms_ = 0.0;
  std::size_t rr_start_ = 0;   // rotating batch-collection origin
  GpuStats stats_;
};

class EdgeServer {
 public:
  /// `uplink_faults` (default: none) is consulted for every arriving
  /// message, so every pipeline that talks to this server — edgeIS and the
  /// baselines alike — faces the same uplink behaviour. `uplink_queue`
  /// models the mobile side's transmission-module serializer: messages
  /// admitted while an earlier one is still going onto the wire wait
  /// head-of-line.
  EdgeServer(segnet::ModelProfile model, sim::DeviceProfile device,
             rt::Rng rng, net::FaultInjector uplink_faults = {},
             net::SendQueue uplink_queue = {})
      : model_(std::move(model), rng),
        device_(std::move(device)),
        uplink_faults_(std::move(uplink_faults)),
        uplink_queue_(std::move(uplink_queue)),
        session_id_(own_gpu_.register_session(this)) {}

  // The owned GPU holds a back-pointer to this server, so a server never
  // changes address: no copies (and therefore no moves).
  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  struct Response {
    int frame_index = 0;
    double ready_ms = 0.0;  // completion time at the server
    std::vector<mask::InstanceMask> masks;
    segnet::InferenceStats stats;
    std::size_t payload_bytes = 0;  // serialized chunk size
    bool is_ping = false;           // liveness echo, no inference attached
    /// Echo of the sender's attempt number: lets the ledger apply Karn's
    /// rule exactly and detect spurious retransmissions (an attempt-0
    /// response arriving after attempt 1 was already on the wire).
    int attempt = 0;
    /// Streamed-response framing: chunk `chunk_index` of `chunk_count`.
    /// Pings and refusals are a single chunk (0 of 1), so completion
    /// logic treats every response uniformly.
    int chunk_index = 0;
    int chunk_count = 1;
    bool is_resend = false;  // re-emitted from the result cache
    /// Admission-control pushback from a shared GPU: the request reached
    /// the server but was refused at the gate (no inference ran). On a
    /// ping echo this is the saturated flag — "alive but busy".
    bool rejected = false;
    /// Canvas-delta pushback: the delta's base epoch did not match this
    /// session's canvas (or the canvas was cold), so the edge refused to
    /// reconstruct — no inference ran; the mobile side must fall back to
    /// a full keyframe. Never set on a full-keyframe submission.
    bool canvas_resync = false;
  };

  /// Submit a request: it enters the uplink send queue at `sent_ms`
  /// (head-of-line wait + per-message transit computed by the queue; a
  /// request lost on the uplink never reaches the server), is queued on
  /// the GPU, and comes back as one chunk per instance, each ready as its
  /// mask leaves the mask head. The model is evaluated at admission, so
  /// the RNG stream sees requests in submission order. The completed
  /// result is cached for `submit_resend`.
  void submit_streamed(int frame_index, double sent_ms, std::size_t bytes,
                       const segnet::InferenceRequest& request,
                       int attempt = 0);

  /// Full-keyframe submission that also (re)seeds this session's canvas:
  /// every delivered copy installs `encoded`'s tile grid at `epoch`
  /// before inference proceeds exactly as in `submit_streamed`.
  void submit_canvas_full(int frame_index, double sent_ms, std::size_t bytes,
                          const segnet::InferenceRequest& request, int attempt,
                          const enc::EncodedFrame& encoded,
                          std::uint32_t epoch);

  /// Delta submission: the edge reconstructs the frame from its canvas
  /// (warp + sent tiles), re-deriving the request's content quality from
  /// the post-apply canvas state. An epoch mismatch or cold canvas
  /// produces a small `canvas_resync` response instead of inference — the
  /// edge never segments a frame it cannot faithfully reconstruct.
  void submit_canvas_delta(int frame_index, double sent_ms, std::size_t bytes,
                           const segnet::InferenceRequest& request,
                           int attempt, const enc::CanvasDelta& delta);

  /// Install the canvas policy (tile aging/decay) for this session.
  void configure_canvas(const enc::CanvasOptions& opts) {
    canvas_ = enc::Canvas(opts);
  }
  [[nodiscard]] const enc::Canvas& canvas() const { return canvas_; }

  /// Re-emit only the named chunks of an already computed frame. A resend
  /// re-serializes from the result cache; it never re-infers and never
  /// touches the model queue. Returns false — without touching the link —
  /// when the frame is not cached (e.g. the original request was lost
  /// before compute), in which case the caller should fall back to a full
  /// retransmission.
  bool submit_resend(int frame_index, double sent_ms, std::size_t bytes,
                     const std::vector<int>& chunk_indices, int attempt);

  /// Submit a liveness probe (degraded-mode recovery detection) through
  /// the uplink send queue — a probe can ride behind a keyframe that is
  /// still serializing. The echo bypasses the inference queue; it is
  /// subject to the same uplink faults.
  void submit_ping(int ping_id, double sent_ms);

  /// Attach/detach a span tracer: per-message uplink spans, queue-wait
  /// and inference spans (the `infer` span carries CIIA's anchor and RoI
  /// counts). Non-owning.
  void set_tracer(rt::Tracer* tracer) { tracer_ = tracer; }

  /// Queue this server's requests on a shared multi-client GPU instead
  /// of its own (admission gate, batched dispatch). Non-owning; `gpu`
  /// must outlive the server. Attach before the first submission.
  void attach_gpu(EdgeGpu& gpu) {
    gpu_ = &gpu;
    session_id_ = gpu.register_session(this);
  }

  /// Pop all responses completed by `now_ms` (server-side; caller adds
  /// downlink latency), ordered by completion time. This first dispatches
  /// every GPU batch whose start time has been reached, so chunks ready
  /// by `now_ms` are never missed.
  std::vector<Response> poll(double now_ms);

  [[nodiscard]] const segnet::SegmentationModel& model() const {
    return model_;
  }
  [[nodiscard]] const net::FaultInjector& uplink_faults() const {
    return uplink_faults_;
  }
  [[nodiscard]] const net::SendQueue& uplink_queue() const {
    return uplink_queue_;
  }

 private:
  /// One cached chunk of a completed streamed response.
  struct CachedChunk {
    mask::InstanceMask mask;  // empty (0x0) for the instance-less chunk
    int instance_id = -1;
    std::size_t wire_bytes = 0;
    int chunk_index = 0;
  };
  struct CachedResult {
    std::vector<CachedChunk> chunks;
    segnet::InferenceStats stats;
    int chunk_count = 1;
  };

  friend class EdgeGpu;

  /// Route one arrived request through the GPU: reject at the admission
  /// gate (before any model evaluation) or evaluate the model now —
  /// per-session RNG draws stay in submission order no matter how the GPU
  /// later batches — and queue the result for dispatch.
  void enqueue_gpu(int frame_index, double arrive_ms,
                   const segnet::InferenceRequest& request, int attempt);
  /// Callback from EdgeGpu when a dispatched batch reaches this session's
  /// element: trace its spans and stream its chunks. Chunk i of n is
  /// ready as its mask leaves the mask head:
  /// ready = mask_base + mask_head * (i+1)/n.
  void emit_batched(int frame_index, int attempt, int width, int height,
                    segnet::InferenceResult&& result, double arrive_ms,
                    double start_ms, double mask_base_ms, int batch_index,
                    int batch_size);

  segnet::SegmentationModel model_;
  sim::DeviceProfile device_;
  net::FaultInjector uplink_faults_;
  net::SendQueue uplink_queue_;
  rt::Tracer* tracer_ = nullptr;
  EdgeGpu own_gpu_;
  EdgeGpu* gpu_ = &own_gpu_;  // own_gpu_, or a shared one (non-owning)
  int session_id_;
  std::vector<Response> completed_;
  // Completed results by frame index, bounded to the newest
  // kResultCacheFrames frames: resends name frames still in the client's
  // retransmission window, a few keyframes deep at most, and a miss only
  // costs the client a full retransmission.
  static constexpr std::size_t kResultCacheFrames = 16;
  std::map<int, CachedResult> result_cache_;
  enc::Canvas canvas_;  // per-session delta-uplink reconstruction state
};

}  // namespace edgeis::core
