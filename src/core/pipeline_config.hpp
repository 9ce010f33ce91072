// Configuration of one client (edgeIS or a baseline). Free of scene
// types, so the request ledger can be built and tested without a scene.
#pragma once

#include <cstdint>

#include "encoding/uplink_encoder.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "net/rto.hpp"
#include "segnet/model.hpp"
#include "sim/device.hpp"

namespace edgeis::core {

struct PipelineConfig {
  net::LinkProfile link = net::wifi_5ghz();
  sim::DeviceProfile mobile = sim::iphone11();
  sim::DeviceProfile edge = sim::jetson_tx2();
  segnet::ModelProfile model = segnet::mask_rcnn_profile();
  std::uint64_t seed = 42;

  // Module toggles (ablation, Fig. 16). All three on = full edgeIS.
  bool enable_mamt = true;  // motion aware mobile mask transfer
  bool enable_ciia = true;  // contour instructed inference acceleration
  bool enable_cfrs = true;  // content-based fine-grained RoI selection

  // Uplink encoding: tile geometry and full-vs-delta mode
  // (encoding/uplink_encoder.hpp). The default (UplinkMode::kFull)
  // reproduces the pre-canvas send path bit for bit.
  enc::EncodingConfig encoding;

  // CFRS parameter t (Section V).
  double new_content_threshold = 0.25;

  // Failure handling (DESIGN.md "Failure handling"). `faults` scripts the
  // link — per direction, or symmetrically via the implicit conversion
  // from a single FaultScript; the remaining knobs drive the request
  // ledger and the degraded-mode state machine (core/request_ledger.hpp).
  net::DuplexFaultScript faults;
  // Per-attempt deadlines come from an adaptive RTT estimator (net/rto.hpp)
  // seeded from `link.base_latency_ms` — there is no fixed per-link
  // request timeout to tune. `rto` only bounds and shapes the estimator.
  net::RtoConfig rto;
  int max_retries = 2;                 // retransmissions per request
  double retry_backoff_base_ms = 60.0; // backoff = base * 2^attempt,
                                       // clamped to rto.max_rto_ms
  // Degraded-mode entry is keyed off RTO inflation: enter once timeout
  // backoff has multiplied the RTO by this factor (2^k after k
  // consecutive unanswered deadlines; any response resets it).
  double degraded_entry_rto_inflation = 8.0;
  int probe_interval_frames = 15;      // ping cadence while degraded
};

}  // namespace edgeis::core
