// Network link models for the mobile<->edge channel: WiFi 2.4 GHz,
// WiFi 5 GHz and LTE profiles with bandwidth, base latency, jitter and a
// congestion-probability tail — the knobs the paper varies in Section
// VI-C2 and the field study.
#pragma once

#include <cstddef>
#include <string>

#include "net/faults.hpp"
#include "runtime/rng.hpp"
#include "runtime/trace.hpp"

namespace edgeis::net {

struct LinkProfile {
  std::string name;
  double bandwidth_mbps = 100.0;  // effective goodput
  double base_latency_ms = 3.0;   // one-way
  double jitter_ms = 1.0;         // half-normal added per message
  double congestion_probability = 0.02;  // chance of a stalled burst
  double congestion_penalty_ms = 40.0;
};

LinkProfile wifi_5ghz();
LinkProfile wifi_24ghz();
LinkProfile lte();

/// Simulated one-way message delivery time for `bytes` over the link.
double transmit_ms(const LinkProfile& link, std::size_t bytes,
                   edgeis::rt::Rng& rng);

/// Emit the per-message link-transfer span(s) for one send: an X span on
/// the uplink/downlink track covering the message's time on the wire,
/// annotated with its size and the injected fault (dropped / duplicated /
/// reordered / throttled). `transit_ms` is the nominal (pre-fault)
/// transmit time; the span applies the fate's stretch and delay exactly as
/// the delivery path does. A dropped message still gets a span (its
/// nominal extent) so outages are visible as annotated gaps, and a
/// duplicated one gets a second span for the lagging copy. No-op when
/// `tracer` is null.
///
/// Full-duplex extensions: `queue_wait_ms` > 0 annotates the head-of-line
/// wait the message spent behind the send queue's serializer;
/// `chunk_index` >= 0 marks a streamed response chunk (`chunk_index` of
/// `chunk_count`); `is_resend` marks a missing-instance retransmission.
void trace_transfer(rt::Tracer* tracer, bool uplink, double enter_ms,
                    double transit_ms, std::size_t bytes,
                    const FaultDecision& fate, int request_id, int attempt,
                    double duplicate_transit_ms = 0.0,
                    double queue_wait_ms = 0.0, int chunk_index = -1,
                    int chunk_count = 0, bool is_resend = false);

}  // namespace edgeis::net
