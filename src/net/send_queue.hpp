// Full-duplex transmission: one SendQueue per link direction. The paper's
// transmission module (Section VI-A) runs as its own thread, so the radio
// can serialize a keyframe while a liveness ping queues behind it and a
// response streams down the other direction — the half-duplex
// one-outstanding-request model this replaces could not express that.
//
// The queue models the serializer as a single resource: a message admitted
// while an earlier one is still going onto the wire waits head-of-line,
// then transmits with its own propagation sample. Any number of messages
// may be *in flight* (serialized, still propagating) at once; full duplex
// is simply two queues, one per direction, with independent Rng streams.
#pragma once

#include <cstddef>
#include <vector>

#include "net/faults.hpp"
#include "net/link.hpp"

namespace edgeis::net {

/// Scheduling decision for one admitted message, before faults.
struct SendSlot {
  double enter_ms = 0.0;       // serialization start (wire entry)
  double queue_wait_ms = 0.0;  // head-of-line wait before serializing
  double serialize_ms = 0.0;   // bytes-on-wire time at link bandwidth
  double transit_ms = 0.0;     // serialize + propagation + jitter (+tail)
};

/// One admitted message with its fault fate applied: what the receiving
/// side observes. `deliver_ms` values are only meaningful when the
/// corresponding copy exists (`!fate.drop`, `fate.duplicate`).
struct SendOutcome {
  SendSlot slot;
  FaultDecision fate;
  double deliver_ms = 0.0;            // primary copy arrival
  double duplicate_deliver_ms = 0.0;  // lagging copy arrival
  double duplicate_transit_ms = 0.0;  // independent transit of the copy
};

class SendQueue {
 public:
  SendQueue() : rng_(0) {}
  SendQueue(LinkProfile link, rt::Rng rng)
      : link_(std::move(link)), rng_(rng) {}

  /// Admit one message at `now_ms` and decide its fate through `faults`.
  /// Fault windows key off the wire-entry time (after the head-of-line
  /// wait), matching how a throttle window stretches whatever is on the
  /// wire while it is active. A dropped message still occupied the
  /// serializer — it died in flight, not before sending — and a throttle
  /// stretches the serializer occupancy too, so everything queued behind
  /// a collapsed-bandwidth message waits it out.
  SendOutcome enqueue(double now_ms, std::size_t bytes,
                      FaultInjector& faults);

  /// Fault-free admission (clean-link paths and unit tests).
  SendOutcome enqueue(double now_ms, std::size_t bytes) {
    FaultInjector none;
    return enqueue(now_ms, bytes, none);
  }

  /// Serializer-free time: the wire-entry time of the next admission at
  /// or before this instant.
  [[nodiscard]] double busy_until_ms() const { return busy_until_ms_; }
  /// Messages serialized but not yet delivered at `now_ms` (dropped
  /// copies leave the count at their would-have-been arrival).
  [[nodiscard]] int in_flight(double now_ms) const;
  [[nodiscard]] const LinkProfile& link() const { return link_; }

 private:
  LinkProfile link_;
  rt::Rng rng_;
  double busy_until_ms_ = 0.0;
  // In-flight arrival times, kept as a min-heap on arrival so enqueue()
  // drains expired entries from the front in O(log n) amortized.
  std::vector<double> deliveries_;
};

}  // namespace edgeis::net
