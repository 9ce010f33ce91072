#include "net/send_queue.hpp"

#include <algorithm>
#include <cmath>

namespace edgeis::net {

SendOutcome SendQueue::enqueue(double now_ms, std::size_t bytes,
                               FaultInjector& faults) {
  // Callers advance monotonically; anything delivered by now is no longer
  // in flight and need not be tracked. The tracker is a min-heap on
  // arrival time, drained from the front: each element is pushed and
  // popped exactly once, so a long run stays O(log n) per enqueue instead
  // of the full O(n) scan a per-call erase_if costs.
  while (!deliveries_.empty() && deliveries_.front() <= now_ms) {
    std::pop_heap(deliveries_.begin(), deliveries_.end(),
                  std::greater<>());
    deliveries_.pop_back();
  }

  SendOutcome out;
  SendSlot& slot = out.slot;
  slot.enter_ms = std::max(now_ms, busy_until_ms_);
  slot.queue_wait_ms = slot.enter_ms - now_ms;
  slot.serialize_ms = static_cast<double>(bytes) * 8.0 /
                      (link_.bandwidth_mbps * 1000.0);
  // Same shape as transmit_ms(): serialization + propagation + half-normal
  // jitter, with a congestion-probability tail.
  double propagation = link_.base_latency_ms +
                       std::abs(rng_.normal(0.0, link_.jitter_ms));
  if (rng_.chance(link_.congestion_probability)) {
    propagation += rng_.uniform(0.5, 1.5) * link_.congestion_penalty_ms;
  }
  slot.transit_ms = slot.serialize_ms + propagation;

  out.fate = faults.on_message(slot.enter_ms);
  // A bandwidth collapse stretches the time the message spends on the
  // wire, which keeps the serializer occupied for the stretched extent:
  // everything queued behind it inherits the delay.
  busy_until_ms_ =
      slot.enter_ms + slot.serialize_ms * out.fate.latency_scale;

  out.deliver_ms = slot.enter_ms + slot.transit_ms * out.fate.latency_scale +
                   out.fate.extra_delay_ms;
  if (!out.fate.drop && out.fate.duplicate) {
    // The duplicate is its own transmission: independent propagation
    // sample, no inherited reorder delay (the copies must not arrive in
    // lockstep). It does not re-occupy our serializer — duplication is
    // injected below the queue, at the link layer.
    double dup_prop = link_.base_latency_ms +
                      std::abs(rng_.normal(0.0, link_.jitter_ms));
    if (rng_.chance(link_.congestion_probability)) {
      dup_prop += rng_.uniform(0.5, 1.5) * link_.congestion_penalty_ms;
    }
    out.duplicate_transit_ms = slot.serialize_ms + dup_prop;
    out.duplicate_deliver_ms =
        slot.enter_ms + out.duplicate_transit_ms * out.fate.latency_scale +
        out.fate.duplicate_delay_ms;
    deliveries_.push_back(out.duplicate_deliver_ms);
    std::push_heap(deliveries_.begin(), deliveries_.end(), std::greater<>());
  }
  deliveries_.push_back(out.deliver_ms);
  std::push_heap(deliveries_.begin(), deliveries_.end(), std::greater<>());
  return out;
}

int SendQueue::in_flight(double now_ms) const {
  int n = 0;
  for (double d : deliveries_) {
    if (d > now_ms) ++n;
  }
  return n;
}

}  // namespace edgeis::net
