// Tests for the network link models, wire protocol and send queue.
#include <gtest/gtest.h>

#include "net/link.hpp"

using namespace edgeis;
using namespace edgeis::net;

TEST(Link, ProfilesOrderedByBandwidth) {
  EXPECT_GT(wifi_5ghz().bandwidth_mbps, wifi_24ghz().bandwidth_mbps);
  EXPECT_GT(wifi_24ghz().bandwidth_mbps, lte().bandwidth_mbps);
  EXPECT_LT(wifi_5ghz().base_latency_ms, lte().base_latency_ms);
}

TEST(Link, TransmitScalesWithBytes) {
  rt::Rng rng(3);
  const auto link = wifi_5ghz();
  double small = 0.0, large = 0.0;
  for (int i = 0; i < 200; ++i) {
    small += transmit_ms(link, 10'000, rng);
    large += transmit_ms(link, 1'000'000, rng);
  }
  EXPECT_GT(large / 200, small / 200);
  // Serialization component: 1 MB over 160 Mbps = 50 ms.
  EXPECT_NEAR(large / 200, 50.0 + link.base_latency_ms, 15.0);
}

TEST(Link, SlowerLinkSlowerTransfer) {
  rt::Rng rng1(5), rng2(5);
  double fast = 0.0, slow = 0.0;
  for (int i = 0; i < 100; ++i) {
    fast += transmit_ms(wifi_5ghz(), 200'000, rng1);
    slow += transmit_ms(wifi_24ghz(), 200'000, rng2);
  }
  EXPECT_GT(slow, fast);
}

TEST(Link, LatencyAlwaysPositive) {
  rt::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(transmit_ms(lte(), 0, rng), 0.0);
  }
}

TEST(Link, CongestionTailFiresAtApproxProbability) {
  // The congestion tail adds >= 0.5 * penalty; with a small jitter the
  // only way past the threshold is the congestion branch, so the exceed
  // rate estimates congestion_probability.
  LinkProfile link;
  link.name = "synthetic";
  link.bandwidth_mbps = 100.0;
  link.base_latency_ms = 5.0;
  link.jitter_ms = 0.5;  // half-normal; P(> 10 sigma) is negligible
  link.congestion_probability = 0.1;
  link.congestion_penalty_ms = 100.0;

  rt::Rng rng(123);
  const int trials = 20000;
  int tail = 0;
  for (int i = 0; i < trials; ++i) {
    if (transmit_ms(link, 1000, rng) > 20.0) ++tail;
  }
  EXPECT_NEAR(static_cast<double>(tail) / trials,
              link.congestion_probability, 0.01);
}

// ---- Wire protocol (net/protocol.hpp). -------------------------------------

#include "net/protocol.hpp"

TEST(Protocol, KeyframeRoundTrip) {
  KeyframeMessage msg;
  msg.frame_index = 42;
  msg.width = 640;
  msg.height = 480;
  msg.tile_size = 64;
  msg.tile_classes = {0, 1, 2, 3};
  msg.tile_levels = {0, 2, 2, 3};
  msg.tile_payload_bytes = 12345;
  msg.priors.push_back({10, 20, 110, 220, 3, 7});
  msg.new_areas.push_back({0, 0, 64, 64});

  const auto bytes = serialize(msg);
  const auto parsed = parse_keyframe(bytes);
  EXPECT_EQ(parsed.frame_index, 42);
  EXPECT_EQ(parsed.tile_payload_bytes, 12345u);
  ASSERT_EQ(parsed.priors.size(), 1u);
  EXPECT_EQ(parsed.priors[0].instance_id, 7);
  ASSERT_EQ(parsed.new_areas.size(), 1u);
  EXPECT_EQ(parsed.new_areas[0].x1, 64);
  EXPECT_EQ(parsed.tile_levels, msg.tile_levels);
}

TEST(Protocol, KeyframeWireBytesIncludePayload) {
  KeyframeMessage msg;
  msg.tile_payload_bytes = 5000;
  EXPECT_GT(wire_bytes(msg), 5000u);
}

TEST(Protocol, MaskResultRoundTripReconstructs) {
  // Build a mask, serialize its contour, parse and rasterize it back.
  mask::InstanceMask m(320, 240);
  for (int y = 60; y < 180; ++y) {
    for (int x = 80; x < 240; ++x) m.set(x, y);
  }
  m.class_id = 4;
  m.instance_id = 9;
  const auto msg = build_mask_result(7, 320, 240, {m});
  ASSERT_EQ(msg.instances.size(), 1u);
  const auto bytes = serialize(msg);
  const auto parsed = parse_mask_result(bytes);
  const auto rebuilt = reconstruct_masks(parsed);
  ASSERT_EQ(rebuilt.size(), 1u);
  EXPECT_EQ(rebuilt[0].class_id, 4);
  EXPECT_EQ(rebuilt[0].instance_id, 9);
  EXPECT_GT(rebuilt[0].iou(m), 0.95);
}

TEST(Protocol, TruncatedMessageThrows) {
  KeyframeMessage msg;
  msg.tile_classes = {1, 2, 3};
  auto bytes = serialize(msg);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(parse_keyframe(bytes), rt::DeserializeError);
}

TEST(Protocol, WrongMagicRejected) {
  MaskResultMessage msg;
  const auto bytes = serialize(msg);
  EXPECT_THROW(parse_keyframe(bytes), rt::DeserializeError);
}

TEST(Protocol, BuildFromEncodedFrame) {
  mask::InstanceMask m(640, 480);
  for (int y = 200; y < 280; ++y) {
    for (int x = 260; x < 380; ++x) m.set(x, y);
  }
  const auto encoded = edgeis::enc::encode_cfrs(3, 640, 480, {m}, {});
  const auto msg = build_keyframe_message(encoded, {}, {});
  EXPECT_EQ(msg.frame_index, 3);
  EXPECT_EQ(msg.tile_classes.size(), encoded.tiles.size());
  EXPECT_EQ(msg.tile_payload_bytes, encoded.total_bytes);
  // Header overhead is small relative to the tile payload.
  EXPECT_LT(serialize(msg).size(), encoded.total_bytes);
}

// ---- Streamed per-instance chunk framing. ----------------------------------

namespace {

/// Two well-separated rectangles -> a two-instance result message.
MaskResultMessage two_instance_result() {
  mask::InstanceMask a(320, 240), b(320, 240);
  for (int y = 20; y < 100; ++y) {
    for (int x = 30; x < 140; ++x) a.set(x, y);
  }
  for (int y = 140; y < 220; ++y) {
    for (int x = 180; x < 300; ++x) b.set(x, y);
  }
  a.class_id = 2;
  a.instance_id = 5;
  b.class_id = 6;
  b.instance_id = 11;
  return build_mask_result(7, 320, 240, {a, b});
}

}  // namespace

TEST(Chunks, RoundTripThroughWireReassembles) {
  const auto msg = two_instance_result();
  const auto chunks = chunk_mask_result(msg);
  ASSERT_EQ(chunks.size(), 2u);

  ChunkAssembler asm_;
  for (const auto& c : chunks) {
    const auto parsed = parse_mask_chunk(serialize(c));
    EXPECT_EQ(asm_.accept(parsed), ChunkAssembler::Accept::kApplied);
  }
  ASSERT_TRUE(asm_.complete());
  const auto rebuilt = asm_.result();
  EXPECT_EQ(rebuilt.frame_index, 7);
  ASSERT_EQ(rebuilt.instances.size(), 2u);
  EXPECT_EQ(rebuilt.instances[0].instance_id, 5);
  EXPECT_EQ(rebuilt.instances[1].instance_id, 11);
  // The reassembled message rasterizes exactly like the monolithic one.
  const auto masks = reconstruct_masks(rebuilt);
  const auto direct = reconstruct_masks(msg);
  ASSERT_EQ(masks.size(), direct.size());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    EXPECT_GT(masks[i].iou(direct[i]), 0.999);
  }
}

TEST(Chunks, OutOfOrderArrivalReassemblesInStreamOrder) {
  auto chunks = chunk_mask_result(two_instance_result());
  ASSERT_EQ(chunks.size(), 2u);
  ChunkAssembler asm_;
  EXPECT_EQ(asm_.accept(chunks[1]), ChunkAssembler::Accept::kApplied);
  EXPECT_FALSE(asm_.complete());
  EXPECT_EQ(asm_.missing_chunks(), std::vector<int>{0});
  EXPECT_EQ(asm_.accept(chunks[0]), ChunkAssembler::Accept::kApplied);
  ASSERT_TRUE(asm_.complete());
  // Stream (chunk-index) order, regardless of arrival order.
  EXPECT_EQ(asm_.arrived_instances(), (std::vector<int>{5, 11}));
}

TEST(Chunks, DuplicateChunkIsIdempotent) {
  const auto chunks = chunk_mask_result(two_instance_result());
  ChunkAssembler asm_;
  EXPECT_EQ(asm_.accept(chunks[0]), ChunkAssembler::Accept::kApplied);
  EXPECT_EQ(asm_.accept(chunks[0]), ChunkAssembler::Accept::kDuplicate);
  EXPECT_EQ(asm_.received(), 1);
  EXPECT_EQ(asm_.accept(chunks[1]), ChunkAssembler::Accept::kApplied);
  EXPECT_TRUE(asm_.complete());
  EXPECT_EQ(asm_.result().instances.size(), 2u);
}

TEST(Chunks, ForeignFrameOrCountMismatchRejected) {
  const auto chunks = chunk_mask_result(two_instance_result());
  ChunkAssembler asm_;
  ASSERT_EQ(asm_.accept(chunks[0]), ChunkAssembler::Accept::kApplied);
  auto foreign = chunks[1];
  foreign.frame_index = 99;
  EXPECT_EQ(asm_.accept(foreign), ChunkAssembler::Accept::kMismatch);
  auto wrong_count = chunks[1];
  wrong_count.chunk_count = 5;
  EXPECT_EQ(asm_.accept(wrong_count), ChunkAssembler::Accept::kMismatch);
  EXPECT_EQ(asm_.received(), 1);
}

TEST(Chunks, EmptyResultIsOneTerminalChunk) {
  MaskResultMessage empty;
  empty.frame_index = 3;
  empty.width = 320;
  empty.height = 240;
  const auto chunks = chunk_mask_result(empty);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].instances.empty());
  ChunkAssembler asm_;
  EXPECT_EQ(asm_.accept(chunks[0]), ChunkAssembler::Accept::kApplied);
  EXPECT_TRUE(asm_.complete());
  EXPECT_TRUE(asm_.result().instances.empty());
}

TEST(Chunks, ResendRequestRoundTripAndSize) {
  ResendRequestMessage req;
  req.frame_index = 12;
  req.chunk_indices = {0, 3, 4};
  const auto parsed = parse_resend_request(serialize(req));
  EXPECT_EQ(parsed.frame_index, 12);
  EXPECT_EQ(parsed.chunk_indices, req.chunk_indices);
  // The whole point of resend-by-chunk-index: the request is tiny
  // compared to re-uploading a keyframe or re-sending the response.
  KeyframeMessage kf;
  kf.tile_payload_bytes = 5000;
  EXPECT_LT(wire_bytes(req), wire_bytes(kf) / 10);
  EXPECT_THROW(parse_mask_chunk(serialize(req)), rt::DeserializeError);
}

TEST(Chunks, PerChunkFramingCarriesHeaderOverhead) {
  const auto msg = two_instance_result();
  const auto chunks = chunk_mask_result(msg);
  std::size_t chunked = 0;
  for (const auto& c : chunks) chunked += wire_bytes(c);
  // Streaming repeats the frame header per chunk; the sum must cover the
  // monolithic encoding but only by a small framing overhead.
  EXPECT_GT(chunked, wire_bytes(msg));
  EXPECT_LT(chunked, wire_bytes(msg) + chunks.size() * 64);
}

// ---- Full-duplex send queue. ------------------------------------------------

#include "net/send_queue.hpp"

#include "runtime/rng.hpp"

TEST(SendQueue, IdleQueueSendsImmediately) {
  SendQueue q(wifi_5ghz(), rt::Rng(1));
  const auto out = q.enqueue(100.0, 20000);
  EXPECT_DOUBLE_EQ(out.slot.enter_ms, 100.0);
  EXPECT_DOUBLE_EQ(out.slot.queue_wait_ms, 0.0);
  EXPECT_GT(out.slot.serialize_ms, 0.0);
  EXPECT_GE(out.slot.transit_ms, out.slot.serialize_ms);
  EXPECT_DOUBLE_EQ(out.deliver_ms, 100.0 + out.slot.transit_ms);
}

TEST(SendQueue, SerializerIsHeadOfLineButFlightOverlaps) {
  SendQueue q(wifi_24ghz(), rt::Rng(2));
  const auto first = q.enqueue(0.0, 200000);
  const auto second = q.enqueue(0.0, 200000);
  // The serializer is a single resource: the second message waits out the
  // first's bytes-on-wire time, then takes its own propagation sample.
  EXPECT_DOUBLE_EQ(second.slot.enter_ms, first.slot.serialize_ms);
  EXPECT_DOUBLE_EQ(second.slot.queue_wait_ms, first.slot.serialize_ms);
  EXPECT_GT(second.deliver_ms, first.deliver_ms);
  // Both messages are in flight at once — that is the full-duplex point.
  EXPECT_EQ(q.in_flight(first.slot.enter_ms + 0.01), 2);
  EXPECT_EQ(q.in_flight(second.deliver_ms), 0);
  EXPECT_EQ(q.messages_sent(), 2u);
  EXPECT_EQ(q.bytes_sent(), 400000u);
}

TEST(SendQueue, LaterArrivalFindsFreeSerializer) {
  SendQueue q(wifi_5ghz(), rt::Rng(3));
  const auto first = q.enqueue(0.0, 50000);
  const auto second = q.enqueue(first.slot.serialize_ms + 5.0, 50000);
  EXPECT_DOUBLE_EQ(second.slot.queue_wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(second.slot.enter_ms, first.slot.serialize_ms + 5.0);
}

TEST(SendQueue, DroppedMessageStillOccupiesSerializer) {
  FaultInjector drop_all(
      FaultScript().add({0.0, 1e18, FaultMode::kDrop, 1.0, 0.0}),
      rt::Rng(4));
  SendQueue q(wifi_24ghz(), rt::Rng(5));
  const auto first = q.enqueue(0.0, 200000, drop_all);
  EXPECT_TRUE(first.fate.drop);
  // The radio spent the air time before the loss: the next message still
  // queues behind the corpse.
  const auto second = q.enqueue(0.0, 200000, drop_all);
  EXPECT_DOUBLE_EQ(second.slot.queue_wait_ms, first.slot.serialize_ms);
}

TEST(SendQueue, ThrottleStretchesOccupancyForFollowers) {
  FaultInjector slow(FaultScript::throttle(0.0, 1e18, 4.0), rt::Rng(6));
  SendQueue clean_q(wifi_24ghz(), rt::Rng(7));
  SendQueue slow_q(wifi_24ghz(), rt::Rng(7));
  const auto clean = clean_q.enqueue(0.0, 100000);
  (void)slow_q.enqueue(0.0, 100000, slow);
  FaultInjector none;
  const auto behind = slow_q.enqueue(0.0, 100000, none);
  // Collapsed bandwidth stretches the first message's serializer
  // occupancy 4x; whatever queues behind waits the stretched time.
  EXPECT_DOUBLE_EQ(behind.slot.queue_wait_ms, 4.0 * clean.slot.serialize_ms);
}

TEST(SendQueue, DuplicateCopyPropagatesIndependently) {
  FaultInjector dup(
      FaultScript().add({0.0, 1e18, FaultMode::kDuplicate, 1.0, 0.0}),
      rt::Rng(8));
  SendQueue q(wifi_5ghz(), rt::Rng(9));
  const auto out = q.enqueue(0.0, 30000, dup);
  ASSERT_TRUE(out.fate.duplicate);
  EXPECT_GT(out.duplicate_deliver_ms, out.deliver_ms);
  EXPECT_GT(out.duplicate_transit_ms, 0.0);
  EXPECT_EQ(q.in_flight(out.deliver_ms - 0.01), 2);
}

// ---- Property-style invariants under seeded random schedules. ---------------

#include <algorithm>

namespace {

/// External mirror of the queue's in-flight tracker: every admission
/// leaves its primary at its (would-have-been, if dropped) arrival time,
/// and a surviving duplicate adds a lagging second copy.
int mirror_in_flight(const std::vector<double>& arrivals, double now_ms) {
  return static_cast<int>(std::count_if(arrivals.begin(), arrivals.end(),
                                        [&](double d) { return d > now_ms; }));
}

}  // namespace

TEST(SendQueueProperty, SerializerOccupancyNeverOverlaps) {
  // Random admission times and sizes through a throttle window: wire
  // entry must never precede either the admission or the previous
  // message's occupancy end, and the occupancy frontier is monotone.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SendQueue q(wifi_24ghz(), rt::Rng(seed));
    FaultInjector faults(FaultScript::throttle(3000.0, 6000.0, 3.0),
                         rt::Rng(seed + 100));
    rt::Rng sched(seed + 200);
    double now = 0.0;
    double prev_busy = q.busy_until_ms();
    for (int i = 0; i < 300; ++i) {
      now += sched.uniform(0.0, 25.0);
      const auto bytes =
          static_cast<std::size_t>(sched.uniform(500.0, 120000.0));
      const auto out = q.enqueue(now, bytes, faults);
      ASSERT_GE(out.slot.enter_ms, now);
      ASSERT_GE(out.slot.enter_ms, prev_busy);
      ASSERT_DOUBLE_EQ(out.slot.queue_wait_ms, out.slot.enter_ms - now);
      ASSERT_GT(out.slot.serialize_ms, 0.0);
      ASSERT_GE(q.busy_until_ms(), out.slot.enter_ms);
      ASSERT_GE(q.busy_until_ms(), prev_busy);
      prev_busy = q.busy_until_ms();
      ASSERT_GE(q.in_flight(now), 0);
    }
  }
}

TEST(SendQueueProperty, InFlightMatchesExternalMirrorUnderFaults) {
  // Drops early in the run, duplicates later: both fates must leave the
  // in-flight tracker consistent with a naive external mirror (a dropped
  // primary still counts until its would-have-been arrival; a surviving
  // duplicate adds a second, lagging copy).
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SendQueue q(lte(), rt::Rng(seed));
    FaultInjector faults(
        FaultScript()
            .add({1000.0, 5000.0, FaultMode::kDrop, 0.4})
            .add({8000.0, 14000.0, FaultMode::kDuplicate, 0.4}),
        rt::Rng(seed + 50));
    rt::Rng sched(seed + 99);
    std::vector<double> arrivals;
    double now = 0.0;
    for (int i = 0; i < 250; ++i) {
      now += sched.uniform(0.0, 80.0);
      const auto bytes =
          static_cast<std::size_t>(sched.uniform(200.0, 60000.0));
      const auto out = q.enqueue(now, bytes, faults);
      arrivals.push_back(out.deliver_ms);
      if (!out.fate.drop && out.fate.duplicate) {
        arrivals.push_back(out.duplicate_deliver_ms);
      }
      const double probe = now + sched.uniform(0.0, 200.0);
      ASSERT_EQ(q.in_flight(now), mirror_in_flight(arrivals, now));
      ASSERT_EQ(q.in_flight(probe), mirror_in_flight(arrivals, probe));
    }
    EXPECT_EQ(q.in_flight(1e18), 0);
  }
}

namespace {

/// Four well-separated rectangles -> a four-chunk streamed response.
MaskResultMessage four_instance_result() {
  std::vector<mask::InstanceMask> masks;
  for (int i = 0; i < 4; ++i) {
    mask::InstanceMask m(320, 240);
    const int x0 = 20 + 75 * i;
    for (int y = 40 + 10 * i; y < 160 + 10 * i; ++y) {
      for (int x = x0; x < x0 + 50; ++x) m.set(x, y);
    }
    m.class_id = 1 + i;
    m.instance_id = 10 + i;
    masks.push_back(std::move(m));
  }
  return build_mask_result(9, 320, 240, masks);
}

}  // namespace

TEST(ChunksProperty, AssemblerIdempotentUnderAnyInterleaving) {
  // The assembler must be a pure function of the *set* of chunks it has
  // applied: any seeded random interleaving of duplicates and reorderings
  // reassembles to the byte-identical message.
  const auto chunks = chunk_mask_result(four_instance_result());
  ASSERT_EQ(chunks.size(), 4u);

  ChunkAssembler ordered;
  for (const auto& c : chunks) {
    ASSERT_EQ(ordered.accept(c), ChunkAssembler::Accept::kApplied);
  }
  ASSERT_TRUE(ordered.complete());
  const auto want = serialize(ordered.result());

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    rt::Rng rng(seed);
    // Each chunk arrives one to three times, in a shuffled order.
    std::vector<int> schedule;
    for (int idx = 0; idx < 4; ++idx) {
      const int copies = 1 + static_cast<int>(rng.uniform_int(3));
      for (int c = 0; c < copies; ++c) schedule.push_back(idx);
    }
    for (std::size_t i = schedule.size(); i > 1; --i) {
      std::swap(schedule[i - 1], schedule[rng.uniform_int(i)]);
    }

    ChunkAssembler asm_;
    int applied = 0;
    for (int idx : schedule) {
      const auto verdict = asm_.accept(chunks[idx]);
      if (verdict == ChunkAssembler::Accept::kApplied) {
        ++applied;
      } else {
        ASSERT_EQ(verdict, ChunkAssembler::Accept::kDuplicate);
      }
    }
    EXPECT_EQ(applied, 4);
    ASSERT_TRUE(asm_.complete());
    EXPECT_EQ(asm_.received(), 4);
    EXPECT_EQ(serialize(asm_.result()), want);
    EXPECT_EQ(asm_.arrived_instances(), ordered.arrived_instances());
  }
}

// ---------------------------------------------------------------------------
// Versioned codec (net/codec.hpp): the registry is the source of truth for
// what can cross the wire; these tests iterate it so a newly registered
// message type is covered without editing them.

#include <set>

#include "net/codec.hpp"

TEST(Codec, RegistryRoundTripsEveryMessageType) {
  const auto types = registered_message_types();
  ASSERT_GE(types.size(), 5u);  // keyframe, delta, result, chunk, resend
  std::set<std::uint8_t> tags;
  for (const auto& t : types) {
    EXPECT_TRUE(tags.insert(t.tag).second)
        << t.name << ": duplicate tag " << int(t.tag);
    ASSERT_NE(t.round_trip_ok, nullptr) << t.name;
    EXPECT_TRUE(t.round_trip_ok()) << t.name << ": sample round trip failed";
  }
}

namespace {

DeltaKeyframeMessage sample_delta(rt::Rng& rng) {
  DeltaKeyframeMessage m;
  m.frame_index = static_cast<std::int32_t>(rng.uniform_int(10'000));
  m.width = 640;
  m.height = 480;
  m.tile_size = 64;
  m.epoch = static_cast<std::uint32_t>(1 + rng.uniform_int(1000));
  m.base_epoch = m.epoch - 1;
  m.warp_dx_tiles = static_cast<std::int16_t>(rng.uniform_int(7)) - 3;
  m.warp_dy_tiles = static_cast<std::int16_t>(rng.uniform_int(7)) - 3;
  const int tiles = static_cast<int>(rng.uniform_int(40));
  for (int i = 0; i < tiles; ++i) {
    m.tiles.push_back({static_cast<std::uint16_t>(rng.uniform_int(80)),
                       static_cast<std::uint8_t>(rng.uniform_int(4)),
                       static_cast<std::uint8_t>(rng.uniform_int(4))});
  }
  m.tile_payload_bytes = 37 * m.tiles.size();
  const int priors = static_cast<int>(rng.uniform_int(4));
  for (int i = 0; i < priors; ++i) {
    KeyframeMessage::Prior p;
    p.x0 = static_cast<std::int32_t>(rng.uniform_int(320));
    p.y0 = static_cast<std::int32_t>(rng.uniform_int(240));
    p.x1 = 320;
    p.y1 = 240;
    p.class_id = static_cast<std::int32_t>(rng.uniform_int(8));
    p.instance_id = static_cast<std::int32_t>(rng.uniform_int(32));
    m.priors.push_back(p);
  }
  if (rng.uniform_int(2) == 0) {
    m.new_areas.push_back({0, 0, static_cast<int>(1 + rng.uniform_int(639)),
                           static_cast<int>(1 + rng.uniform_int(479))});
  }
  return m;
}

}  // namespace

TEST(Codec, DeltaKeyframeFuzzRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    rt::Rng rng(seed);
    const auto msg = sample_delta(rng);
    const auto bytes = Codec::encode(msg);
    EXPECT_EQ(Codec::peek_tag(bytes), MessageTraits<DeltaKeyframeMessage>::kTag);
    const auto back = Codec::decode<DeltaKeyframeMessage>(bytes);
    EXPECT_EQ(back, msg) << "seed " << seed;
    // Wire accounting derives from the encoding, never a parallel formula.
    EXPECT_EQ(Codec::wire_bytes(msg), bytes.size() + msg.tile_payload_bytes);
  }
}

TEST(Codec, TruncatedDeltaKeyframeThrows) {
  rt::Rng rng(7);
  const auto bytes = Codec::encode(sample_delta(rng));
  // Every proper prefix must fail loudly, not parse garbage.
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{5},
                          bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(Codec::decode<DeltaKeyframeMessage>(
                     std::span(bytes.data(), len)),
                 rt::DeserializeError)
        << "prefix " << len;
  }
}

TEST(Codec, TagMismatchRejected) {
  KeyframeMessage kf;
  kf.frame_index = 3;
  kf.width = 64;
  kf.height = 64;
  const auto bytes = Codec::encode(kf);
  EXPECT_THROW(Codec::decode<DeltaKeyframeMessage>(bytes),
               rt::DeserializeError);
}

TEST(Codec, CorruptMagicAndVersionRejected) {
  rt::Rng rng(11);
  auto bytes = Codec::encode(sample_delta(rng));
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(Codec::decode<DeltaKeyframeMessage>(bad_magic),
               rt::DeserializeError);
  auto bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_THROW(Codec::decode<DeltaKeyframeMessage>(bad_version),
               rt::DeserializeError);
}

TEST(Codec, LegacyWrappersAreTheCodec) {
  KeyframeMessage kf;
  kf.frame_index = 12;
  kf.width = 640;
  kf.height = 480;
  kf.tile_classes = {0, 1, 2, 3};
  kf.tile_levels = {0, 2, 3, 1};
  kf.tile_payload_bytes = 1234;
  kf.canvas_epoch = 9;
  EXPECT_EQ(serialize(kf), Codec::encode(kf));
  EXPECT_EQ(wire_bytes(kf), Codec::wire_bytes(kf));
  EXPECT_EQ(parse_keyframe(serialize(kf)), kf);
}
