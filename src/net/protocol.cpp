#include "net/protocol.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace edgeis::net {

namespace {

void write_priors(rt::ByteWriter& w,
                  const std::vector<KeyframeMessage::Prior>& priors) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(priors.size()));
  for (const auto& p : priors) {
    w.put<std::int32_t>(p.x0);
    w.put<std::int32_t>(p.y0);
    w.put<std::int32_t>(p.x1);
    w.put<std::int32_t>(p.y1);
    w.put<std::int32_t>(p.class_id);
    w.put<std::int32_t>(p.instance_id);
  }
}

std::vector<KeyframeMessage::Prior> read_priors(rt::ByteReader& r) {
  std::vector<KeyframeMessage::Prior> priors;
  const auto n = r.get<std::uint32_t>();
  priors.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KeyframeMessage::Prior p;
    p.x0 = r.get<std::int32_t>();
    p.y0 = r.get<std::int32_t>();
    p.x1 = r.get<std::int32_t>();
    p.y1 = r.get<std::int32_t>();
    p.class_id = r.get<std::int32_t>();
    p.instance_id = r.get<std::int32_t>();
    priors.push_back(p);
  }
  return priors;
}

void write_boxes(rt::ByteWriter& w, const std::vector<mask::Box>& boxes) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(boxes.size()));
  for (const auto& b : boxes) {
    w.put<std::int32_t>(b.x0);
    w.put<std::int32_t>(b.y0);
    w.put<std::int32_t>(b.x1);
    w.put<std::int32_t>(b.y1);
  }
}

std::vector<mask::Box> read_boxes(rt::ByteReader& r) {
  std::vector<mask::Box> boxes;
  const auto n = r.get<std::uint32_t>();
  boxes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    mask::Box b;
    b.x0 = r.get<std::int32_t>();
    b.y0 = r.get<std::int32_t>();
    b.x1 = r.get<std::int32_t>();
    b.y1 = r.get<std::int32_t>();
    boxes.push_back(b);
  }
  return boxes;
}

void write_instance(rt::ByteWriter& w,
                    const MaskResultMessage::Instance& inst) {
  w.put<std::int32_t>(inst.class_id);
  w.put<std::int32_t>(inst.instance_id);
  w.put_vector(inst.xs);
  w.put_vector(inst.ys);
}

MaskResultMessage::Instance read_instance(rt::ByteReader& r) {
  MaskResultMessage::Instance inst;
  inst.class_id = r.get<std::int32_t>();
  inst.instance_id = r.get<std::int32_t>();
  inst.xs = r.get_vector<std::uint16_t>();
  inst.ys = r.get_vector<std::uint16_t>();
  if (inst.xs.size() != inst.ys.size()) {
    throw rt::DeserializeError("contour coordinate count mismatch");
  }
  return inst;
}

}  // namespace

void MessageTraits<KeyframeMessage>::write(rt::ByteWriter& w,
                                           const KeyframeMessage& msg) {
  w.put<std::int32_t>(msg.frame_index);
  w.put<std::int32_t>(msg.width);
  w.put<std::int32_t>(msg.height);
  w.put<std::uint8_t>(msg.tile_size);
  w.put_vector(msg.tile_classes);
  w.put_vector(msg.tile_levels);
  w.put<std::uint64_t>(msg.tile_payload_bytes);
  w.put<std::uint32_t>(msg.canvas_epoch);
  write_priors(w, msg.priors);
  write_boxes(w, msg.new_areas);
}

KeyframeMessage MessageTraits<KeyframeMessage>::read(rt::ByteReader& r) {
  KeyframeMessage msg;
  msg.frame_index = r.get<std::int32_t>();
  msg.width = r.get<std::int32_t>();
  msg.height = r.get<std::int32_t>();
  msg.tile_size = r.get<std::uint8_t>();
  msg.tile_classes = r.get_vector<std::uint8_t>();
  msg.tile_levels = r.get_vector<std::uint8_t>();
  msg.tile_payload_bytes = r.get<std::uint64_t>();
  msg.canvas_epoch = r.get<std::uint32_t>();
  msg.priors = read_priors(r);
  msg.new_areas = read_boxes(r);
  return msg;
}

void MessageTraits<MaskResultMessage>::write(rt::ByteWriter& w,
                                             const MaskResultMessage& msg) {
  w.put<std::int32_t>(msg.frame_index);
  w.put<std::int32_t>(msg.width);
  w.put<std::int32_t>(msg.height);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(msg.instances.size()));
  for (const auto& inst : msg.instances) write_instance(w, inst);
}

MaskResultMessage MessageTraits<MaskResultMessage>::read(rt::ByteReader& r) {
  MaskResultMessage msg;
  msg.frame_index = r.get<std::int32_t>();
  msg.width = r.get<std::int32_t>();
  msg.height = r.get<std::int32_t>();
  const auto n = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n; ++i) {
    msg.instances.push_back(read_instance(r));
  }
  return msg;
}

void MessageTraits<MaskChunkMessage>::write(rt::ByteWriter& w,
                                            const MaskChunkMessage& msg) {
  w.put<std::int32_t>(msg.frame_index);
  w.put<std::int32_t>(msg.width);
  w.put<std::int32_t>(msg.height);
  w.put<std::uint16_t>(msg.chunk_index);
  w.put<std::uint16_t>(msg.chunk_count);
  w.put<std::uint8_t>(msg.instances.empty() ? 0 : 1);
  if (!msg.instances.empty()) write_instance(w, msg.instances.front());
}

MaskChunkMessage MessageTraits<MaskChunkMessage>::read(rt::ByteReader& r) {
  MaskChunkMessage msg;
  msg.frame_index = r.get<std::int32_t>();
  msg.width = r.get<std::int32_t>();
  msg.height = r.get<std::int32_t>();
  msg.chunk_index = r.get<std::uint16_t>();
  msg.chunk_count = r.get<std::uint16_t>();
  if (msg.chunk_count == 0 || msg.chunk_index >= msg.chunk_count) {
    throw rt::DeserializeError("chunk index outside chunk count");
  }
  if (r.get<std::uint8_t>() != 0) {
    msg.instances.push_back(read_instance(r));
  }
  return msg;
}

void MessageTraits<ResendRequestMessage>::write(
    rt::ByteWriter& w, const ResendRequestMessage& msg) {
  w.put<std::int32_t>(msg.frame_index);
  w.put_vector(msg.chunk_indices);
}

ResendRequestMessage MessageTraits<ResendRequestMessage>::read(
    rt::ByteReader& r) {
  ResendRequestMessage msg;
  msg.frame_index = r.get<std::int32_t>();
  msg.chunk_indices = r.get_vector<std::int32_t>();
  return msg;
}

void MessageTraits<DeltaKeyframeMessage>::write(
    rt::ByteWriter& w, const DeltaKeyframeMessage& msg) {
  w.put<std::int32_t>(msg.frame_index);
  w.put<std::int32_t>(msg.width);
  w.put<std::int32_t>(msg.height);
  w.put<std::uint8_t>(msg.tile_size);
  w.put<std::uint32_t>(msg.epoch);
  w.put<std::uint32_t>(msg.base_epoch);
  w.put<std::int16_t>(msg.warp_dx_tiles);
  w.put<std::int16_t>(msg.warp_dy_tiles);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(msg.tiles.size()));
  for (const auto& t : msg.tiles) {
    w.put<std::uint16_t>(t.index);
    w.put<std::uint8_t>(t.cls);
    w.put<std::uint8_t>(t.level);
  }
  w.put<std::uint64_t>(msg.tile_payload_bytes);
  write_priors(w, msg.priors);
  write_boxes(w, msg.new_areas);
}

DeltaKeyframeMessage MessageTraits<DeltaKeyframeMessage>::read(
    rt::ByteReader& r) {
  DeltaKeyframeMessage msg;
  msg.frame_index = r.get<std::int32_t>();
  msg.width = r.get<std::int32_t>();
  msg.height = r.get<std::int32_t>();
  msg.tile_size = r.get<std::uint8_t>();
  msg.epoch = r.get<std::uint32_t>();
  msg.base_epoch = r.get<std::uint32_t>();
  msg.warp_dx_tiles = r.get<std::int16_t>();
  msg.warp_dy_tiles = r.get<std::int16_t>();
  const auto n = r.get<std::uint32_t>();
  msg.tiles.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DeltaKeyframeMessage::SentTile t;
    t.index = r.get<std::uint16_t>();
    t.cls = r.get<std::uint8_t>();
    t.level = r.get<std::uint8_t>();
    msg.tiles.push_back(t);
  }
  msg.tile_payload_bytes = r.get<std::uint64_t>();
  msg.priors = read_priors(r);
  msg.new_areas = read_boxes(r);
  return msg;
}

namespace {

// Representative samples for the registry self-checks: non-trivial field
// values so a swapped read/write order cannot round-trip by accident.
KeyframeMessage sample_keyframe() {
  KeyframeMessage msg;
  msg.frame_index = 41;
  msg.width = 640;
  msg.height = 480;
  msg.tile_size = 64;
  msg.tile_classes = {0, 1, 2, 3, 2, 1};
  msg.tile_levels = {0, 2, 2, 3, 2, 0};
  msg.tile_payload_bytes = 9137;
  msg.canvas_epoch = 7;
  msg.priors.push_back({10, 20, 110, 140, 3, 12});
  msg.new_areas.push_back({200, 60, 320, 180});
  return msg;
}

DeltaKeyframeMessage sample_delta_keyframe() {
  DeltaKeyframeMessage msg;
  msg.frame_index = 42;
  msg.width = 640;
  msg.height = 480;
  msg.tile_size = 64;
  msg.epoch = 8;
  msg.base_epoch = 7;
  msg.warp_dx_tiles = -1;
  msg.warp_dy_tiles = 2;
  msg.tiles.push_back({17, 3, 3});
  msg.tiles.push_back({18, 2, 2});
  msg.tile_payload_bytes = 947;
  msg.priors.push_back({10, 20, 110, 140, 3, 12});
  msg.new_areas.push_back({200, 60, 320, 180});
  return msg;
}

MaskResultMessage sample_mask_result() {
  MaskResultMessage msg;
  msg.frame_index = 42;
  msg.width = 640;
  msg.height = 480;
  MaskResultMessage::Instance inst;
  inst.class_id = 3;
  inst.instance_id = 12;
  inst.xs = {10, 20, 20, 10};
  inst.ys = {10, 10, 20, 20};
  msg.instances.push_back(std::move(inst));
  return msg;
}

MaskChunkMessage sample_mask_chunk() {
  MaskChunkMessage msg;
  msg.frame_index = 42;
  msg.width = 640;
  msg.height = 480;
  msg.chunk_index = 1;
  msg.chunk_count = 3;
  msg.instances = sample_mask_result().instances;
  return msg;
}

ResendRequestMessage sample_resend() {
  ResendRequestMessage msg;
  msg.frame_index = 42;
  msg.chunk_indices = {0, 2};
  return msg;
}

template <typename M>
bool round_trips(const M& msg) {
  const auto bytes = Codec::encode(msg);
  if (Codec::peek_tag(bytes) != MessageTraits<M>::kTag) return false;
  if (Codec::decode<M>(bytes) != msg) return false;
  return Codec::wire_bytes(msg) ==
         bytes.size() + MessageTraits<M>::payload_bytes(msg);
}

constexpr std::array<MessageTypeInfo, 5> kRegistry = {{
    {MessageTraits<KeyframeMessage>::kTag,
     MessageTraits<KeyframeMessage>::kName,
     [] { return round_trips(sample_keyframe()); }},
    {MessageTraits<MaskResultMessage>::kTag,
     MessageTraits<MaskResultMessage>::kName,
     [] { return round_trips(sample_mask_result()); }},
    {MessageTraits<MaskChunkMessage>::kTag,
     MessageTraits<MaskChunkMessage>::kName,
     [] { return round_trips(sample_mask_chunk()); }},
    {MessageTraits<ResendRequestMessage>::kTag,
     MessageTraits<ResendRequestMessage>::kName,
     [] { return round_trips(sample_resend()); }},
    {MessageTraits<DeltaKeyframeMessage>::kTag,
     MessageTraits<DeltaKeyframeMessage>::kName,
     [] { return round_trips(sample_delta_keyframe()); }},
}};

}  // namespace

std::span<const MessageTypeInfo> registered_message_types() {
  return kRegistry;
}

std::vector<MaskChunkMessage> chunk_mask_result(const MaskResultMessage& msg) {
  std::vector<MaskChunkMessage> chunks;
  const std::size_t n = std::max<std::size_t>(msg.instances.size(), 1);
  for (std::size_t i = 0; i < n; ++i) {
    MaskChunkMessage c;
    c.frame_index = msg.frame_index;
    c.width = msg.width;
    c.height = msg.height;
    c.chunk_index = static_cast<std::uint16_t>(i);
    c.chunk_count = static_cast<std::uint16_t>(n);
    if (i < msg.instances.size()) c.instances.push_back(msg.instances[i]);
    chunks.push_back(std::move(c));
  }
  return chunks;
}

ChunkAssembler::Accept ChunkAssembler::accept(int frame_index,
                                              int chunk_index,
                                              int chunk_count) {
  if (chunk_count <= 0 || chunk_index < 0 || chunk_index >= chunk_count) {
    return Accept::kMismatch;
  }
  if (chunk_count_ == 0) {
    frame_index_ = frame_index;
    chunk_count_ = chunk_count;
    have_.assign(static_cast<std::size_t>(chunk_count_), false);
  } else if (frame_index != frame_index_ || chunk_count != chunk_count_) {
    return Accept::kMismatch;
  }
  const auto idx = static_cast<std::size_t>(chunk_index);
  if (have_[idx]) return Accept::kDuplicate;
  have_[idx] = true;
  ++received_;
  return Accept::kApplied;
}

std::vector<int> ChunkAssembler::missing_chunks() const {
  std::vector<int> missing;
  for (std::size_t i = 0; i < have_.size(); ++i) {
    if (!have_[i]) missing.push_back(static_cast<int>(i));
  }
  return missing;
}

KeyframeMessage build_keyframe_message(
    const enc::EncodedFrame& encoded,
    const std::vector<KeyframeMessage::Prior>& priors,
    const std::vector<mask::Box>& new_areas) {
  KeyframeMessage msg;
  msg.frame_index = encoded.frame_index;
  msg.width = encoded.width;
  msg.height = encoded.height;
  msg.tile_size = static_cast<std::uint8_t>(
      std::min(255, encoded.tile_size));
  msg.tile_classes.reserve(encoded.tiles.size());
  msg.tile_levels.reserve(encoded.tiles.size());
  for (const auto& t : encoded.tiles) {
    msg.tile_classes.push_back(static_cast<std::uint8_t>(t.cls));
    msg.tile_levels.push_back(static_cast<std::uint8_t>(t.level));
  }
  msg.tile_payload_bytes = encoded.total_bytes;
  msg.priors = priors;
  msg.new_areas = new_areas;
  return msg;
}

MaskResultMessage build_mask_result(
    int frame_index, int width, int height,
    const std::vector<mask::InstanceMask>& masks) {
  MaskResultMessage msg;
  msg.frame_index = frame_index;
  msg.width = width;
  msg.height = height;
  for (const auto& m : masks) {
    const auto contours = mask::find_contours(m);
    if (contours.empty()) continue;
    const mask::Contour* longest = &contours[0];
    for (const auto& c : contours) {
      if (c.size() > longest->size()) longest = &c;
    }
    MaskResultMessage::Instance inst;
    inst.class_id = m.class_id;
    inst.instance_id = m.instance_id;
    inst.xs.reserve(longest->size());
    inst.ys.reserve(longest->size());
    for (const auto& p : *longest) {
      inst.xs.push_back(static_cast<std::uint16_t>(
          std::clamp(p.x, 0.0, 65535.0)));
      inst.ys.push_back(static_cast<std::uint16_t>(
          std::clamp(p.y, 0.0, 65535.0)));
    }
    msg.instances.push_back(std::move(inst));
  }
  return msg;
}

std::vector<mask::InstanceMask> reconstruct_masks(
    const MaskResultMessage& msg) {
  std::vector<mask::InstanceMask> out;
  for (const auto& inst : msg.instances) {
    mask::Contour contour;
    contour.reserve(inst.xs.size());
    for (std::size_t i = 0; i < inst.xs.size(); ++i) {
      contour.push_back({static_cast<double>(inst.xs[i]),
                         static_cast<double>(inst.ys[i])});
    }
    auto m = mask::rasterize_polygon(contour, msg.width, msg.height);
    m.class_id = inst.class_id;
    m.instance_id = inst.instance_id;
    if (m.pixel_count() > 0) out.push_back(std::move(m));
  }
  return out;
}

}  // namespace edgeis::net
