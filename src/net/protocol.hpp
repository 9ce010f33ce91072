// Wire protocol of the mobile<->edge link: the uplink keyframe messages
// (tile-encoded frame + transferred-mask priors + new areas, full or
// canvas-delta) and the downlink result messages (labeled contour vertex
// lists, as the paper's implementation serializes with Boost — Section
// VI-A). Sizes put on the simulated link come from actually serializing
// these messages through the versioned net::Codec (net/codec.hpp): each
// message registers a MessageTraits specialization once, and wire sizes
// are derived from the codec's own framing.
#pragma once

#include <cstdint>
#include <vector>

#include "encoding/tiles.hpp"
#include "mask/mask.hpp"
#include "net/codec.hpp"
#include "runtime/serialize.hpp"

namespace edgeis::net {

/// Uplink: one encoded keyframe plus the priors that instruct CIIA.
struct KeyframeMessage {
  std::int32_t frame_index = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::uint8_t tile_size = 64;
  // Per-tile (class, level) pairs in row-major order; tile payload bytes
  // are accounted separately via the rate model (the simulated "HEVC
  // bitstream" itself carries no information our models need).
  std::vector<std::uint8_t> tile_classes;
  std::vector<std::uint8_t> tile_levels;
  std::size_t tile_payload_bytes = 0;
  /// Canvas epoch this full keyframe establishes on the edge (delta
  /// uplink mode); 0 = no canvas semantics (full uplink mode).
  std::uint32_t canvas_epoch = 0;

  struct Prior {
    std::int32_t x0, y0, x1, y1;
    std::int32_t class_id;
    std::int32_t instance_id;
    friend bool operator==(const Prior&, const Prior&) = default;
  };
  std::vector<Prior> priors;
  std::vector<mask::Box> new_areas;

  friend bool operator==(const KeyframeMessage&,
                         const KeyframeMessage&) = default;
};

/// Uplink, canvas-delta: only the tiles that diverge from the pose-warped
/// canvas the edge already holds, plus the warp (whole tiles of global
/// pixel shift predicted by the VO pose) and the epoch chain that detects
/// divergence. `epoch` is the canvas state after applying this delta;
/// `base_epoch` is the state it was encoded against — an edge whose
/// canvas is not at `base_epoch` must refuse the delta and demand a full
/// keyframe rather than reconstruct from the wrong base.
struct DeltaKeyframeMessage {
  std::int32_t frame_index = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::uint8_t tile_size = 64;
  std::uint32_t epoch = 0;
  std::uint32_t base_epoch = 0;
  std::int16_t warp_dx_tiles = 0;
  std::int16_t warp_dy_tiles = 0;

  struct SentTile {
    std::uint16_t index = 0;  // row-major tile index after the warp
    std::uint8_t cls = 0;     // enc::TileClass
    std::uint8_t level = 0;   // enc::CompressionLevel
    friend bool operator==(const SentTile&, const SentTile&) = default;
  };
  std::vector<SentTile> tiles;
  std::size_t tile_payload_bytes = 0;  // bitstream of the sent tiles only

  std::vector<KeyframeMessage::Prior> priors;
  std::vector<mask::Box> new_areas;

  friend bool operator==(const DeltaKeyframeMessage&,
                         const DeltaKeyframeMessage&) = default;
};

/// Downlink: per-instance labeled contours (vertex lists), enough for the
/// mobile side to rasterize the masks and annotate its map.
struct MaskResultMessage {
  std::int32_t frame_index = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;

  struct Instance {
    std::int32_t class_id = 0;
    std::int32_t instance_id = 0;
    // Contour vertices, quantized to pixels.
    std::vector<std::uint16_t> xs;
    std::vector<std::uint16_t> ys;
    friend bool operator==(const Instance&, const Instance&) = default;
  };
  std::vector<Instance> instances;

  friend bool operator==(const MaskResultMessage&,
                         const MaskResultMessage&) = default;
};

/// Downlink, streamed: one chunk per finished instance, emitted by the
/// edge in head/mask-head completion order so the mobile side can render
/// whatever arrived by the frame deadline instead of stalling on the full
/// response. `chunk_count` is echoed on every chunk; a response with no
/// instances is a single instance-less chunk (the terminal frame header
/// the ledger still needs to complete the request).
struct MaskChunkMessage {
  std::int32_t frame_index = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::uint16_t chunk_index = 0;  // 0-based position in the stream
  std::uint16_t chunk_count = 1;  // total chunks of this response
  // Zero (empty response) or one instance; never more.
  std::vector<MaskResultMessage::Instance> instances;

  friend bool operator==(const MaskChunkMessage&,
                         const MaskChunkMessage&) = default;
};

/// Uplink, retransmission: after a partial response, request only the
/// chunks that never arrived — strictly smaller than re-uploading the
/// keyframe and strictly smaller to answer than the full response. The
/// missing set is named by chunk index (echoed `chunk_count` tells the
/// receiver how many exist): the receiver cannot know the *instance ids*
/// of chunks it never saw.
struct ResendRequestMessage {
  std::int32_t frame_index = 0;
  std::vector<std::int32_t> chunk_indices;  // missing chunks

  friend bool operator==(const ResendRequestMessage&,
                         const ResendRequestMessage&) = default;
};

// Codec registration (bodies in protocol.cpp). Tags are part of the wire
// format: never reuse or renumber them.
template <>
struct MessageTraits<KeyframeMessage> {
  static constexpr std::uint8_t kTag = 1;
  static constexpr const char* kName = "keyframe";
  static void write(rt::ByteWriter& w, const KeyframeMessage& msg);
  static KeyframeMessage read(rt::ByteReader& r);
  static std::size_t payload_bytes(const KeyframeMessage& msg) {
    return msg.tile_payload_bytes;
  }
};

template <>
struct MessageTraits<MaskResultMessage> {
  static constexpr std::uint8_t kTag = 2;
  static constexpr const char* kName = "mask_result";
  static void write(rt::ByteWriter& w, const MaskResultMessage& msg);
  static MaskResultMessage read(rt::ByteReader& r);
  static std::size_t payload_bytes(const MaskResultMessage&) { return 0; }
};

template <>
struct MessageTraits<MaskChunkMessage> {
  static constexpr std::uint8_t kTag = 3;
  static constexpr const char* kName = "mask_chunk";
  static void write(rt::ByteWriter& w, const MaskChunkMessage& msg);
  static MaskChunkMessage read(rt::ByteReader& r);
  static std::size_t payload_bytes(const MaskChunkMessage&) { return 0; }
};

template <>
struct MessageTraits<ResendRequestMessage> {
  static constexpr std::uint8_t kTag = 4;
  static constexpr const char* kName = "resend_request";
  static void write(rt::ByteWriter& w, const ResendRequestMessage& msg);
  static ResendRequestMessage read(rt::ByteReader& r);
  static std::size_t payload_bytes(const ResendRequestMessage&) { return 0; }
};

template <>
struct MessageTraits<DeltaKeyframeMessage> {
  static constexpr std::uint8_t kTag = 5;
  static constexpr const char* kName = "delta_keyframe";
  static void write(rt::ByteWriter& w, const DeltaKeyframeMessage& msg);
  static DeltaKeyframeMessage read(rt::ByteReader& r);
  static std::size_t payload_bytes(const DeltaKeyframeMessage& msg) {
    return msg.tile_payload_bytes;
  }
};

/// Split a full result into per-instance chunks (at least one, even when
/// the result is empty).
std::vector<MaskChunkMessage> chunk_mask_result(const MaskResultMessage& msg);

/// Chunk framing of one streamed response on the mobile side: which
/// chunks of which frame have arrived. Chunks may arrive in any order;
/// duplicates are detected and ignored (idempotent accept). Payloads stay
/// with the caller, which decides the order it keeps them in.
class ChunkAssembler {
 public:
  enum class Accept { kApplied, kDuplicate, kMismatch };

  /// Record one chunk. The first accepted chunk fixes the frame and the
  /// chunk count. kMismatch means the chunk is malformed (index outside
  /// [0, count)), belongs to a different frame, or disagrees on the chunk
  /// count — the other inference of a duplicated request, or the
  /// caller's routing bug — and is never merged.
  Accept accept(int frame_index, int chunk_index, int chunk_count);

  [[nodiscard]] bool started() const { return chunk_count_ > 0; }
  [[nodiscard]] bool complete() const {
    return chunk_count_ > 0 && received_ == chunk_count_;
  }
  [[nodiscard]] int frame_index() const { return frame_index_; }
  [[nodiscard]] int received() const { return received_; }
  /// Chunk count of the set (0 until the first chunk arrives).
  [[nodiscard]] int expected() const { return chunk_count_; }
  /// Chunk indices not yet received (empty when complete or not started).
  [[nodiscard]] std::vector<int> missing_chunks() const;

 private:
  int frame_index_ = 0;
  int chunk_count_ = 0;  // 0 until the first chunk arrives
  int received_ = 0;
  std::vector<bool> have_;
};

/// Build the uplink message for an encoded frame + CIIA priors.
KeyframeMessage build_keyframe_message(
    const enc::EncodedFrame& encoded,
    const std::vector<KeyframeMessage::Prior>& priors,
    const std::vector<mask::Box>& new_areas);

/// Build the downlink message from inference-result masks (extracts and
/// quantizes the contours).
MaskResultMessage build_mask_result(
    int frame_index, int width, int height,
    const std::vector<mask::InstanceMask>& masks);

/// Reconstruct masks from a result message (rasterizes the contours) — the
/// mobile side of the downlink.
std::vector<mask::InstanceMask> reconstruct_masks(
    const MaskResultMessage& msg);

}  // namespace edgeis::net
