// Content-based fine-grained RoI selection and tile-level frame encoding
// (Section V). The frame is partitioned into tiles classified by content
// (object interior / contour band / newly-observed area / background); each
// class maps to a compression level with a byte-size and quality model
// standing in for the Kvazaar/OpenHEVC codec pair of the implementation.
// Baseline encoders (EdgeDuet-style and EAAR-style) reuse the same tile
// machinery with their papers' coarser policies.
#pragma once

#include <cstddef>
#include <vector>

#include "mask/mask.hpp"

namespace edgeis::enc {

enum class TileClass {
  kBackground = 0,
  kNewArea = 1,
  kObjectInterior = 2,
  kContourBand = 3,
};

enum class CompressionLevel {
  kLow = 0,      // heavy compression
  kMedium = 1,
  kHigh = 2,
  kLossless = 3,
};

/// Encoded size of one tile (bytes) for a given level and tile pixel count
/// (HEVC-intra-like rates: ~0.04 / 0.12 / 0.35 / 4.0 bits per pixel).
std::size_t tile_bytes(CompressionLevel level, int tile_pixels);

/// Encoded size of one tile inter-coded against a motion-compensated
/// reference (the delta uplink's canvas): the intra size scaled by how
/// much of the tile actually changed. `residual` is the mean per-pixel
/// |cur - ref| on the 8-bit scale; at ~48 and above, prediction buys
/// nothing and the tile costs its full intra size, while a near-match
/// pays only the motion-vector/signalling floor (~15% of intra).
std::size_t inter_tile_bytes(CompressionLevel level, int tile_pixels,
                             double residual);

/// Reconstruction quality in [0, 1] the edge model sees for content encoded
/// at this level (1 = lossless).
double tile_quality(CompressionLevel level);

struct Tile {
  int col = 0;
  int row = 0;
  TileClass cls = TileClass::kBackground;
  CompressionLevel level = CompressionLevel::kLow;
};

struct EncodedFrame {
  int frame_index = 0;
  int width = 0;
  int height = 0;
  int tile_size = 0;
  std::vector<Tile> tiles;
  std::size_t total_bytes = 0;
  /// Mean reconstruction quality over tiles that carry object or new-area
  /// content — what the edge model's mask quality depends on.
  double content_quality = 1.0;
};

struct EncoderOptions {
  int tile_size = 64;
};

/// The CFRS policy: classify each tile by the transferred masks and
/// new-area boxes, then assign levels (contour band: lossless; object
/// interior and new areas: high; background: low).
EncodedFrame encode_cfrs(int frame_index, int width, int height,
                         const std::vector<mask::InstanceMask>& masks,
                         const std::vector<mask::Box>& new_areas,
                         const EncoderOptions& opts = {});

/// EdgeDuet-style policy: tiles of *small* objects (area below
/// `small_object_area`) high-resolution, everything else medium/low —
/// which is why large objects suffer under it (Section VI-C3).
EncodedFrame encode_edgeduet(int frame_index, int width, int height,
                             const std::vector<mask::Box>& object_boxes,
                             long long small_object_area = 64 * 64,
                             const EncoderOptions& opts = {});

/// EAAR-style policy: motion-vector-predicted RoI boxes encoded at high
/// quality, background at medium (coarser than mask-level selection, so
/// more bytes for the same content).
EncodedFrame encode_eaar(int frame_index, int width, int height,
                         const std::vector<mask::Box>& roi_boxes,
                         const EncoderOptions& opts = {});

/// Whole-frame single-level encoding (the best-effort baseline).
EncodedFrame encode_uniform(int frame_index, int width, int height,
                            CompressionLevel level,
                            const EncoderOptions& opts = {});

}  // namespace edgeis::enc
