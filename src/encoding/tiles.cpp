#include "encoding/tiles.hpp"

#include <algorithm>
#include <cmath>

namespace edgeis::enc {

std::size_t tile_bytes(CompressionLevel level, int tile_pixels) {
  double bits_per_pixel = 0.0;
  switch (level) {
    case CompressionLevel::kLow: bits_per_pixel = 0.04; break;
    case CompressionLevel::kMedium: bits_per_pixel = 0.12; break;
    case CompressionLevel::kHigh: bits_per_pixel = 0.35; break;
    // "Lossless" here means visually lossless intra coding (HEVC at very
    // low QP), not PNG-style literal storage.
    case CompressionLevel::kLossless: bits_per_pixel = 1.5; break;
  }
  return static_cast<std::size_t>(
      std::ceil(bits_per_pixel * tile_pixels / 8.0));
}

std::size_t inter_tile_bytes(CompressionLevel level, int tile_pixels,
                             double residual) {
  // Prediction gain saturates: beyond this mean residual the transform
  // coefficients cost as much as intra coding; below it the bits scale
  // with how much of the block the reference failed to predict, down to
  // a floor that pays for motion vectors and mode signalling.
  constexpr double kFullScaleResidual = 48.0;
  constexpr double kSignallingFloor = 0.15;
  const double fraction = std::clamp(residual / kFullScaleResidual,
                                     kSignallingFloor, 1.0);
  return static_cast<std::size_t>(std::ceil(
      fraction * static_cast<double>(tile_bytes(level, tile_pixels))));
}

double tile_quality(CompressionLevel level) {
  switch (level) {
    case CompressionLevel::kLow: return 0.45;
    case CompressionLevel::kMedium: return 0.75;
    case CompressionLevel::kHigh: return 0.92;
    case CompressionLevel::kLossless: return 1.0;
  }
  return 0.0;
}

namespace {

struct TileGrid {
  int cols, rows, tile_size;
  int width, height;

  [[nodiscard]] mask::Box tile_box(int col, int row) const {
    return {col * tile_size, row * tile_size,
            std::min(width, (col + 1) * tile_size),
            std::min(height, (row + 1) * tile_size)};
  }
};

TileGrid make_grid(int width, int height, int tile_size) {
  return {(width + tile_size - 1) / tile_size,
          (height + tile_size - 1) / tile_size, tile_size, width, height};
}

EncodedFrame finalize(int frame_index, const TileGrid& grid,
                      std::vector<Tile> tiles) {
  EncodedFrame out;
  out.frame_index = frame_index;
  out.width = grid.width;
  out.height = grid.height;
  out.tile_size = grid.tile_size;
  out.total_bytes = 0;
  double quality_sum = 0.0;
  int content_tiles = 0;
  for (const auto& t : tiles) {
    const auto box = grid.tile_box(t.col, t.row);
    out.total_bytes +=
        tile_bytes(t.level, static_cast<int>(box.area()));
    if (t.cls != TileClass::kBackground) {
      quality_sum += tile_quality(t.level);
      ++content_tiles;
    }
  }
  out.content_quality =
      content_tiles > 0 ? quality_sum / content_tiles : 1.0;
  out.tiles = std::move(tiles);
  return out;
}

}  // namespace

EncodedFrame encode_cfrs(int frame_index, int width, int height,
                         const std::vector<mask::InstanceMask>& masks,
                         const std::vector<mask::Box>& new_areas,
                         const EncoderOptions& opts) {
  const TileGrid grid = make_grid(width, height, opts.tile_size);

  // Precompute dilated & eroded versions per mask so a tile can be tested
  // for "contains contour" (dilated minus eroded band) vs interior.
  constexpr int kContourBandPx = 8;  // band kept near-lossless
  std::vector<mask::InstanceMask> dilated, eroded;
  dilated.reserve(masks.size());
  eroded.reserve(masks.size());
  for (const auto& m : masks) {
    dilated.push_back(m.dilated(kContourBandPx));
    eroded.push_back(m.eroded(kContourBandPx));
  }

  std::vector<Tile> tiles;
  tiles.reserve(static_cast<std::size_t>(grid.cols * grid.rows));
  for (int row = 0; row < grid.rows; ++row) {
    for (int col = 0; col < grid.cols; ++col) {
      const mask::Box box = grid.tile_box(col, row);
      TileClass cls = TileClass::kBackground;

      for (const auto& b : new_areas) {
        if (!box.intersect(b).empty()) {
          cls = TileClass::kNewArea;
          break;
        }
      }
      // Sample the tile's pixels against the masks (stride 4 is enough for
      // 64-px tiles vs object-scale masks).
      for (std::size_t mi = 0; mi < masks.size(); ++mi) {
        // Every sample outside the dilated mask's box reads unset.
        const auto reach = dilated[mi].bounding_box();
        if (!reach || box.intersect(*reach).empty()) continue;
        bool any_band = false, any_interior = false;
        for (int y = box.y0; y < box.y1 && !any_band; y += 4) {
          for (int x = box.x0; x < box.x1; x += 4) {
            if (dilated[mi].get(x, y)) {
              if (!eroded[mi].get(x, y)) {
                any_band = true;
                break;
              }
              any_interior = true;
            }
          }
        }
        if (any_band) {
          cls = TileClass::kContourBand;
          break;
        }
        if (any_interior && cls < TileClass::kObjectInterior) {
          cls = TileClass::kObjectInterior;
        }
      }

      Tile t{col, row, cls, CompressionLevel::kLow};
      switch (cls) {
        case TileClass::kContourBand:
          t.level = CompressionLevel::kLossless;
          break;
        case TileClass::kObjectInterior:
        case TileClass::kNewArea:
          t.level = CompressionLevel::kHigh;
          break;
        case TileClass::kBackground:
          t.level = CompressionLevel::kLow;
          break;
      }
      tiles.push_back(t);
    }
  }
  return finalize(frame_index, grid, std::move(tiles));
}

EncodedFrame encode_edgeduet(int frame_index, int width, int height,
                             const std::vector<mask::Box>& object_boxes,
                             long long small_object_area,
                             const EncoderOptions& opts) {
  const TileGrid grid = make_grid(width, height, opts.tile_size);
  std::vector<Tile> tiles;
  for (int row = 0; row < grid.rows; ++row) {
    for (int col = 0; col < grid.cols; ++col) {
      const mask::Box box = grid.tile_box(col, row);
      Tile t{col, row, TileClass::kBackground, CompressionLevel::kLow};
      for (const auto& b : object_boxes) {
        if (box.intersect(b).empty()) continue;
        t.cls = TileClass::kObjectInterior;
        // EdgeDuet prioritizes small objects: they get lossless tiles,
        // large objects only medium quality.
        const CompressionLevel level = b.area() <= small_object_area
                                           ? CompressionLevel::kLossless
                                           : CompressionLevel::kMedium;
        t.level = std::max(t.level, level);
      }
      tiles.push_back(t);
    }
  }
  return finalize(frame_index, grid, std::move(tiles));
}

EncodedFrame encode_eaar(int frame_index, int width, int height,
                         const std::vector<mask::Box>& roi_boxes,
                         const EncoderOptions& opts) {
  const TileGrid grid = make_grid(width, height, opts.tile_size);
  std::vector<Tile> tiles;
  for (int row = 0; row < grid.rows; ++row) {
    for (int col = 0; col < grid.cols; ++col) {
      const mask::Box box = grid.tile_box(col, row);
      Tile t{col, row, TileClass::kBackground, CompressionLevel::kMedium};
      for (const auto& b : roi_boxes) {
        if (!box.intersect(b).empty()) {
          t.cls = TileClass::kObjectInterior;
          t.level = CompressionLevel::kHigh;
          break;
        }
      }
      tiles.push_back(t);
    }
  }
  return finalize(frame_index, grid, std::move(tiles));
}

EncodedFrame encode_uniform(int frame_index, int width, int height,
                            CompressionLevel level,
                            const EncoderOptions& opts) {
  const TileGrid grid = make_grid(width, height, opts.tile_size);
  std::vector<Tile> tiles;
  for (int row = 0; row < grid.rows; ++row) {
    for (int col = 0; col < grid.cols; ++col) {
      tiles.push_back({col, row,
                       level >= CompressionLevel::kHigh
                           ? TileClass::kObjectInterior
                           : TileClass::kBackground,
                       level});
    }
  }
  // Uniform frames: every tile may carry content; report the level quality.
  EncodedFrame out = finalize(frame_index, grid, std::move(tiles));
  out.content_quality = tile_quality(level);
  return out;
}

}  // namespace edgeis::enc
