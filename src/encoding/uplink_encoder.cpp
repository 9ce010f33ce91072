#include "encoding/uplink_encoder.hpp"

#include <cmath>
#include <utility>

namespace edgeis::enc {

namespace {

EncodedFrame classify_frame(const UplinkFrameInput& in,
                            const EncoderOptions& tiles) {
  static const std::vector<mask::InstanceMask> kNoMasks;
  static const std::vector<mask::Box> kNoBoxes;
  const auto& masks = in.prior_masks != nullptr ? *in.prior_masks : kNoMasks;
  const auto& areas = in.new_areas != nullptr ? *in.new_areas : kNoBoxes;
  if (in.cfrs_enabled && !in.full_quality) {
    return encode_cfrs(in.frame_index, in.width, in.height, masks, areas,
                       tiles);
  }
  return encode_uniform(in.frame_index, in.width, in.height,
                        CompressionLevel::kHigh, tiles);
}

CompressionLevel step_down(CompressionLevel level) {
  switch (level) {
    case CompressionLevel::kLossless: return CompressionLevel::kHigh;
    case CompressionLevel::kHigh: return CompressionLevel::kMedium;
    case CompressionLevel::kMedium: return CompressionLevel::kLow;
    case CompressionLevel::kLow: return CompressionLevel::kLow;
  }
  return CompressionLevel::kLow;
}

/// Refine the pose-predicted shift by coarse motion search: the pose
/// prior plus one nominal depth cannot capture parallax, so test a small
/// window of candidate shifts against a sparse global pixel sample and
/// keep the one the frame actually moved by — exactly what a hardware
/// encoder's motion estimation does with a sensor-assisted predictor.
void refine_shift(const img::GrayImage& cur, const img::GrayImage& ref,
                  int* dx, int* dy) {
  double best = 1e18;
  int best_dx = *dx, best_dy = *dy;
  for (int oy = -4; oy <= 4; oy += 4) {
    for (int ox = -16; ox <= 16; ox += 4) {
      const int cdx = *dx + ox, cdy = *dy + oy;
      double sum = 0.0;
      for (int y = 4; y < cur.height(); y += 8) {
        for (int x = 4; x < cur.width(); x += 8) {
          const int rx = x - cdx, ry = y - cdy;
          double d = 255.0;
          if (rx >= 0 && rx < ref.width() && ry >= 0 && ry < ref.height()) {
            d = std::abs(static_cast<double>(cur.at(x, y)) -
                         static_cast<double>(ref.at(rx, ry)));
          }
          sum += d;
        }
      }
      if (sum < best) {
        best = sum;
        best_dx = cdx;
        best_dy = cdy;
      }
    }
  }
  *dx = best_dx;
  *dy = best_dy;
}

/// Mean |cur - ref| over a stride-4 sample of the tile; samples whose
/// reference pixel fell outside the frame count as fully divergent (the
/// canvas holds nothing there).
double tile_residual(const img::GrayImage& cur, const img::GrayImage& ref,
                     const mask::Box& box, int ref_dx, int ref_dy) {
  double sum = 0.0;
  int n = 0;
  for (int y = box.y0; y < box.y1; y += 4) {
    for (int x = box.x0; x < box.x1; x += 4) {
      const int rx = x - ref_dx;
      const int ry = y - ref_dy;
      double d = 255.0;
      if (rx >= 0 && rx < ref.width() && ry >= 0 && ry < ref.height()) {
        d = std::abs(static_cast<double>(cur.at(x, y)) -
                     static_cast<double>(ref.at(rx, ry)));
      }
      sum += d;
      ++n;
    }
  }
  return n > 0 ? sum / n : 255.0;
}

/// Per-tile motion search for pricing a *sent* tile's inter coding: an
/// object that moved differently from the camera still predicts well
/// from its own previous position, and a real encoder finds that vector
/// per block. The canvas reuse decision stays pinned to the global warp
/// (the canvas only tracks one shift), but the bytes a sent tile costs
/// follow the best local match.
double best_local_residual(const img::GrayImage& cur,
                           const img::GrayImage& ref, const mask::Box& box,
                           int ref_dx, int ref_dy) {
  double best = 255.0;
  for (int oy = -8; oy <= 8; oy += 4) {
    for (int ox = -8; ox <= 8; ox += 4) {
      best = std::min(
          best, tile_residual(cur, ref, box, ref_dx + ox, ref_dy + oy));
    }
  }
  return best;
}

}  // namespace

UplinkPlan UplinkEncoder::plan_full(const UplinkFrameInput& in,
                                    EncodedFrame encoded) {
  ++epoch_;
  mirror_.apply_full(encoded, epoch_);
  if (in.intensity != nullptr) {
    ref_ = *in.intensity;
  } else {
    ref_ = img::GrayImage();
  }
  diverged_ = false;

  UplinkPlan out;
  out.content_quality = encoded.content_quality;
  out.tiles_sent = static_cast<int>(encoded.tiles.size());
  out.epoch = epoch_;
  out.encoded = std::move(encoded);
  return out;
}

UplinkPlan UplinkEncoder::plan(const UplinkFrameInput& in) {
  EncodedFrame full = classify_frame(in, cfg_.tiles);
  if (cfg_.uplink == UplinkMode::kFull) {
    UplinkPlan out;
    out.content_quality = full.content_quality;
    out.tiles_sent = static_cast<int>(full.tiles.size());
    out.encoded = std::move(full);
    return out;
  }
  const bool ref_usable = !ref_.empty() && ref_.width() == in.width &&
                          ref_.height() == in.height;
  if (mirror_.cold() || diverged_ || !in.warp_valid ||
      in.intensity == nullptr || !ref_usable) {
    return plan_full(in, std::move(full));
  }

  const int ts = full.tile_size;
  const int cols = mirror_.cols();
  const int rows = mirror_.rows();
  // The canvas bookkeeping (which tile slot inherits which class/age)
  // moves by whole tiles, but the edge reconstructs pixels with the full
  // pose warp, so residuals are measured against the pixel-precision
  // shift — otherwise quantization error of up to half a tile would make
  // every textured tile look changed.
  int ref_dx = static_cast<int>(std::lround(in.warp_dx_px));
  int ref_dy = static_cast<int>(std::lround(in.warp_dy_px));
  refine_shift(*in.intensity, ref_, &ref_dx, &ref_dy);
  const int dxt = static_cast<int>(std::lround(
      static_cast<double>(ref_dx) / ts));
  const int dyt = static_cast<int>(std::lround(
      static_cast<double>(ref_dy) / ts));

  // Mean per-pixel intensity residual (8-bit scale) above which a tile
  // is considered changed and must be sent.
  constexpr double kSkipResidualThreshold = 6.0;
  // A content-class tile (interior / contour / new area) reused from the
  // canvas is force-refreshed after this many delta updates; background
  // can coast much longer.
  constexpr int kMaxContentTileAge = 3;
  constexpr int kMaxBackgroundTileAge = 24;
  // Congestion factor (srtt / seed RTT, or the RTO backoff multiplier)
  // beyond which the encoder adapts: sent tiles step one compression
  // level down and the skip threshold is scaled up, trading pixels for
  // staying inside throttled-link windows.
  constexpr double kCongestionThreshold = 1.8;
  constexpr double kCongestedResidualScale = 1.5;
  const bool congested = in.congestion >= kCongestionThreshold;
  const double threshold =
      kSkipResidualThreshold * (congested ? kCongestedResidualScale : 1.0);

  CanvasDelta delta;
  delta.epoch = epoch_ + 1;
  delta.base_epoch = epoch_;
  delta.warp_dx_tiles = dxt;
  delta.warp_dy_tiles = dyt;

  const auto& old_grid = mirror_.tiles();
  std::size_t payload = 0;
  std::vector<Tile> sent_tiles;
  for (const auto& t : full.tiles) {
    const int index = t.row * cols + t.col;
    const mask::Box box{t.col * ts, t.row * ts,
                        std::min(in.width, (t.col + 1) * ts),
                        std::min(in.height, (t.row + 1) * ts)};
    // Where this tile's content sits in the pre-warp canvas.
    const int sc = t.col - dxt;
    const int sr = t.row - dyt;
    // Sent tiles are inter-coded against the warped canvas, so the
    // residual prices the tile even when the send is forced; off-frame
    // content has no reference and pays full intra.
    double residual = 255.0;
    if (sc >= 0 && sc < cols && sr >= 0 && sr < rows) {
      residual = tile_residual(*in.intensity, ref_, box, ref_dx, ref_dy);
      const auto& old_tile =
          old_grid[static_cast<std::size_t>(sr) * cols + sc];
      const bool content = t.cls != TileClass::kBackground;
      const int max_age =
          content ? kMaxContentTileAge : kMaxBackgroundTileAge;
      if (old_tile.valid && old_tile.cls == t.cls &&
          old_tile.age + 1 <= max_age && residual <= threshold) {
        continue;  // the edge reconstructs this tile from its canvas
      }
    }
    Tile sent = t;
    if (congested) sent.level = step_down(sent.level);
    if (residual > 0.0) {
      residual =
          best_local_residual(*in.intensity, ref_, box, ref_dx, ref_dy);
    }
    payload += inter_tile_bytes(sent.level, static_cast<int>(box.area()),
                                residual);
    delta.tiles.push_back(
        {index, sent.cls, sent.level});
    sent_tiles.push_back(sent);
  }

  const auto applied = mirror_.apply_delta(delta);
  // A delta built against the mirror's own epoch always applies.
  if (applied.status != CanvasApplyStatus::kApplied) {
    return plan_full(in, std::move(full));
  }
  epoch_ = delta.epoch;

  // Advance the reference pixels exactly as the canvas advanced: warp by
  // the quantized shift, then overwrite the sent tiles with live content.
  img::GrayImage new_ref(in.width, in.height, 0);
  for (int y = 0; y < in.height; ++y) {
    for (int x = 0; x < in.width; ++x) {
      const int rx = x - ref_dx;
      const int ry = y - ref_dy;
      if (rx >= 0 && rx < in.width && ry >= 0 && ry < in.height) {
        new_ref.at(x, y) = ref_.at(rx, ry);
      }
    }
  }
  for (const auto& t : sent_tiles) {
    const int x1 = std::min(in.width, (t.col + 1) * ts);
    const int y1 = std::min(in.height, (t.row + 1) * ts);
    for (int y = t.row * ts; y < y1; ++y) {
      for (int x = t.col * ts; x < x1; ++x) {
        new_ref.at(x, y) = in.intensity->at(x, y);
      }
    }
  }
  ref_ = std::move(new_ref);

  UplinkPlan out;
  out.is_delta = true;
  out.delta = std::move(delta);
  out.epoch = epoch_;
  out.content_quality = applied.content_quality;
  out.tiles_sent = static_cast<int>(sent_tiles.size());
  out.tiles_reused = applied.tiles_reused;
  out.encoded.frame_index = in.frame_index;
  out.encoded.width = in.width;
  out.encoded.height = in.height;
  out.encoded.tile_size = ts;
  out.encoded.tiles = std::move(sent_tiles);
  out.encoded.total_bytes = payload;
  out.encoded.content_quality = applied.content_quality;
  return out;
}

}  // namespace edgeis::enc
