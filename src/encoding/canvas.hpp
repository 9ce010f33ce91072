// Motion-compensated tile canvas for the delta uplink (ROADMAP
// "Delta/canvas uplink encoding"; cf. motion-compensated latent canvases
// in PAPERS.md). The edge keeps one Canvas per client session: the last
// reconstructed keyframe as a grid of per-tile (class, level, age)
// records. A delta update warps the grid by the whole-tile pixel shift
// the VO pose predicts, overwrites only the tiles the mobile actually
// sent, and ages everything else — reused tiles stand in for unsent
// content at a quality that decays with age. The mobile runs an
// identical mirror Canvas, so both sides agree on the reconstruction
// quality without ever shipping it; agreement is guarded by an epoch
// chain (apply is refused unless the update was encoded against exactly
// this canvas state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "encoding/tiles.hpp"

namespace edgeis::enc {

/// Deterministic function of (canvas state, update): both sides of the
/// link compute it independently and must agree bit-for-bit.
enum class CanvasApplyStatus {
  kApplied,    // warped, delta applied, epoch advanced
  kDuplicate,  // update's epoch already reached (retransmission)
  kDiverged,   // wrong base epoch — demand a full keyframe
  kCold,       // no full keyframe seeded yet
};

struct CanvasApplyResult {
  CanvasApplyStatus status = CanvasApplyStatus::kCold;
  /// Mean effective quality over content-class tiles after the update
  /// (sent tiles at their level's quality, reused tiles decayed by age) —
  /// the value the edge model's mask quality depends on.
  double content_quality = 0.0;
  int tiles_sent = 0;
  int tiles_reused = 0;  // valid tiles filled from the canvas, not the wire
};

/// One sent tile of a delta update, in canvas terms (the net layer
/// mirrors this in DeltaKeyframeMessage::SentTile; encoding stays free of
/// a net dependency).
struct CanvasDeltaTile {
  int index = 0;  // row-major tile index after the warp
  TileClass cls = TileClass::kBackground;
  CompressionLevel level = CompressionLevel::kLow;
};

/// A delta update: the epoch chain, the whole-tile warp, and the sent
/// tiles. `epoch` is the canvas state after this update; `base_epoch` the
/// state it was encoded against.
struct CanvasDelta {
  std::uint32_t epoch = 0;
  std::uint32_t base_epoch = 0;
  int warp_dx_tiles = 0;
  int warp_dy_tiles = 0;
  std::vector<CanvasDeltaTile> tiles;
};

class Canvas {
 public:
  /// Seed (or reset) the canvas from a full keyframe, establishing
  /// `epoch`. Always succeeds; all tiles become valid at age 0.
  void apply_full(const EncodedFrame& encoded, std::uint32_t epoch);

  /// Apply a delta. kDuplicate (same epoch re-applied, e.g. a
  /// retransmitted copy) re-returns the previous result without mutating;
  /// kDiverged / kCold leave the canvas untouched — the caller must fall
  /// back to a full keyframe.
  CanvasApplyResult apply_delta(const CanvasDelta& delta);

  /// Forget everything (session reset / divergence on the mobile side).
  void reset();

  [[nodiscard]] bool cold() const { return !seeded_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }

  struct TileState {
    bool valid = false;  // holds content (seeded or survived the warps)
    TileClass cls = TileClass::kBackground;
    CompressionLevel level = CompressionLevel::kLow;
    int age = 0;  // updates since this tile was last sent
  };
  /// Row-major tile state (tests and the encoder's skip policy).
  [[nodiscard]] const std::vector<TileState>& tiles() const { return grid_; }

  /// Effective quality of one tile: its level's quality decayed by age.
  /// Invalid tiles are worth nothing.
  [[nodiscard]] double tile_effective_quality(int index) const;

  /// Equality of reconstruction state — the mirror-consistency invariant
  /// (mobile mirror == edge canvas after the same update sequence).
  friend bool operator==(const Canvas& a, const Canvas& b) {
    return a.seeded_ == b.seeded_ && a.epoch_ == b.epoch_ &&
           a.cols_ == b.cols_ && a.rows_ == b.rows_ && a.grid_ == b.grid_;
  }

 private:
  [[nodiscard]] double content_quality_now() const;

  bool seeded_ = false;
  std::uint32_t epoch_ = 0;
  int cols_ = 0;
  int rows_ = 0;
  std::vector<TileState> grid_;
  CanvasApplyResult last_result_;  // re-returned for duplicate epochs

  friend bool operator==(const TileState&, const TileState&);
};

bool operator==(const Canvas::TileState& a, const Canvas::TileState& b);

}  // namespace edgeis::enc
