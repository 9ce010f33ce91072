#include "encoding/canvas.hpp"

#include <cmath>

namespace edgeis::enc {

bool operator==(const Canvas::TileState& a, const Canvas::TileState& b) {
  return a.valid == b.valid && a.cls == b.cls && a.level == b.level &&
         a.age == b.age;
}

void Canvas::apply_full(const EncodedFrame& encoded, std::uint32_t epoch) {
  cols_ = (encoded.width + encoded.tile_size - 1) / encoded.tile_size;
  rows_ = (encoded.height + encoded.tile_size - 1) / encoded.tile_size;
  grid_.assign(static_cast<std::size_t>(cols_) * rows_, TileState{});
  for (const auto& t : encoded.tiles) {
    const std::size_t i =
        static_cast<std::size_t>(t.row) * cols_ + t.col;
    if (i >= grid_.size()) continue;
    grid_[i] = TileState{true, t.cls, t.level, 0};
  }
  seeded_ = true;
  epoch_ = epoch;
  last_result_ = CanvasApplyResult{CanvasApplyStatus::kApplied,
                                   content_quality_now(),
                                   static_cast<int>(encoded.tiles.size()), 0};
}

CanvasApplyResult Canvas::apply_delta(const CanvasDelta& delta) {
  if (!seeded_) return CanvasApplyResult{CanvasApplyStatus::kCold, 0.0, 0, 0};
  if (delta.epoch == epoch_) {
    auto dup = last_result_;
    dup.status = CanvasApplyStatus::kDuplicate;
    return dup;
  }
  if (delta.base_epoch != epoch_) {
    return CanvasApplyResult{CanvasApplyStatus::kDiverged, 0.0, 0, 0};
  }

  // Warp: content at tile (c, r) moves to (c + dx, r + dy); tiles shifted
  // in from outside the frame hold nothing.
  if (delta.warp_dx_tiles != 0 || delta.warp_dy_tiles != 0) {
    std::vector<TileState> warped(grid_.size(), TileState{});
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) {
        const int sc = c - delta.warp_dx_tiles;
        const int sr = r - delta.warp_dy_tiles;
        if (sc < 0 || sc >= cols_ || sr < 0 || sr >= rows_) continue;
        warped[static_cast<std::size_t>(r) * cols_ + c] =
            grid_[static_cast<std::size_t>(sr) * cols_ + sc];
      }
    }
    grid_ = std::move(warped);
  }

  for (auto& t : grid_) {
    if (t.valid) ++t.age;
  }
  for (const auto& st : delta.tiles) {
    if (st.index < 0 || static_cast<std::size_t>(st.index) >= grid_.size()) {
      continue;
    }
    grid_[static_cast<std::size_t>(st.index)] =
        TileState{true, st.cls, st.level, 0};
  }

  int reused = 0;
  for (const auto& t : grid_) {
    if (t.valid && t.age > 0) ++reused;
  }
  epoch_ = delta.epoch;
  last_result_ =
      CanvasApplyResult{CanvasApplyStatus::kApplied, content_quality_now(),
                        static_cast<int>(delta.tiles.size()), reused};
  return last_result_;
}

void Canvas::reset() {
  seeded_ = false;
  epoch_ = 0;
  cols_ = 0;
  rows_ = 0;
  grid_.clear();
  last_result_ = CanvasApplyResult{};
}

double Canvas::tile_effective_quality(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= grid_.size()) {
    return 0.0;
  }
  const auto& t = grid_[static_cast<std::size_t>(index)];
  if (!t.valid) return 0.0;
  // Multiplicative per-update quality decay of a reused (unsent) tile:
  // stale content is a progressively worse stand-in for the live frame.
  constexpr double kAgeDecay = 0.94;
  return tile_quality(t.level) * std::pow(kAgeDecay, t.age);
}

double Canvas::content_quality_now() const {
  // Mirrors EncodedFrame::content_quality: mean over tiles that carry
  // object or new-area content, 1.0 when the frame has none.
  double sum = 0.0;
  int count = 0;
  for (int i = 0; i < static_cast<int>(grid_.size()); ++i) {
    const auto& t = grid_[static_cast<std::size_t>(i)];
    if (!t.valid || t.cls == TileClass::kBackground) continue;
    sum += tile_effective_quality(i);
    ++count;
  }
  return count > 0 ? sum / count : 1.0;
}

}  // namespace edgeis::enc
