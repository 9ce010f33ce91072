// Latency->accuracy coupling: with a 30 fps input, per-frame processing
// latency above the 33.3 ms budget accumulates as debt, and the masks
// actually rendered at frame i are the ones computed for an earlier frame
// (Section VI-C3: "latency longer than 33ms accumulates and eventually
// results in a delayed mask rendering on a later frame"). Every pipeline
// pushes its computed masks here and renders what the debt model allows.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "mask/mask.hpp"
#include "runtime/ring_buffer.hpp"

namespace edgeis::core {

class RenderQueue {
 public:
  explicit RenderQueue(double fps = 30.0, std::size_t history = 64,
                       int max_lag_frames = 4)
      : budget_ms_(1000.0 / fps),
        max_debt_ms_(budget_ms_ * max_lag_frames),
        history_(history) {}

  /// Record the masks computed for `frame_index` at a processing cost of
  /// `compute_ms`, and return the masks that actually reach the display
  /// this frame (older ones when the pipeline is running behind). Debt is
  /// capped: a pipeline that falls behind skips camera frames to catch up,
  /// so staleness saturates instead of growing without bound.
  const std::vector<mask::InstanceMask>& push_and_render(
      int frame_index, std::vector<mask::InstanceMask> masks,
      double compute_ms) {
    history_.push(Entry{frame_index, std::move(masks)});
    debt_ms_ = std::clamp(debt_ms_ + compute_ms - budget_ms_, 0.0,
                          max_debt_ms_);

    const int lag = static_cast<int>(std::floor(debt_ms_ / budget_ms_));
    // Find the newest entry at least `lag` frames old.
    const int target = frame_index - lag;
    const Entry* chosen = &history_.back();
    for (std::size_t i = history_.size(); i-- > 0;) {
      if (history_[i].frame_index <= target) {
        chosen = &history_[i];
        break;
      }
      chosen = &history_[i];  // fall back to the oldest retained
    }
    return chosen->masks;
  }

 private:
  struct Entry {
    int frame_index = 0;
    std::vector<mask::InstanceMask> masks;
  };
  double budget_ms_;
  double max_debt_ms_;
  double debt_ms_ = 0.0;
  rt::RingBuffer<Entry> history_;
};

}  // namespace edgeis::core
