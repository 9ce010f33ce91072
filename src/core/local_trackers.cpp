#include "core/local_trackers.hpp"

#include <algorithm>
#include <cmath>

namespace edgeis::core {

std::optional<geom::Vec2> motion_vector(
    const std::vector<feat::Feature>& prev_features,
    const std::vector<feat::Feature>& curr_features,
    const std::vector<feat::Match>& matches, const mask::InstanceMask& mask,
    int min_matches) {
  // Sample only well inside the mask: once the cached mask has drifted a
  // few pixels, boundary samples pick up background motion and the tracker
  // runs away in a feedback loop.
  const mask::InstanceMask interior = mask.eroded(4);
  const mask::InstanceMask& sample_region =
      interior.pixel_count() >= 64 ? interior : mask;
  geom::Vec2 sum{0, 0};
  int count = 0;
  for (const auto& m : matches) {
    const geom::Vec2& p = prev_features[m.index0].kp.pixel;
    if (!sample_region.get(static_cast<int>(p.x), static_cast<int>(p.y))) {
      continue;
    }
    sum += curr_features[m.index1].kp.pixel - p;
    ++count;
  }
  if (count < min_matches) return std::nullopt;
  return sum / static_cast<double>(count);
}

std::optional<geom::Vec2> CorrelationTracker::track(
    const img::GrayImage& prev, const img::GrayImage& curr,
    const mask::Box& box) const {
  if (box.empty() || box.width() < 8 || box.height() < 8) return std::nullopt;

  // Template statistics from the previous frame.
  const int tw = box.width(), th = box.height();
  double t_mean = 0.0;
  for (int y = 0; y < th; y += stride_) {
    for (int x = 0; x < tw; x += stride_) {
      t_mean += prev.at_clamped(box.x0 + x, box.y0 + y);
    }
  }
  const int n_samples = ((th + stride_ - 1) / stride_) *
                        ((tw + stride_ - 1) / stride_);
  t_mean /= n_samples;

  double best_score = -2.0;
  geom::Vec2 best{0, 0};
  for (int dy = -search_radius_; dy <= search_radius_; dy += stride_) {
    for (int dx = -search_radius_; dx <= search_radius_; dx += stride_) {
      double num = 0.0, den_t = 0.0, den_c = 0.0, c_mean = 0.0;
      for (int y = 0; y < th; y += stride_) {
        for (int x = 0; x < tw; x += stride_) {
          c_mean += curr.at_clamped(box.x0 + x + dx, box.y0 + y + dy);
        }
      }
      c_mean /= n_samples;
      for (int y = 0; y < th; y += stride_) {
        for (int x = 0; x < tw; x += stride_) {
          const double tv = prev.at_clamped(box.x0 + x, box.y0 + y) - t_mean;
          const double cv =
              curr.at_clamped(box.x0 + x + dx, box.y0 + y + dy) - c_mean;
          num += tv * cv;
          den_t += tv * tv;
          den_c += cv * cv;
        }
      }
      const double den = std::sqrt(den_t * den_c);
      if (den < 1e-9) continue;
      const double score = num / den;
      if (score > best_score) {
        best_score = score;
        best = {static_cast<double>(dx), static_cast<double>(dy)};
      }
    }
  }
  if (best_score < 0.25) return std::nullopt;  // no trustworthy peak
  return best;
}

double CorrelationTracker::cost_ms(const mask::Box& box) const {
  const double positions =
      std::pow(2.0 * search_radius_ / stride_ + 1.0, 2.0);
  const double samples =
      static_cast<double>(box.area()) / (stride_ * stride_);
  // ~1.1 ns per multiply-accumulate on the reference mobile CPU.
  return positions * samples * 1.1e-6;
}

}  // namespace edgeis::core
