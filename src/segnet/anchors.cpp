#include "segnet/anchors.hpp"

#include <algorithm>
#include <cmath>

namespace edgeis::segnet {

std::vector<FpnLevel> default_fpn_levels() {
  return {{4, 32.0}, {8, 64.0}, {16, 128.0}, {32, 256.0}, {64, 512.0}};
}

namespace {

void emit_anchors_at(std::vector<Anchor>& out, double cx, double cy,
                     double size, int level, int width, int height) {
  for (double ratio : kAspectRatios) {
    const double w = size * std::sqrt(ratio);
    const double h = size / std::sqrt(ratio);
    mask::Box b{static_cast<int>(cx - w / 2), static_cast<int>(cy - h / 2),
                static_cast<int>(cx + w / 2), static_cast<int>(cy + h / 2)};
    // Clip to the frame; drop anchors that degenerate entirely.
    b = b.intersect({0, 0, width, height});
    if (b.empty()) continue;
    out.push_back({b, level});
  }
}

}  // namespace

std::vector<Anchor> generate_full_anchors(
    int width, int height, const std::vector<FpnLevel>& levels) {
  // Reserve every level's grid up front (clipping only drops anchors), so
  // the time does not depend on how the heap grows a 76k-anchor vector.
  std::size_t bound = 0;
  for (const auto& lvl : levels) {
    const auto cells = [&](int extent) -> std::size_t {
      const int first = lvl.stride / 2;
      return extent > first ? (extent - first + lvl.stride - 1) / lvl.stride
                            : 0;
    };
    bound += cells(width) * cells(height) * std::size(kAspectRatios);
  }
  std::vector<Anchor> anchors;
  anchors.reserve(bound);
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const auto& lvl = levels[li];
    for (int y = lvl.stride / 2; y < height; y += lvl.stride) {
      for (int x = lvl.stride / 2; x < width; x += lvl.stride) {
        emit_anchors_at(anchors, x, y, lvl.anchor_size, static_cast<int>(li),
                        width, height);
      }
    }
  }
  return anchors;
}

std::vector<Anchor> generate_anchors_in_regions(
    int width, int height, const std::vector<FpnLevel>& levels,
    const std::vector<mask::Box>& regions) {
  std::vector<Anchor> anchors;
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const auto& lvl = levels[li];
    for (const auto& region : regions) {
      if (region.empty()) continue;
      // Level selection: this level's anchors must plausibly cover an
      // object of the region's size — skip levels whose anchors are more
      // than ~4x off in either direction.
      const double region_size =
          std::sqrt(static_cast<double>(region.area()));
      if (lvl.anchor_size < region_size / 4.0 ||
          lvl.anchor_size > region_size * 4.0) {
        continue;
      }
      // Snap the region to this level's feature-map grid.
      const int x_begin = (region.x0 / lvl.stride) * lvl.stride + lvl.stride / 2;
      const int y_begin = (region.y0 / lvl.stride) * lvl.stride + lvl.stride / 2;
      for (int y = y_begin; y < region.y1 + lvl.stride / 2 && y < height;
           y += lvl.stride) {
        for (int x = x_begin; x < region.x1 + lvl.stride / 2 && x < width;
             x += lvl.stride) {
          emit_anchors_at(anchors, x, y, lvl.anchor_size,
                          static_cast<int>(li), width, height);
        }
      }
    }
  }
  return anchors;
}

std::vector<Proposal> nms(std::vector<Proposal> proposals,
                          double iou_threshold, int max_out) {
  std::sort(proposals.begin(), proposals.end(),
            [](const Proposal& a, const Proposal& b) {
              return a.objectness > b.objectness;
            });
  std::vector<Proposal> kept;
  for (const auto& p : proposals) {
    if (static_cast<int>(kept.size()) >= max_out) break;
    bool suppressed = false;
    for (const auto& k : kept) {
      if (p.box.iou(k.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(p);
  }
  return kept;
}

std::vector<Proposal> fast_nms(std::vector<Proposal> proposals,
                               double iou_threshold, int max_out) {
  std::sort(proposals.begin(), proposals.end(),
            [](const Proposal& a, const Proposal& b) {
              return a.objectness > b.objectness;
            });
  // Fast NMS: suppress i if ANY higher-scored j (suppressed or not)
  // overlaps it above the threshold.
  std::vector<Proposal> kept;
  for (std::size_t i = 0; i < proposals.size(); ++i) {
    bool suppressed = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (proposals[i].box.iou(proposals[j].box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) {
      kept.push_back(proposals[i]);
      if (static_cast<int>(kept.size()) >= max_out) break;
    }
  }
  return kept;
}

}  // namespace edgeis::segnet
