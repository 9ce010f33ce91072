// Instance-mask representation and pixel-level operations: IoU (Eq. 8),
// surrounding boxes (used by dynamic anchor placement), contour extraction
// (the `findContours` analogue used by mask transfer, Section III-C),
// polygon rasterization (contour -> mask) and simple morphology.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geometry/vec.hpp"
#include "image/image.hpp"

namespace edgeis::mask {

/// Axis-aligned pixel box, [x0, x1) x [y0, y1).
struct Box {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  [[nodiscard]] int width() const noexcept { return x1 - x0; }
  [[nodiscard]] int height() const noexcept { return y1 - y0; }
  [[nodiscard]] long long area() const noexcept {
    return static_cast<long long>(std::max(0, width())) * std::max(0, height());
  }
  [[nodiscard]] bool empty() const noexcept { return x1 <= x0 || y1 <= y0; }

  [[nodiscard]] Box intersect(const Box& o) const noexcept {
    return {std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1),
            std::min(y1, o.y1)};
  }
  [[nodiscard]] Box unite(const Box& o) const noexcept {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(x0, o.x0), std::min(y0, o.y0), std::max(x1, o.x1),
            std::max(y1, o.y1)};
  }
  /// Box IoU — the metric RoI pruning scores candidates with (Section IV-B).
  [[nodiscard]] double iou(const Box& o) const noexcept {
    const long long inter = intersect(o).area();
    const long long uni = area() + o.area() - inter;
    return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni)
                   : 0.0;
  }
  /// Grow by `margin` pixels on all sides, clipped to [0,w)x[0,h).
  [[nodiscard]] Box inflated(int margin, int w, int h) const noexcept {
    return {std::max(0, x0 - margin), std::max(0, y0 - margin),
            std::min(w, x1 + margin), std::min(h, y1 + margin)};
  }
  [[nodiscard]] bool contains(int x, int y) const noexcept {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }
  friend bool operator==(const Box&, const Box&) = default;
};

/// Binary mask of one object instance, with class and instance ids.
///
/// The mask belongs to a width() x height() frame but stores only the tight
/// bounding box of its set pixels (one byte per box cell), plus their
/// count, both fixed when the mask is built. So bounding_box() and
/// pixel_count() are O(1), and every other operation costs the object's
/// box, not the frame.
class InstanceMask {
 public:
  InstanceMask() = default;
  /// An empty mask of a `width` x `height` frame.
  InstanceMask(int width, int height) : width_(width), height_(height) {}
  /// The mask whose set pixels are the nonzero cells of `cells`, a raster
  /// laid over `window` (which must lie inside the frame). Storage is
  /// cropped to the tight box of those pixels.
  InstanceMask(int width, int height, const Box& window,
               img::Image<std::uint8_t> cells);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }

  [[nodiscard]] bool get(int x, int y) const {
    return box_.contains(x, y) && cells_.at(x - box_.x0, y - box_.y0) != 0;
  }
  /// Set or clear one pixel; writes outside the frame are ignored. A slow
  /// path (growing the box reallocates it) for building masks by hand.
  void set(int x, int y, bool v = true);

  [[nodiscard]] long long pixel_count() const noexcept { return count_; }

  /// Tight bounding box of set pixels; nullopt for an empty mask.
  [[nodiscard]] std::optional<Box> bounding_box() const {
    if (count_ == 0) return std::nullopt;
    return box_;
  }

  /// Pixel-level IoU per Eq. (8) of the paper.
  [[nodiscard]] double iou(const InstanceMask& o) const;

  /// 4-connected morphological dilation/erosion by `r` pixels.
  [[nodiscard]] InstanceMask dilated(int r) const;
  [[nodiscard]] InstanceMask eroded(int r) const;

  /// Copy shifted by an integer offset, clipped at the frame borders.
  [[nodiscard]] InstanceMask translated(int dx, int dy) const;

  int class_id = 0;        // semantic class (0 = background / unknown)
  int instance_id = 0;     // unique per object instance in the scene

 private:
  /// This mask's frame and ids with the pixels of `cells` over `window`.
  [[nodiscard]] InstanceMask with_cells(const Box& window,
                                        img::Image<std::uint8_t> cells) const;
  /// `window`-sized raster holding this mask's pixels that fall inside it.
  [[nodiscard]] img::Image<std::uint8_t> cells_over(const Box& window) const;

  int width_ = 0, height_ = 0;
  Box box_;                          // tight box of set pixels; empty if none
  long long count_ = 0;              // set pixels
  img::Image<std::uint8_t> cells_;   // box_-sized; nonzero = set
};

/// A closed contour: ordered list of connected boundary pixels.
using Contour = std::vector<geom::Vec2>;

/// Extract the outer contours of all connected components in the mask
/// (Moore-neighbor tracing with Jacob's stopping criterion — the analogue
/// of OpenCV findContours with RETR_EXTERNAL).
std::vector<Contour> find_contours(const InstanceMask& mask);

/// Rasterize a closed polygon into a mask (even-odd scanline fill).
InstanceMask rasterize_polygon(const Contour& polygon, int width, int height);

/// Build an InstanceMask from an instance-id buffer, selecting `id` pixels.
InstanceMask mask_from_id_image(const img::IdImage& ids, std::uint16_t id);

/// The masks of every nonzero id in an instance-id buffer, built from two
/// sweeps of it however many ids it holds. Ascending id order; each mask's
/// instance_id is its id.
std::vector<InstanceMask> masks_from_id_image(const img::IdImage& ids);

/// The mask of `instance_id` in `masks_from_id_image` output, or nullptr.
const InstanceMask* find_instance(const std::vector<InstanceMask>& masks,
                                  int instance_id);

}  // namespace edgeis::mask
