#include "mask/mask.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "runtime/arena.hpp"

namespace edgeis::mask {

InstanceMask::InstanceMask(int width, int height, const Box& window,
                           img::Image<std::uint8_t> cells)
    : width_(width), height_(height) {
  if (window.x0 < 0 || window.y0 < 0 || window.x1 > width ||
      window.y1 > height || cells.width() != std::max(0, window.width()) ||
      cells.height() != std::max(0, window.height())) {
    throw std::invalid_argument("mask cells do not fit their window");
  }
  // Tight box and count of the nonzero cells, in window coordinates.
  Box tight{cells.width(), cells.height(), 0, 0};
  for (int y = 0; y < cells.height(); ++y) {
    const auto* r = cells.row(y);
    int first = -1, last = -1;
    for (int x = 0; x < cells.width(); ++x) {
      if (r[x] == 0) continue;
      if (first < 0) first = x;
      last = x;
      ++count_;
    }
    if (first < 0) continue;
    tight = tight.unite({first, y, last + 1, y + 1});
  }
  if (count_ == 0) return;
  box_ = {window.x0 + tight.x0, window.y0 + tight.y0, window.x0 + tight.x1,
          window.y0 + tight.y1};
  if (box_ == window) {
    cells_ = std::move(cells);
    return;
  }
  cells_ = img::Image<std::uint8_t>(box_.width(), box_.height());
  for (int y = 0; y < box_.height(); ++y) {
    std::memcpy(cells_.row(y), cells.row(tight.y0 + y) + tight.x0,
                static_cast<std::size_t>(box_.width()));
  }
}

InstanceMask InstanceMask::with_cells(const Box& window,
                                      img::Image<std::uint8_t> cells) const {
  InstanceMask out(width_, height_, window, std::move(cells));
  out.class_id = class_id;
  out.instance_id = instance_id;
  return out;
}

img::Image<std::uint8_t> InstanceMask::cells_over(const Box& window) const {
  img::Image<std::uint8_t> out(window.width(), window.height(), 0);
  const Box common = box_.intersect(window);
  if (common.empty()) return out;
  for (int y = common.y0; y < common.y1; ++y) {
    std::memcpy(out.row(y - window.y0) + (common.x0 - window.x0),
                cells_.row(y - box_.y0) + (common.x0 - box_.x0),
                static_cast<std::size_t>(common.width()));
  }
  return out;
}

void InstanceMask::set(int x, int y, bool v) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_ || get(x, y) == v) return;
  if (!v) {
    cells_.at(x - box_.x0, y - box_.y0) = 0;
    --count_;
    // Clearing a pixel on the box's edge may loosen the box: re-crop.
    if (x == box_.x0 || y == box_.y0 || x == box_.x1 - 1 ||
        y == box_.y1 - 1) {
      *this = with_cells(box_, std::move(cells_));
    }
    return;
  }
  if (box_.contains(x, y)) {
    cells_.at(x - box_.x0, y - box_.y0) = 1;
    ++count_;
    return;
  }
  const Box window = box_.unite({x, y, x + 1, y + 1});
  auto cells = cells_over(window);
  cells.at(x - window.x0, y - window.y0) = 1;
  *this = with_cells(window, std::move(cells));
}

double InstanceMask::iou(const InstanceMask& o) const {
  // Both masks are zero outside their boxes, so only the boxes' overlap can
  // hold common pixels; the union follows from the two counts.
  long long inter = 0;
  const Box common = box_.intersect(o.box_);
  if (!common.empty()) {
    for (int y = common.y0; y < common.y1; ++y) {
      const auto* a = cells_.row(y - box_.y0) + (common.x0 - box_.x0);
      const auto* b = o.cells_.row(y - o.box_.y0) + (common.x0 - o.box_.x0);
      for (int x = 0; x < common.width(); ++x) {
        inter += (a[x] != 0 && b[x] != 0) ? 1 : 0;
      }
    }
  }
  const long long uni = count_ + o.count_ - inter;
  return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni) : 0.0;
}

InstanceMask InstanceMask::dilated(int r) const {
  if (count_ == 0 || r <= 0) return *this;
  // r passes reach at most r pixels past the box, so the box +- r (clipped
  // to the frame) holds the result, and cells beyond it read as unset.
  const Box window = box_.inflated(r, width_, height_);
  const int w = window.width(), h = window.height();
  img::Image<std::uint8_t> cur = cells_over(window);
  img::Image<std::uint8_t> next(w, h);
  for (int pass = 0; pass < r; ++pass) {
    for (int y = 0; y < h; ++y) {
      const auto* c = cur.row(y);
      const auto* up = y > 0 ? cur.row(y - 1) : nullptr;
      const auto* down = y + 1 < h ? cur.row(y + 1) : nullptr;
      auto* n = next.row(y);
      for (int x = 0; x < w; ++x) {
        n[x] = (c[x] != 0 || (x > 0 && c[x - 1] != 0) ||
                (x + 1 < w && c[x + 1] != 0) || (up && up[x] != 0) ||
                (down && down[x] != 0))
                   ? 1
                   : 0;
      }
    }
    std::swap(cur, next);
  }
  return with_cells(window, std::move(cur));
}

InstanceMask InstanceMask::eroded(int r) const {
  if (count_ == 0 || r <= 0) return *this;
  // Erosion never grows the box. Cells outside it read as unset, and the
  // box lies inside the frame, so frame-border pixels erode too.
  const int w = box_.width(), h = box_.height();
  img::Image<std::uint8_t> cur = cells_;
  img::Image<std::uint8_t> next(w, h);
  for (int pass = 0; pass < r; ++pass) {
    for (int y = 0; y < h; ++y) {
      const auto* c = cur.row(y);
      const auto* up = y > 0 ? cur.row(y - 1) : nullptr;
      const auto* down = y + 1 < h ? cur.row(y + 1) : nullptr;
      auto* n = next.row(y);
      for (int x = 0; x < w; ++x) {
        const bool interior = c[x] != 0 && x > 0 && c[x - 1] != 0 &&
                              x + 1 < w && c[x + 1] != 0 && up &&
                              up[x] != 0 && down && down[x] != 0;
        n[x] = interior ? 1 : 0;
      }
    }
    std::swap(cur, next);
  }
  return with_cells(box_, std::move(cur));
}

InstanceMask InstanceMask::translated(int dx, int dy) const {
  const Box moved{box_.x0 + dx, box_.y0 + dy, box_.x1 + dx, box_.y1 + dy};
  const Box window = moved.intersect({0, 0, width_, height_});
  if (count_ == 0 || window.empty()) return with_cells({}, {});
  img::Image<std::uint8_t> cells(window.width(), window.height());
  for (int y = window.y0; y < window.y1; ++y) {
    std::memcpy(cells.row(y - window.y0),
                cells_.row(y - dy - box_.y0) + (window.x0 - dx - box_.x0),
                static_cast<std::size_t>(window.width()));
  }
  return with_cells(window, std::move(cells));
}

namespace {

// Moore neighborhood, clockwise starting from W.
constexpr int kMoore[8][2] = {{-1, 0}, {-1, -1}, {0, -1}, {1, -1},
                              {1, 0},  {1, 1},   {0, 1},  {-1, 1}};

Contour trace_boundary(const InstanceMask& m, int sx, int sy) {
  Contour contour;
  contour.push_back({static_cast<double>(sx), static_cast<double>(sy)});

  int cx = sx, cy = sy;
  // Backtrack starts at W of the start pixel (we scan left-to-right, so the
  // pixel to the left of the first foreground pixel is background).
  int backtrack = 0;
  int fx = -1, fy = -1;  // target of the first move

  const std::size_t max_steps =
      static_cast<std::size_t>(m.width()) * static_cast<std::size_t>(m.height()) * 4 + 16;
  for (std::size_t step = 0; step < max_steps; ++step) {
    // Search clockwise from the pixel after the backtrack direction.
    bool found = false;
    int nx = 0, ny = 0, ndir = 0;
    for (int k = 1; k <= 8; ++k) {
      const int dir = (backtrack + k) % 8;
      const int tx = cx + kMoore[dir][0];
      const int ty = cy + kMoore[dir][1];
      if (m.get(tx, ty)) {
        nx = tx;
        ny = ty;
        ndir = dir;
        found = true;
        break;
      }
    }
    if (!found) break;  // isolated pixel

    // Jacob's stopping criterion: the walk is back at the start pixel and
    // about to repeat its first move, so the loop has closed. Stopping on
    // position alone is wrong — a pinched (8-connected) boundary passes
    // through the start pixel more than once before the loop closes.
    if (step == 0) {
      fx = nx;
      fy = ny;
    } else if (cx == sx && cy == sy && nx == fx && ny == fy) {
      contour.pop_back();  // drop the re-pushed start: the loop is closed
      break;
    }

    contour.push_back({static_cast<double>(nx), static_cast<double>(ny)});
    // New backtrack: points from the new pixel at the last background cell
    // the clockwise search examined before finding it. That cell is at
    // (ndir - 1) relative to the OLD pixel; re-expressed relative to the
    // new pixel it is two steps back for cardinal moves but three for
    // diagonal ones — using the cardinal offset for both lets the search
    // restart on a foreground cell and walk cycles that never re-enter
    // the start state.
    backtrack = (ndir % 2 == 0) ? (ndir + 6) % 8 : (ndir + 5) % 8;
    cx = nx;
    cy = ny;
  }
  return contour;
}

}  // namespace

std::vector<Contour> find_contours(const InstanceMask& mask) {
  std::vector<Contour> contours;
  const auto bbox = mask.bounding_box();
  if (!bbox) return contours;
  // Every set pixel lies in the box, so scanning it row-major finds the
  // components in the same order a full-frame scan would.
  const Box b = *bbox;
  const auto bw = static_cast<std::size_t>(b.width());
  const auto bh = static_cast<std::size_t>(b.height());
  // Frame-scratch reuse: the box-sized visited map comes from the arena
  // (mask transfer runs this per instance per keyframe); the flood-fill
  // seed stack keeps its capacity across calls the same way.
  rt::ArenaScope scratch;
  auto visited = scratch.alloc_filled<std::uint8_t>(bw * bh, 0);
  const auto seen = [&](int px, int py) -> std::uint8_t& {
    return visited[static_cast<std::size_t>(py - b.y0) * bw +
                   static_cast<std::size_t>(px - b.x0)];
  };
  // mask.get bounds-checks, so pixels outside the box fail it before the
  // visited lookup.
  const auto open = [&](int px, int py) {
    return mask.get(px, py) && !seen(px, py);
  };
  thread_local std::vector<std::pair<int, int>> stack;

  for (int y = b.y0; y < b.y1; ++y) {
    for (int x = b.x0; x < b.x1; ++x) {
      if (!mask.get(x, y) || seen(x, y)) continue;
      const bool is_boundary_start = !mask.get(x - 1, y);
      if (!is_boundary_start) continue;

      Contour c = trace_boundary(mask, x, y);
      // Mark the whole 4-connected component visited so inner starts on
      // the same blob don't retrace. Scanline fill: a seed marks its whole
      // run of open pixels in the row, then seeds each open run of the
      // rows above and below that touches the marked one.
      stack.assign(1, {x, y});
      while (!stack.empty()) {
        const auto [px, py] = stack.back();
        stack.pop_back();
        if (!open(px, py)) continue;
        int left = px, right = px;
        while (open(left - 1, py)) --left;
        while (open(right + 1, py)) ++right;
        for (int i = left; i <= right; ++i) seen(i, py) = 1;
        for (const int ny : {py - 1, py + 1}) {
          bool in_run = false;
          for (int i = left; i <= right; ++i) {
            const bool o = open(i, ny);
            if (o && !in_run) stack.push_back({i, ny});
            in_run = o;
          }
        }
      }
      if (c.size() >= 3) contours.push_back(std::move(c));
    }
  }
  return contours;
}

InstanceMask rasterize_polygon(const Contour& polygon, int width, int height) {
  if (polygon.size() < 3) return InstanceMask(width, height);

  // Only rows and columns under the polygon's extent can fill: take its
  // finite vertices' box (one pixel of slack each way), clipped to the
  // frame. Clamping in double keeps far-off vertices from overflowing int.
  double min_x = std::numeric_limits<double>::infinity(), min_y = min_x;
  double max_x = -min_x, max_y = -min_x;
  for (const auto& p : polygon) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const auto clip = [](double v, int hi) {
    return static_cast<int>(std::clamp(v, 0.0, static_cast<double>(hi)));
  };
  if (min_x > max_x) return InstanceMask(width, height);
  const Box window{clip(std::floor(min_x), width),
                   clip(std::floor(min_y), height),
                   clip(std::ceil(max_x) + 1.0, width),
                   clip(std::ceil(max_y) + 1.0, height)};
  if (window.empty()) return InstanceMask(width, height);
  img::Image<std::uint8_t> cells(window.width(), window.height(), 0);

  // Even-odd scanline fill over an active-edge list. An edge can cross
  // row y (centre fy = y + 0.5) only for floor(min y) <= y <= ceil(max y)
  // − 1; it joins the list at the first such window row and leaves after
  // the last. Edges with a NaN or level y never cross. The crossing
  // predicate and arithmetic per row are the full scan's, and the list is
  // kept in edge order, so xs reaches the sort in the full scan's order
  // (which matters: infinite vertices give NaN crossings, and a sort's
  // output with NaNs depends on its input order).
  struct Edge {
    int first, last;      // window rows it may cross
    std::uint32_t index;  // polygon[index] -> polygon[index + 1]
  };
  const std::size_t n = polygon.size();
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < n; ++i) {
    const double ya = polygon[i].y;
    const double yb = polygon[(i + 1) % n].y;
    if (!(ya < yb || yb < ya)) continue;
    const double first = std::max(std::floor(std::min(ya, yb)),
                                  static_cast<double>(window.y0));
    const double last = std::min(std::ceil(std::max(ya, yb)) - 1.0,
                                 static_cast<double>(window.y1 - 1));
    if (!(first <= last)) continue;
    edges.push_back({static_cast<int>(first), static_cast<int>(last),
                     static_cast<std::uint32_t>(i)});
  }
  // By first row; stable, so edge order holds within a row.
  std::stable_sort(
      edges.begin(), edges.end(),
      [](const Edge& a, const Edge& b) { return a.first < b.first; });
  const auto by_index = [](const Edge& a, const Edge& b) {
    return a.index < b.index;
  };

  std::vector<double> xs;
  std::vector<Edge> active;
  auto next = edges.begin();
  for (int y = window.y0; y < window.y1; ++y) {
    const double fy = static_cast<double>(y) + 0.5;
    std::erase_if(active, [y](const Edge& e) { return e.last < y; });
    const auto joined = static_cast<std::ptrdiff_t>(active.size());
    for (; next != edges.end() && next->first == y; ++next) {
      active.push_back(*next);
    }
    std::inplace_merge(active.begin(), active.begin() + joined, active.end(),
                       by_index);
    xs.clear();
    for (const Edge& e : active) {
      const geom::Vec2& a = polygon[e.index];
      const geom::Vec2& b = polygon[(e.index + 1) % n];
      if ((a.y <= fy && b.y > fy) || (b.y <= fy && a.y > fy)) {
        const double t = (fy - a.y) / (b.y - a.y);
        xs.push_back(a.x + t * (b.x - a.x));
      }
    }
    std::sort(xs.begin(), xs.end());
    auto* row = cells.row(y - window.y0);
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      // Clamped in double and compared before the int conversion: a
      // crossing past the int range (an infinite or huge vertex) would
      // otherwise convert to garbage. std::max/min return the window
      // bound when a crossing is NaN.
      const double lo = std::max(static_cast<double>(window.x0),
                                 std::ceil(xs[i] - 0.5));
      const double hi = std::min(static_cast<double>(window.x1 - 1),
                                 std::floor(xs[i + 1] - 0.5));
      if (!(lo <= hi)) continue;
      const int x0 = static_cast<int>(lo);
      const int x1 = static_cast<int>(hi);
      std::memset(row + (x0 - window.x0), 1,
                  static_cast<std::size_t>(x1 - x0 + 1));
    }
  }
  return InstanceMask(width, height, window, std::move(cells));
}

namespace {

/// Masks of the ids `keep` accepts, in ascending id order: one sweep finds
/// each id's box from its row runs, a second stamps the runs into
/// box-sized rasters.
template <typename Keep>
std::vector<InstanceMask> extract_ids(const img::IdImage& ids, Keep keep) {
  const int w = ids.width();
  std::vector<Box> boxes;  // indexed by id; empty = absent
  int y_lo = ids.height(), y_hi = 0;  // rows holding any kept id
  const auto for_each_run = [&](int y0, int y1, auto&& fn) {
    for (int y = y0; y < y1; ++y) {
      const auto* r = ids.row(y);
      for (int x = 0; x < w;) {
        const std::uint16_t id = r[x];
        const int x0 = x;
        while (x < w && r[x] == id) ++x;
        if (keep(id)) fn(id, y, x0, x);
      }
    }
  };
  for_each_run(0, ids.height(), [&](std::uint16_t id, int y, int x0, int x1) {
    if (id >= boxes.size()) boxes.resize(static_cast<std::size_t>(id) + 1);
    boxes[id] = boxes[id].unite({x0, y, x1, y + 1});
    y_lo = std::min(y_lo, y);
    y_hi = y + 1;
  });
  std::vector<img::Image<std::uint8_t>> cells(boxes.size());
  for (std::size_t id = 0; id < boxes.size(); ++id) {
    if (!boxes[id].empty()) {
      cells[id] = img::Image<std::uint8_t>(boxes[id].width(),
                                           boxes[id].height(), 0);
    }
  }
  for_each_run(y_lo, y_hi, [&](std::uint16_t id, int y, int x0, int x1) {
    const Box& b = boxes[id];
    std::memset(cells[id].row(y - b.y0) + (x0 - b.x0), 1,
                static_cast<std::size_t>(x1 - x0));
  });
  std::vector<InstanceMask> out;
  for (std::size_t id = 0; id < boxes.size(); ++id) {
    if (boxes[id].empty()) continue;
    out.emplace_back(w, ids.height(), boxes[id], std::move(cells[id]));
    out.back().instance_id = static_cast<int>(id);
  }
  return out;
}

}  // namespace

InstanceMask mask_from_id_image(const img::IdImage& ids, std::uint16_t id) {
  auto found =
      extract_ids(ids, [id](std::uint16_t v) { return v == id; });
  if (!found.empty()) return std::move(found.front());
  InstanceMask out(ids.width(), ids.height());
  out.instance_id = id;
  return out;
}

std::vector<InstanceMask> masks_from_id_image(const img::IdImage& ids) {
  return extract_ids(ids, [](std::uint16_t v) { return v != 0; });
}

const InstanceMask* find_instance(const std::vector<InstanceMask>& masks,
                                  int instance_id) {
  const auto it = std::lower_bound(
      masks.begin(), masks.end(), instance_id,
      [](const InstanceMask& m, int id) { return m.instance_id < id; });
  return it != masks.end() && it->instance_id == instance_id ? &*it : nullptr;
}

}  // namespace edgeis::mask
