// Unit tests for masks: boxes, IoU, contour tracing, rasterization,
// morphology, id-buffer extraction, and a randomized check of the
// box-cropped representation against a dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mask/mask.hpp"
#include "runtime/rng.hpp"

using namespace edgeis::mask;

namespace {

InstanceMask filled_rect(int w, int h, const Box& b) {
  InstanceMask m(w, h);
  for (int y = b.y0; y < b.y1; ++y) {
    for (int x = b.x0; x < b.x1; ++x) m.set(x, y);
  }
  return m;
}

InstanceMask filled_disk(int w, int h, int cx, int cy, int r) {
  InstanceMask m(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if ((x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r) m.set(x, y);
    }
  }
  return m;
}

}  // namespace

TEST(Box, AreaAndIntersection) {
  const Box a{0, 0, 10, 10}, b{5, 5, 15, 15};
  EXPECT_EQ(a.area(), 100);
  EXPECT_EQ(a.intersect(b).area(), 25);
  EXPECT_NEAR(a.iou(b), 25.0 / 175.0, 1e-12);
}

TEST(Box, DisjointIouZero) {
  const Box a{0, 0, 5, 5}, b{10, 10, 20, 20};
  EXPECT_TRUE(a.intersect(b).empty());
  EXPECT_DOUBLE_EQ(a.iou(b), 0.0);
}

TEST(Box, IdenticalIouOne) {
  const Box a{2, 3, 8, 9};
  EXPECT_DOUBLE_EQ(a.iou(a), 1.0);
}

TEST(Box, InflatedClipped) {
  const Box a{2, 2, 8, 8};
  const Box big = a.inflated(5, 20, 20);
  EXPECT_EQ(big.x0, 0);
  EXPECT_EQ(big.y1, 13);
}

TEST(Box, Unite) {
  const Box a{0, 0, 4, 4}, b{10, 10, 12, 12};
  const Box u = a.unite(b);
  EXPECT_EQ(u.x0, 0);
  EXPECT_EQ(u.x1, 12);
  EXPECT_EQ(Box{}.unite(a).area(), a.area());
}

TEST(InstanceMask, PixelCountAndBounds) {
  const auto m = filled_rect(20, 20, {5, 6, 9, 10});
  EXPECT_EQ(m.pixel_count(), 16);
  const auto bb = m.bounding_box();
  ASSERT_TRUE(bb.has_value());
  EXPECT_EQ(bb->x0, 5);
  EXPECT_EQ(bb->y1, 10);
}

TEST(InstanceMask, EmptyBoundingBox) {
  const InstanceMask m(10, 10);
  EXPECT_FALSE(m.bounding_box().has_value());
}

TEST(InstanceMask, IouOverlap) {
  const auto a = filled_rect(20, 20, {0, 0, 10, 10});
  const auto b = filled_rect(20, 20, {5, 0, 15, 10});
  EXPECT_NEAR(a.iou(b), 50.0 / 150.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.iou(a), 1.0);
}

TEST(InstanceMask, OutOfBoundsReadsFalse) {
  const auto m = filled_rect(10, 10, {0, 0, 10, 10});
  EXPECT_FALSE(m.get(-1, 0));
  EXPECT_FALSE(m.get(0, 10));
}

TEST(InstanceMask, DilateErodeInverse) {
  const auto m = filled_rect(30, 30, {10, 10, 20, 20});
  const auto d = m.dilated(2);
  EXPECT_GT(d.pixel_count(), m.pixel_count());
  const auto back = d.eroded(2);
  // Dilation then erosion of a convex shape recovers it exactly.
  EXPECT_DOUBLE_EQ(back.iou(m), 1.0);
}

TEST(InstanceMask, ErodeShrinksToNothing) {
  const auto m = filled_rect(10, 10, {4, 4, 6, 6});
  EXPECT_EQ(m.eroded(2).pixel_count(), 0);
}

TEST(Contours, RectangleContourLength) {
  const auto m = filled_rect(20, 20, {5, 5, 15, 15});
  const auto cs = find_contours(m);
  ASSERT_EQ(cs.size(), 1u);
  // 10x10 square boundary: 4*10 - 4 = 36 pixels.
  EXPECT_EQ(cs[0].size(), 36u);
}

TEST(Contours, DiskContourClosed) {
  const auto m = filled_disk(40, 40, 20, 20, 10);
  const auto cs = find_contours(m);
  ASSERT_EQ(cs.size(), 1u);
  // Contour length should approximate the circumference.
  EXPECT_GT(cs[0].size(), 40u);
  EXPECT_LT(cs[0].size(), 100u);
  // Adjacent contour pixels must be 8-connected.
  for (std::size_t i = 1; i < cs[0].size(); ++i) {
    EXPECT_LE(std::abs(cs[0][i].x - cs[0][i - 1].x), 1.0);
    EXPECT_LE(std::abs(cs[0][i].y - cs[0][i - 1].y), 1.0);
  }
}

TEST(Contours, TwoComponentsTwoContours) {
  InstanceMask m(30, 30);
  for (int y = 2; y < 8; ++y)
    for (int x = 2; x < 8; ++x) m.set(x, y);
  for (int y = 15; y < 25; ++y)
    for (int x = 15; x < 25; ++x) m.set(x, y);
  EXPECT_EQ(find_contours(m).size(), 2u);
}

TEST(Contours, EmptyMaskNoContours) {
  const InstanceMask m(10, 10);
  EXPECT_TRUE(find_contours(m).empty());
}

TEST(Rasterize, TriangleArea) {
  const Contour tri = {{10, 10}, {50, 10}, {10, 50}};
  const auto m = rasterize_polygon(tri, 64, 64);
  // Area of the right triangle is 800; allow boundary slack.
  EXPECT_NEAR(static_cast<double>(m.pixel_count()), 800.0, 60.0);
}

TEST(Rasterize, ContourRoundTrip) {
  const auto original = filled_disk(64, 64, 32, 32, 16);
  const auto cs = find_contours(original);
  ASSERT_EQ(cs.size(), 1u);
  const auto rebuilt = rasterize_polygon(cs[0], 64, 64);
  EXPECT_GT(rebuilt.iou(original), 0.93);
}

TEST(Rasterize, DegenerateInputsEmpty) {
  EXPECT_EQ(rasterize_polygon({}, 10, 10).pixel_count(), 0);
  EXPECT_EQ(rasterize_polygon({{1, 1}, {2, 2}}, 10, 10).pixel_count(), 0);
}

TEST(Rasterize, ClipsOutsideFrame) {
  const Contour square = {{-20, -20}, {30, -20}, {30, 30}, {-20, 30}};
  const auto m = rasterize_polygon(square, 20, 20);
  // Only the in-frame quadrant is filled.
  EXPECT_GT(m.pixel_count(), 350);
  EXPECT_LE(m.pixel_count(), 400);
}

TEST(MaskFromIds, SelectsMatchingPixels) {
  edgeis::img::IdImage ids(8, 8, 0);
  ids.at(2, 2) = 5;
  ids.at(3, 2) = 5;
  ids.at(4, 4) = 9;
  const auto m5 = mask_from_id_image(ids, 5);
  EXPECT_EQ(m5.pixel_count(), 2);
  EXPECT_TRUE(m5.get(2, 2));
  EXPECT_FALSE(m5.get(4, 4));
  EXPECT_EQ(m5.instance_id, 5);
}

// Regression: a pinched (8-connected) boundary used to send the Moore
// tracer into a cycle that never revisited its start state, so it only
// stopped at the width*height*4 safety cap — producing million-vertex
// "contours" for masks of a few tens of kilopixels (and, downstream,
// megabyte mask payloads that stretched simulated downlinks by seconds).
TEST(Contours, PinchedBoundaryTerminatesWithBoundedContour) {
  // Two solid squares joined only through a diagonal pixel pair: the
  // boundary walk passes through the pinch twice before closing.
  InstanceMask m(16, 16);
  for (int y = 1; y <= 6; ++y) {
    for (int x = 1; x <= 6; ++x) m.set(x, y);
  }
  for (int y = 7; y <= 12; ++y) {
    for (int x = 7; x <= 12; ++x) m.set(x, y);
  }
  const auto contours = find_contours(m);
  // One walk through the pinch or one loop per square are both sane; a
  // runaway trace is not.
  ASSERT_GE(contours.size(), 1u);
  ASSERT_LE(contours.size(), 2u);
  for (const auto& c : contours) {
    // The whole component has 72 pixels; a sane trace visits each boundary
    // pixel at most a couple of times. The buggy tracer returned ~1000
    // vertices here (the 16*16*4 step cap).
    EXPECT_LE(c.size(), 64u);
    // Every vertex lies on a foreground pixel and consecutive vertices are
    // Moore neighbors (the trace is a connected walk on the boundary).
    for (std::size_t i = 0; i < c.size(); ++i) {
      const int x = static_cast<int>(c[i].x), y = static_cast<int>(c[i].y);
      EXPECT_TRUE(m.get(x, y)) << "vertex off-mask at " << x << "," << y;
      const auto& n = c[(i + 1) % c.size()];
      EXPECT_LE(std::abs(static_cast<int>(n.x) - x), 1);
      EXPECT_LE(std::abs(static_cast<int>(n.y) - y), 1);
    }
  }
}

TEST(Contours, NoisyBlobContourStaysProportionalToPerimeter) {
  // A disc whose boundary is perturbed pixel-by-pixel — the shape that
  // triggered runaway traces when corrupt_mask() rasterized noisy
  // polygons. Vertices must scale with the perimeter, not the area.
  InstanceMask m(200, 200);
  for (int y = 0; y < 200; ++y) {
    for (int x = 0; x < 200; ++x) {
      const double dx = x - 100.0, dy = y - 100.0;
      const double wobble =
          6.0 * std::sin(0.9 * std::atan2(dy, dx) * 7.0);
      if (std::sqrt(dx * dx + dy * dy) < 70.0 + wobble) m.set(x, y);
    }
  }
  std::size_t verts = 0;
  for (const auto& c : find_contours(m)) verts += c.size();
  EXPECT_GT(verts, 100u);
  EXPECT_LE(verts, 4u * 2u * 220u);  // O(perimeter), far below area ~15k
}

// ---------------------------------------------------------------------------
// Randomized equivalence against a dense reference.
//
// InstanceMask stores only the tight box of its set pixels. DenseMask below
// is a frame-sized byte plane with the plain full-frame algorithms; every
// box-cropped operation must agree with it pixel for pixel (and
// find_contours point for point).
// ---------------------------------------------------------------------------

namespace {

using edgeis::img::IdImage;
using edgeis::rt::Rng;

struct DenseMask {
  int w = 0, h = 0;
  std::vector<std::uint8_t> px;

  DenseMask(int width, int height)
      : w(width), h(height), px(static_cast<std::size_t>(width * height), 0) {}
  [[nodiscard]] bool get(int x, int y) const {
    return x >= 0 && y >= 0 && x < w && y < h &&
           px[static_cast<std::size_t>(y * w + x)] != 0;
  }
  void set(int x, int y, bool v = true) {
    if (x >= 0 && y >= 0 && x < w && y < h) {
      px[static_cast<std::size_t>(y * w + x)] = v ? 1 : 0;
    }
  }
};

// Uniform integer in [0, n).
int below(Rng& rng, int n) {
  return static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
}

long long dense_count(const DenseMask& d) {
  long long c = 0;
  for (auto v : d.px) c += v;
  return c;
}

std::optional<Box> dense_box(const DenseMask& d) {
  Box b{d.w, d.h, 0, 0};
  bool any = false;
  for (int y = 0; y < d.h; ++y) {
    for (int x = 0; x < d.w; ++x) {
      if (!d.get(x, y)) continue;
      any = true;
      b = {std::min(b.x0, x), std::min(b.y0, y), std::max(b.x1, x + 1),
           std::max(b.y1, y + 1)};
    }
  }
  if (!any) return std::nullopt;
  return b;
}

double dense_iou(const DenseMask& a, const DenseMask& b) {
  long long inter = 0, uni = 0;
  for (int y = 0; y < std::max(a.h, b.h); ++y) {
    for (int x = 0; x < std::max(a.w, b.w); ++x) {
      inter += (a.get(x, y) && b.get(x, y)) ? 1 : 0;
      uni += (a.get(x, y) || b.get(x, y)) ? 1 : 0;
    }
  }
  return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni) : 0.0;
}

DenseMask dense_dilated(const DenseMask& m, int r) {
  DenseMask out = m;
  for (int pass = 0; pass < r; ++pass) {
    DenseMask next = out;
    for (int y = 0; y < m.h; ++y) {
      for (int x = 0; x < m.w; ++x) {
        if (out.get(x - 1, y) || out.get(x + 1, y) || out.get(x, y - 1) ||
            out.get(x, y + 1)) {
          next.set(x, y);
        }
      }
    }
    out = next;
  }
  return out;
}

DenseMask dense_eroded(const DenseMask& m, int r) {
  DenseMask out = m;
  for (int pass = 0; pass < r; ++pass) {
    DenseMask next = out;
    for (int y = 0; y < m.h; ++y) {
      for (int x = 0; x < m.w; ++x) {
        const bool interior = x > 0 && y > 0 && x < m.w - 1 && y < m.h - 1 &&
                              out.get(x - 1, y) && out.get(x + 1, y) &&
                              out.get(x, y - 1) && out.get(x, y + 1);
        if (!interior) next.set(x, y, false);
      }
    }
    out = next;
  }
  return out;
}

DenseMask dense_translated(const DenseMask& m, int dx, int dy) {
  DenseMask out(m.w, m.h);
  for (int y = 0; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) {
      if (m.get(x, y)) out.set(x + dx, y + dy);
    }
  }
  return out;
}

// Moore tracing with Jacob's stopping criterion, scanning the whole frame.
Contour dense_trace(const DenseMask& m, int sx, int sy) {
  static constexpr int kMoore[8][2] = {{-1, 0}, {-1, -1}, {0, -1}, {1, -1},
                                       {1, 0},  {1, 1},   {0, 1},  {-1, 1}};
  Contour contour{{static_cast<double>(sx), static_cast<double>(sy)}};
  int cx = sx, cy = sy, backtrack = 0, fx = -1, fy = -1;
  const std::size_t max_steps =
      static_cast<std::size_t>(m.w) * static_cast<std::size_t>(m.h) * 4 + 16;
  for (std::size_t step = 0; step < max_steps; ++step) {
    bool found = false;
    int nx = 0, ny = 0, ndir = 0;
    for (int k = 1; k <= 8 && !found; ++k) {
      const int dir = (backtrack + k) % 8;
      nx = cx + kMoore[dir][0];
      ny = cy + kMoore[dir][1];
      ndir = dir;
      found = m.get(nx, ny);
    }
    if (!found) break;
    if (step == 0) {
      fx = nx;
      fy = ny;
    } else if (cx == sx && cy == sy && nx == fx && ny == fy) {
      contour.pop_back();
      break;
    }
    contour.push_back({static_cast<double>(nx), static_cast<double>(ny)});
    backtrack = (ndir % 2 == 0) ? (ndir + 6) % 8 : (ndir + 5) % 8;
    cx = nx;
    cy = ny;
  }
  return contour;
}

std::vector<Contour> dense_contours(const DenseMask& m) {
  std::vector<Contour> out;
  DenseMask seen(m.w, m.h);
  for (int y = 0; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) {
      if (!m.get(x, y) || seen.get(x, y) || m.get(x - 1, y)) continue;
      Contour c = dense_trace(m, x, y);
      std::vector<std::pair<int, int>> stack{{x, y}};
      while (!stack.empty()) {
        const auto [px, py] = stack.back();
        stack.pop_back();
        if (!m.get(px, py) || seen.get(px, py)) continue;
        seen.set(px, py);
        stack.insert(stack.end(),
                     {{px - 1, py}, {px + 1, py}, {px, py - 1}, {px, py + 1}});
      }
      if (c.size() >= 3) out.push_back(std::move(c));
    }
  }
  return out;
}

DenseMask dense_rasterize(const Contour& polygon, int w, int h) {
  DenseMask out(w, h);
  if (polygon.size() < 3) return out;
  for (int y = 0; y < h; ++y) {
    const double fy = y + 0.5;
    std::vector<double> xs;
    for (std::size_t i = 0; i < polygon.size(); ++i) {
      const auto& a = polygon[i];
      const auto& b = polygon[(i + 1) % polygon.size()];
      if ((a.y <= fy && b.y > fy) || (b.y <= fy && a.y > fy)) {
        xs.push_back(a.x + (fy - a.y) / (b.y - a.y) * (b.x - a.x));
      }
    }
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      const int x0 = std::max(0, static_cast<int>(std::ceil(xs[i] - 0.5)));
      const int x1 =
          std::min(w - 1, static_cast<int>(std::floor(xs[i + 1] - 0.5)));
      for (int x = x0; x <= x1; ++x) out.set(x, y);
    }
  }
  return out;
}

InstanceMask cropped(const DenseMask& d) {
  InstanceMask m(d.w, d.h);
  for (int y = 0; y < d.h; ++y) {
    for (int x = 0; x < d.w; ++x) {
      if (d.get(x, y)) m.set(x, y);
    }
  }
  return m;
}

// Same frame, count, box, and pixels (one pixel past the frame included).
void expect_same(const InstanceMask& m, const DenseMask& d,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(m.width(), d.w);
  ASSERT_EQ(m.height(), d.h);
  EXPECT_EQ(m.pixel_count(), dense_count(d));
  EXPECT_EQ(m.bounding_box(), dense_box(d));
  for (int y = -1; y <= d.h; ++y) {
    for (int x = -1; x <= d.w; ++x) {
      ASSERT_EQ(m.get(x, y), d.get(x, y)) << "pixel " << x << "," << y;
    }
  }
}

// A random shape: rectangles, disks and speckle, some clamped to a frame
// edge so the box touches it.
DenseMask random_blob(Rng& rng, int w, int h) {
  DenseMask d(w, h);
  const int pieces = 1 + below(rng, 4);
  for (int p = 0; p < pieces; ++p) {
    int x0 = below(rng, w);
    int y0 = below(rng, h);
    int x1 = x0 + 1 + below(rng, 12);
    int y1 = y0 + 1 + below(rng, 12);
    switch (rng.uniform_int(6)) {
      case 0: x0 = 0; break;
      case 1: y0 = 0; break;
      case 2: x1 = w; break;
      case 3: y1 = h; break;
      default: break;
    }
    const bool disk = rng.chance(0.4);
    const double cx = (x0 + x1) / 2.0, cy = (y0 + y1) / 2.0;
    const double r = std::min(x1 - x0, y1 - y0) / 2.0;
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        if (!disk || (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r) {
          d.set(x, y);
        }
      }
    }
  }
  const int speckle = below(rng, 6);
  for (int i = 0; i < speckle; ++i) {
    d.set(below(rng, w),
          below(rng, h),
          rng.chance(0.7));
  }
  return d;
}

void expect_same_contours(const std::vector<Contour>& got,
                          const std::vector<Contour>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "contour " << i;
    for (std::size_t k = 0; k < got[i].size(); ++k) {
      EXPECT_EQ(got[i][k].x, want[i][k].x) << "contour " << i << " point " << k;
      EXPECT_EQ(got[i][k].y, want[i][k].y) << "contour " << i << " point " << k;
    }
  }
}

void check_all_ops(const DenseMask& d, Rng& rng) {
  const InstanceMask m = cropped(d);
  expect_same(m, d, "build by set()");
  for (int r = 0; r <= 3; ++r) {
    const std::string radius = std::to_string(r);
    expect_same(m.dilated(r), dense_dilated(d, r), "dilated " + radius);
    expect_same(m.eroded(r), dense_eroded(d, r), "eroded " + radius);
  }
  const int dxs[] = {0, 1, -1, 3, -d.w / 2, d.w - 1, -d.w, d.w + 5};
  const int dys[] = {0, -1, 2, d.h / 2, -d.h + 1, d.h, -d.h - 3, 1};
  for (int i = 0; i < 8; ++i) {
    expect_same(m.translated(dxs[i], dys[i]),
                dense_translated(d, dxs[i], dys[i]),
                "translated " + std::to_string(dxs[i]) + "," +
                    std::to_string(dys[i]));
  }
  const auto contours = find_contours(m);
  expect_same_contours(contours, dense_contours(d));
  for (const auto& c : contours) {
    expect_same(rasterize_polygon(c, d.w, d.h), dense_rasterize(c, d.w, d.h),
                "contour round trip");
  }
  const DenseMask other = random_blob(rng, d.w, d.h);
  EXPECT_DOUBLE_EQ(m.iou(cropped(other)), dense_iou(d, other));
  EXPECT_DOUBLE_EQ(m.iou(m), dense_iou(d, d));
}

// The polygon fill before the active-edge list: every edge tested on every
// window row. Kept as the reference for inputs (NaN and infinite
// vertices) on which the full-frame dense_rasterize is not defined. Fill
// bounds stay in double: the old int conversion of a crossing past the
// int range was undefined and crashed on a +inf crossing.
InstanceMask scan_all_edges_rasterize(const Contour& polygon, int width,
                                      int height) {
  if (polygon.size() < 3) return InstanceMask(width, height);
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
  edgeis::img::Image<std::uint8_t> cells(window.width(), window.height(), 0);
  std::vector<double> xs;
  const std::size_t n = polygon.size();
  for (int y = window.y0; y < window.y1; ++y) {
    const double fy = static_cast<double>(y) + 0.5;
    xs.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = polygon[i];
      const auto& b = polygon[(i + 1) % n];
      if ((a.y <= fy && b.y > fy) || (b.y <= fy && a.y > fy)) {
        const double t = (fy - a.y) / (b.y - a.y);
        xs.push_back(a.x + t * (b.x - a.x));
      }
    }
    std::sort(xs.begin(), xs.end());
    auto* row = cells.row(y - window.y0);
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      const double x0 = std::max(static_cast<double>(window.x0),
                                 std::ceil(xs[i] - 0.5));
      const double x1 = std::min(static_cast<double>(window.x1 - 1),
                                 std::floor(xs[i + 1] - 0.5));
      for (double x = x0; x <= x1; ++x) {
        row[static_cast<int>(x) - window.x0] = 1;
      }
    }
  }
  return InstanceMask(width, height, window, std::move(cells));
}

void expect_same_mask(const InstanceMask& got, const InstanceMask& want,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  ASSERT_EQ(got.pixel_count(), want.pixel_count());
  ASSERT_EQ(got.bounding_box(), want.bounding_box());
  for (int y = 0; y < want.height(); ++y) {
    for (int x = 0; x < want.width(); ++x) {
      ASSERT_EQ(got.get(x, y), want.get(x, y)) << "pixel " << x << "," << y;
    }
  }
}

// A mask drawn as text: '#' is set.
DenseMask from_rows(const std::vector<std::string>& rows) {
  DenseMask d(static_cast<int>(rows.front().size()),
              static_cast<int>(rows.size()));
  for (int y = 0; y < d.h; ++y) {
    for (int x = 0; x < d.w; ++x) {
      const auto& row = rows[static_cast<std::size_t>(y)];
      d.set(x, y, row[static_cast<std::size_t>(x)] == '#');
    }
  }
  return d;
}

// Square spiral wall, one pixel thick, with one-pixel corridors: sides of
// size − 1 three times, then pairs two shorter each turn.
DenseMask spiral(int size) {
  DenseMask d(size, size);
  const int dx[] = {1, 0, -1, 0}, dy[] = {0, 1, 0, -1};
  int x = 0, y = 0;
  d.set(x, y);
  for (int side = 0;; ++side) {
    const int len = side < 3 ? size - 1 : size - 1 - 2 * ((side - 1) / 2);
    if (len <= 0) break;
    for (int i = 0; i < len; ++i) {
      x += dx[side % 4];
      y += dy[side % 4];
      d.set(x, y);
    }
  }
  return d;
}

}  // namespace

TEST(MaskEquivalence, EmptyAndSinglePixel) {
  Rng rng(1);
  for (const auto& [w, h] :
       {std::pair{1, 1}, std::pair{7, 5}, std::pair{1, 9}}) {
    DenseMask d(w, h);
    check_all_ops(d, rng);
    d.set(w - 1, h / 2);
    check_all_ops(d, rng);
    d.set(0, 0);
    check_all_ops(d, rng);
  }
  const InstanceMask none(640, 480);
  EXPECT_EQ(none.pixel_count(), 0);
  EXPECT_FALSE(none.bounding_box().has_value());
  EXPECT_TRUE(find_contours(none).empty());
  EXPECT_EQ(none.translated(3, 3).pixel_count(), 0);
  EXPECT_EQ(none.dilated(2).pixel_count(), 0);
}

TEST(MaskEquivalence, RandomBlobsMatchDenseReference) {
  Rng rng(20261017);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int w = 1 + below(rng, 40);
    const int h = 1 + below(rng, 40);
    check_all_ops(random_blob(rng, w, h), rng);
    if (HasFatalFailure()) return;
  }
}

TEST(MaskEquivalence, BlobsTouchingEachFrameEdge) {
  Rng rng(5);
  const int w = 23, h = 17;
  const Box edges[] = {{0, 4, 6, 12},   {17, 3, 23, 9}, {5, 0, 14, 5},
                       {6, 12, 18, 17}, {0, 0, 23, 17}, {0, 0, 1, 17},
                       {22, 16, 23, 17}};
  for (const Box& b : edges) {
    DenseMask d(w, h);
    for (int y = b.y0; y < b.y1; ++y) {
      for (int x = b.x0; x < b.x1; ++x) d.set(x, y);
    }
    check_all_ops(d, rng);
  }
}

TEST(MaskEquivalence, SetAndClearKeepTheBoxTight) {
  Rng rng(9);
  DenseMask d(30, 20);
  InstanceMask m(30, 20);
  for (int i = 0; i < 600; ++i) {
    const int x = below(rng, 34) - 2;
    const int y = below(rng, 24) - 2;
    const bool v = rng.chance(0.55);
    d.set(x, y, v);
    m.set(x, y, v);
    if (i % 50 == 0) expect_same(m, d, "after write " + std::to_string(i));
  }
  expect_same(m, d, "final");
}

TEST(MaskEquivalence, IouOfDisjointAndDifferentFrameSizes) {
  DenseMask a(20, 10), b(20, 10), c(12, 30);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) a.set(x, y);
  }
  for (int y = 6; y < 10; ++y) {
    for (int x = 10; x < 20; ++x) b.set(x, y);
  }
  for (int y = 2; y < 30; ++y) {
    for (int x = 3; x < 12; ++x) c.set(x, y);
  }
  EXPECT_EQ(cropped(a).iou(cropped(b)), 0.0);
  EXPECT_EQ(dense_iou(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cropped(a).iou(cropped(c)), dense_iou(a, c));
  EXPECT_DOUBLE_EQ(cropped(c).iou(cropped(a)), dense_iou(c, a));
  EXPECT_DOUBLE_EQ(cropped(b).iou(cropped(c)), dense_iou(b, c));
  EXPECT_EQ(InstanceMask(5, 5).iou(InstanceMask(9, 2)), 0.0);
}

TEST(MaskEquivalence, PolygonsPartlyOutsideTheFrame) {
  Rng rng(77);
  for (int trial = 0; trial < 120; ++trial) {
    const int w = 5 + below(rng, 40);
    const int h = 5 + below(rng, 40);
    Contour poly;
    const int n = 3 + below(rng, 9);
    const double cx = rng.uniform(-10.0, w + 10.0);
    const double cy = rng.uniform(-10.0, h + 10.0);
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.3)) {  // self-intersecting: any point
        poly.push_back({rng.uniform(-15.0, w + 15.0),
                        rng.uniform(-15.0, h + 15.0)});
      } else {  // star-shaped around (cx, cy)
        const double a = 2.0 * M_PI * i / n;
        const double r = rng.uniform(2.0, 30.0);
        poly.push_back({cx + r * std::cos(a), cy + r * std::sin(a)});
      }
    }
    if (rng.chance(0.2)) poly.push_back({0.5 * w, 1e12});  // far off frame
    expect_same(rasterize_polygon(poly, w, h), dense_rasterize(poly, w, h),
                "polygon trial " + std::to_string(trial));
  }
}

TEST(MaskEquivalence, OnePassExtractionMatchesPerIdMasks) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const int w = 1 + below(rng, 50);
    const int h = 1 + below(rng, 50);
    IdImage ids(w, h, 0);
    const std::uint16_t palette[] = {1, 2, 7, 300, 65535};
    const int rects = below(rng, 8);
    for (int r = 0; r < rects; ++r) {
      const auto id = palette[rng.uniform_int(5)];
      const int x0 = below(rng, w);
      const int y0 = below(rng, h);
      const int x1 = std::min(w, x0 + 1 + below(rng, 20));
      const int y1 = std::min(h, y0 + 1 + below(rng, 20));
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) ids.at(x, y) = id;
      }
    }
    const auto all = masks_from_id_image(ids);
    std::vector<int> present;
    for (const auto id : palette) {
      DenseMask want(w, h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) want.set(x, y, ids.at(x, y) == id);
      }
      const auto single = mask_from_id_image(ids, id);
      EXPECT_EQ(single.instance_id, id);
      expect_same(single, want, "per-id " + std::to_string(id));
      const InstanceMask* found = find_instance(all, id);
      ASSERT_EQ(found != nullptr, dense_count(want) > 0);
      if (found == nullptr) continue;
      present.push_back(id);
      expect_same(*found, want, "one-pass " + std::to_string(id));
    }
    // Exactly the present ids, ascending, and never the background.
    ASSERT_EQ(all.size(), present.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i].instance_id, present[i]);
    }
    EXPECT_EQ(find_instance(all, 0), nullptr);
  }
}

TEST(MaskEquivalence, ContoursOfShapesThatReenterRows) {
  // Components whose 4-connected fill has to leave a row and come back
  // into it: diagonal-only contacts (separate components), holes and
  // islands, U shapes opening either way, combs and spirals.
  Rng rng(12);
  const std::vector<std::vector<std::string>> shapes = {
      {"#.#.#.", ".#.#.#", "#.#.#.", ".#.#.#"},
      {"#.....", ".#....", "..#...", "...#..", "....##", "....##"},
      {"#######", "#.....#", "#.###.#", "#.#.#.#", "#.###.#", "#.....#",
       "#######"},
      {"#.....#", "#.....#", "#.....#", "#.....#", "#######"},
      {"#######", "#.....#", "#.....#", "#.....#", "#.....#"},
      {"#.#.#.#", "#.#.#.#", "#.#.#.#", "#######", "...#...", "#######",
       "#.#.#.#"},
      {"###.###", "#.#.#.#", "#.###.#", "#.....#", "#######"},
      {"..#..", ".#.#.", "#...#", ".#.#.", "..#.."},
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE("shape " + std::to_string(i));
    check_all_ops(from_rows(shapes[i]), rng);
  }
  for (const int size : {5, 9, 16, 31}) {
    SCOPED_TRACE("spiral " + std::to_string(size));
    check_all_ops(spiral(size), rng);
  }
  // Random sparse and dense speckle: many small components with diagonal
  // contacts, and large ones with holes.
  for (int trial = 0; trial < 60; ++trial) {
    const int w = 1 + below(rng, 30), h = 1 + below(rng, 30);
    const double p = trial % 2 == 0 ? 0.35 : 0.7;
    DenseMask d(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) d.set(x, y, rng.chance(p));
    }
    SCOPED_TRACE("speckle " + std::to_string(trial));
    check_all_ops(d, rng);
    if (HasFatalFailure()) return;
  }
}

TEST(MaskEquivalence, PolygonFillMatchesScanOverAllEdges) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int w = 37, h = 29;
  std::vector<Contour> polys = {
      // Horizontal edges, and vertices exactly on pixel-centre rows.
      {{2, 3}, {20, 3}, {20, 10.5}, {30, 10.5}, {30, 20}, {2, 20}},
      {{4.5, 2.5}, {30.5, 2.5}, {30.5, 12.5}, {18, 12.5}, {18, 24.5},
       {4.5, 24.5}},
      {{10, 0.5}, {25, 7.5}, {10, 14.5}, {25, 21.5}, {10, 28.5}, {2, 14.5}},
      // Self-intersecting: a bow tie and a pentagram.
      {{3, 3}, {30, 25}, {30, 3}, {3, 25}},
      {{18, 1}, {25, 27}, {3, 10}, {33, 10}, {11, 27}},
      // Far off the frame, wholly and partly.
      {{-900, -900}, {-800, -900}, {-850, -700}},
      {{-1e12, 5}, {1e12, 6}, {0, 20}},
      {{5, -1e15}, {30, 14}, {5, 1e15}},
      // Infinite and NaN vertices.
      {{5, 5}, {30, 5}, {inf, 20}, {5, 20}},
      {{5, 5}, {30, -inf}, {30, 20}, {5, 20}},
      {{5, 5}, {30, 8}, {20, inf}, {3, 22}},
      {{-inf, 10}, {30, 3}, {30, 25}},
      {{5, 5}, {nan, 10}, {30, 20}, {5, 25}},
      {{5, 5}, {20, nan}, {30, 20}},
      {{inf, inf}, {10, 10}, {-inf, -inf}, {20, 3}, {nan, nan}, {25, 25}},
      {{5, 5}, {inf, 5}, {inf, 20}, {5, 20}, {-inf, 12}},
  };
  Rng rng(40);
  const double specials[] = {inf, -inf, nan, 1e300, -1e300, 0.5, 14.5};
  for (int trial = 0; trial < 200; ++trial) {
    Contour poly;
    const int n = 3 + below(rng, 12);
    for (int i = 0; i < n; ++i) {
      edgeis::geom::Vec2 p{rng.uniform(-10.0, w + 10.0),
                           rng.uniform(-10.0, h + 10.0)};
      if (rng.chance(0.3)) p.y = std::round(p.y) + 0.5;  // on a centre row
      if (rng.chance(0.1)) p.x = specials[rng.uniform_int(7)];
      if (rng.chance(0.1)) p.y = specials[rng.uniform_int(7)];
      poly.push_back(p);
    }
    if (rng.chance(0.3) && n > 3) poly[1].y = poly[0].y;  // a level edge
    polys.push_back(poly);
  }
  for (std::size_t i = 0; i < polys.size(); ++i) {
    expect_same_mask(rasterize_polygon(polys[i], w, h),
                     scan_all_edges_rasterize(polys[i], w, h),
                     "polygon " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}
