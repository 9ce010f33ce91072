// Triangle meshes for the synthetic world: shape generators for the object
// types the datasets need (boxes/crates, cylinders standing in for people,
// tubes, oil separators, cars built from boxes, and the room shell that
// provides textured background).
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/vec.hpp"

namespace edgeis::scene {

struct Triangle {
  std::uint32_t a, b, c;
};

struct Mesh {
  std::vector<geom::Vec3> vertices;  // object-local coordinates
  std::vector<Triangle> triangles;

  void append(const Mesh& other) {
    const auto base = static_cast<std::uint32_t>(vertices.size());
    triangles.reserve(triangles.size() + other.triangles.size());
    vertices.insert(vertices.end(), other.vertices.begin(),
                    other.vertices.end());
    for (const auto& t : other.triangles) {
      triangles.push_back({t.a + base, t.b + base, t.c + base});
    }
  }
};

/// Axis-aligned box centered at the origin, outward-facing triangles.
Mesh make_box(double sx, double sy, double sz);

/// Vertical cylinder (axis = +y) centered at origin; `segments` sides.
Mesh make_cylinder(double radius, double height, int segments = 12);

/// Horizontal tube (axis = +x): a cylinder rotated onto its side.
Mesh make_tube(double radius, double length, int segments = 10);

/// "Oil separator": a horizontal tank (tube) on two box legs — the shape
/// the paper's industrial-inspection scenario segments.
Mesh make_separator();

/// Simple car silhouette: body box + cabin box.
Mesh make_car();

/// Room shell: floor + two walls with inward-facing triangles, sized
/// (sx, sy, sz) and centered at the origin at floor level y = 0.
Mesh make_room(double sx, double sy, double sz);

}  // namespace edgeis::scene
