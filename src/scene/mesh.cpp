#include "scene/mesh.hpp"

#include <algorithm>
#include <cmath>

namespace edgeis::scene {
namespace {

void add_quad(Mesh& m, const geom::Vec3& p0, const geom::Vec3& p1,
              const geom::Vec3& p2, const geom::Vec3& p3) {
  const auto base = static_cast<std::uint32_t>(m.vertices.size());
  m.vertices.push_back(p0);
  m.vertices.push_back(p1);
  m.vertices.push_back(p2);
  m.vertices.push_back(p3);
  m.triangles.push_back({base, base + 1, base + 2});
  m.triangles.push_back({base, base + 2, base + 3});
}

}  // namespace

Mesh make_box(double sx, double sy, double sz) {
  const double x = sx / 2, y = sy / 2, z = sz / 2;
  Mesh m;
  m.vertices.reserve(24);
  m.triangles.reserve(12);
  // +z face
  add_quad(m, {-x, -y, z}, {x, -y, z}, {x, y, z}, {-x, y, z});
  // -z face
  add_quad(m, {x, -y, -z}, {-x, -y, -z}, {-x, y, -z}, {x, y, -z});
  // +x face
  add_quad(m, {x, -y, z}, {x, -y, -z}, {x, y, -z}, {x, y, z});
  // -x face
  add_quad(m, {-x, -y, -z}, {-x, -y, z}, {-x, y, z}, {-x, y, -z});
  // +y face
  add_quad(m, {-x, y, z}, {x, y, z}, {x, y, -z}, {-x, y, -z});
  // -y face
  add_quad(m, {-x, -y, -z}, {x, -y, -z}, {x, -y, z}, {-x, -y, z});
  return m;
}

Mesh make_cylinder(double radius, double height, int segments) {
  Mesh m;
  // Per segment: a side quad and two cap triangles.
  const auto n = static_cast<std::size_t>(std::max(segments, 0));
  m.vertices.reserve(10 * n);
  m.triangles.reserve(4 * n);
  const double h = height / 2;
  // Segment i's trailing edge at angle(i + 1) is segment i + 1's leading
  // edge: the same expression, so its cos and sin carry over.
  const auto angle = [segments](int i) { return 2.0 * M_PI * i / segments; };
  double cos0 = std::cos(angle(0));
  double sin0 = std::sin(angle(0));
  for (int i = 0; i < segments; ++i) {
    const double cos1 = std::cos(angle(i + 1));
    const double sin1 = std::sin(angle(i + 1));
    const geom::Vec3 b0{radius * cos0, -h, radius * sin0};
    const geom::Vec3 b1{radius * cos1, -h, radius * sin1};
    cos0 = cos1;
    sin0 = sin1;
    const geom::Vec3 t0{b0.x, h, b0.z};
    const geom::Vec3 t1{b1.x, h, b1.z};
    add_quad(m, b0, b1, t1, t0);
    // Caps (fan around the axis).
    const auto base = static_cast<std::uint32_t>(m.vertices.size());
    m.vertices.push_back({0, h, 0});
    m.vertices.push_back(t0);
    m.vertices.push_back(t1);
    m.triangles.push_back({base, base + 1, base + 2});
    const auto base2 = static_cast<std::uint32_t>(m.vertices.size());
    m.vertices.push_back({0, -h, 0});
    m.vertices.push_back(b1);
    m.vertices.push_back(b0);
    m.triangles.push_back({base2, base2 + 1, base2 + 2});
  }
  return m;
}

Mesh make_tube(double radius, double length, int segments) {
  Mesh cyl = make_cylinder(radius, length, segments);
  // Rotate axis from +y to +x: (x, y, z) -> (y, -x, z).
  for (auto& v : cyl.vertices) {
    v = {v.y, -v.x, v.z};
  }
  return cyl;
}

Mesh make_separator() {
  Mesh m = make_tube(0.5, 2.2, 10);
  // Raise the tank and add two legs.
  for (auto& v : m.vertices) v.y += 0.9;
  Mesh leg = make_box(0.18, 0.9, 0.18);
  Mesh l1 = leg;
  for (auto& v : l1.vertices) {
    v.x -= 0.7;
    v.y += 0.45;
  }
  Mesh l2 = leg;
  for (auto& v : l2.vertices) {
    v.x += 0.7;
    v.y += 0.45;
  }
  m.append(l1);
  m.append(l2);
  return m;
}

Mesh make_car() {
  Mesh body = make_box(1.8, 0.55, 0.9);
  for (auto& v : body.vertices) v.y += 0.45;
  Mesh cabin = make_box(0.95, 0.42, 0.82);
  for (auto& v : cabin.vertices) {
    v.x -= 0.15;
    v.y += 0.93;
  }
  body.append(cabin);
  return body;
}

Mesh make_room(double sx, double sy, double sz) {
  const double x = sx / 2, z = sz / 2;
  Mesh m;
  // Floor (normal up).
  add_quad(m, {-x, 0, -z}, {x, 0, -z}, {x, 0, z}, {-x, 0, z});
  // Back wall at -z (faces +z).
  add_quad(m, {-x, 0, -z}, {-x, sy, -z}, {x, sy, -z}, {x, 0, -z});
  // Side wall at -x (faces +x).
  add_quad(m, {-x, 0, z}, {-x, sy, z}, {-x, sy, -z}, {-x, 0, -z});
  // Side wall at +x (faces -x).
  add_quad(m, {x, 0, -z}, {x, sy, -z}, {x, sy, z}, {x, 0, z});
  return m;
}

}  // namespace edgeis::scene
