// SO(3) and SE(3) utilities: Rodrigues exponential/logarithm maps and rigid
// transforms. SE3 represents T = [R | t]: X_out = R * X_in + t. We follow
// the paper's notation where T_cw maps world coordinates to camera
// coordinates.
#pragma once

#include <cmath>

#include "geometry/vec.hpp"

namespace edgeis::geom {

/// Rodrigues' formula: exp of an so(3) vector to a rotation matrix.
inline Mat3 so3_exp(const Vec3& w) {
  const double theta = w.norm();
  if (theta < 1e-12) {
    // First-order approximation near identity.
    return Mat3::identity() + Mat3::hat(w);
  }
  const Vec3 axis = w / theta;
  const Mat3 K = Mat3::hat(axis);
  const double s = std::sin(theta);
  const double c = std::cos(theta);
  return Mat3::identity() + K * s + (K * K) * (1.0 - c);
}

/// Log map: rotation matrix to so(3) vector. Assumes R is a proper rotation.
inline Vec3 so3_log(const Mat3& R) {
  const double cos_theta = std::min(1.0, std::max(-1.0, (R.trace() - 1.0) / 2.0));
  const double theta = std::acos(cos_theta);
  if (theta < 1e-10) {
    return {(R(2, 1) - R(1, 2)) / 2.0, (R(0, 2) - R(2, 0)) / 2.0,
            (R(1, 0) - R(0, 1)) / 2.0};
  }
  if (theta > M_PI - 1e-6) {
    // Near pi: extract axis from R + I.
    Vec3 axis;
    const double xx = (R(0, 0) + 1.0) / 2.0;
    const double yy = (R(1, 1) + 1.0) / 2.0;
    const double zz = (R(2, 2) + 1.0) / 2.0;
    if (xx >= yy && xx >= zz) {
      axis.x = std::sqrt(std::max(0.0, xx));
      axis.y = R(0, 1) / (2.0 * axis.x);
      axis.z = R(0, 2) / (2.0 * axis.x);
    } else if (yy >= zz) {
      axis.y = std::sqrt(std::max(0.0, yy));
      axis.x = R(0, 1) / (2.0 * axis.y);
      axis.z = R(1, 2) / (2.0 * axis.y);
    } else {
      axis.z = std::sqrt(std::max(0.0, zz));
      axis.x = R(0, 2) / (2.0 * axis.z);
      axis.y = R(1, 2) / (2.0 * axis.z);
    }
    return axis.normalized() * theta;
  }
  const double k = theta / (2.0 * std::sin(theta));
  return {k * (R(2, 1) - R(1, 2)), k * (R(0, 2) - R(2, 0)),
          k * (R(1, 0) - R(0, 1))};
}

/// Re-orthonormalize a near-rotation matrix (Gram–Schmidt on rows).
inline Mat3 orthonormalize(const Mat3& R) {
  Vec3 r0 = R.row(0).normalized();
  Vec3 r1 = R.row(1) - r0 * R.row(1).dot(r0);
  r1 = r1.normalized();
  Vec3 r2 = r0.cross(r1);
  Mat3 out;
  out.m = {r0.x, r0.y, r0.z, r1.x, r1.y, r1.z, r2.x, r2.y, r2.z};
  return out;
}

/// Rigid transform: X_out = R * X_in + t.
struct SE3 {
  Mat3 R = Mat3::identity();
  Vec3 t{};

  constexpr SE3() = default;
  constexpr SE3(const Mat3& R_, const Vec3& t_) : R(R_), t(t_) {}

  static constexpr SE3 identity() { return SE3{}; }

  constexpr Vec3 operator*(const Vec3& p) const { return R * p + t; }

  /// Composition: (A*B)(x) = A(B(x)).
  constexpr SE3 operator*(const SE3& o) const {
    return SE3{R * o.R, R * o.t + t};
  }

  [[nodiscard]] constexpr SE3 inverse() const {
    const Mat3 Rt = R.transpose();
    return SE3{Rt, -(Rt * t)};
  }

  /// Left-multiplicative update: T <- exp([w, v]) * T, with the translation
  /// part applied in the simple (non-twisted) convention used by our
  /// Gauss–Newton solver.
  void update_left(const Vec3& w, const Vec3& v) {
    R = orthonormalize(so3_exp(w) * R);
    t = so3_exp(w) * t + v;
  }

  /// Rotation angle (radians) between this transform and another.
  [[nodiscard]] double rotation_angle_to(const SE3& o) const {
    return so3_log(R.transpose() * o.R).norm();
  }

  /// Fractional power of the transform (screw-motion interpolation):
  /// pow(1) == *this, pow(0) == identity, pow(2) applies the motion twice.
  [[nodiscard]] SE3 pow(double alpha) const {
    const Vec3 w = so3_log(R) * alpha;
    return SE3{so3_exp(w), t * alpha};
  }
};

}  // namespace edgeis::geom
