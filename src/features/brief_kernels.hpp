// The BRIEF samplers, interior and border, each in a scalar and an AVX2
// form. Internal to the features library: BriefDescriptorExtractor picks
// a form per call with rt::cpu_has_avx2(), and the tests compare the two
// forms bit for bit. The AVX2 forms exist only on x86-64; elsewhere they
// forward to the scalar forms, and nothing calls them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "features/feature.hpp"

namespace edgeis::feat::kernels {

/// The 256 comparison pairs of a BRIEF pattern as structure of arrays:
/// test i sets bit i when the sample at (ax[i], ay[i]) is darker than the
/// sample at (bx[i], by[i]), both rotated by the keypoint's angle.
inline constexpr std::size_t kBriefTests = 256;
struct BriefPattern {
  alignas(32) float ax[kBriefTests];
  alignas(32) float ay[kBriefTests];
  alignas(32) float bx[kBriefTests];
  alignas(32) float by[kBriefTests];
};

/// Descriptor of a keypoint at least the extractor's interior margin from
/// every border of the row-major `stride`-wide image at `data`: every
/// sample's 2x2 neighbourhood lies inside the image, at non-negative
/// coordinates. The AVX2 form also needs the image to be under 2^31 bytes
/// (its gather offsets are 32-bit).
Descriptor describe_interior_scalar(const BriefPattern& pattern,
                                    const std::uint8_t* data,
                                    std::size_t stride, const Keypoint& kp);
Descriptor describe_interior_avx2(const BriefPattern& pattern,
                                  const std::uint8_t* data,
                                  std::size_t stride, const Keypoint& kp);

/// Descriptor of any keypoint of the row-major `width` x `height` image
/// at `data`, sampled as img::Image::sample_bilinear samples: x0 =
/// floor(x), and x0, x0 + 1 (and the same for y) clamped into the image.
/// The AVX2 form reads only [data, data + width·height) and needs the
/// image to be at least 4 and under 2^31 bytes, and every sample's floor
/// to lie well inside int32 (a keypoint under 2^30 px from the origin).
Descriptor describe_border_scalar(const BriefPattern& pattern,
                                  const std::uint8_t* data, int width,
                                  int height, const Keypoint& kp);
Descriptor describe_border_avx2(const BriefPattern& pattern,
                                const std::uint8_t* data, int width,
                                int height, const Keypoint& kp);

}  // namespace edgeis::feat::kernels
