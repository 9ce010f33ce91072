// The ORB front end in row bands and index chunks. Internal to the
// features library: OrbExtractor::extract() is extract() with the band
// count that default_count() picks, and the tests pin other counts. No
// output depends on the count (DESIGN.md §9, "Band parallelism").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "features/descriptor.hpp"
#include "features/detector.hpp"
#include "features/feature.hpp"
#include "features/orb.hpp"
#include "image/image.hpp"

namespace edgeis::feat::bands {

/// The corners detect_fast finds in rows [y_begin, y_end) of `image`
/// before suppression, in row-major order: the first
/// out.size() of them go to `out`, and the return value is how many there
/// are. Allocates nothing.
std::size_t scan_fast(const img::GrayImage& image, const DetectorOptions& opts,
                      int y_begin, int y_end, std::span<Corner> out);

/// detect_fast's non-maximum suppression and grid retention: sorts `raw`
/// by score and appends the survivors to `kept`, angle unset. std::sort is
/// not stable, so the survivors depend on the order `raw` comes in (and
/// not on its element type: the sort's moves follow its comparisons).
void suppress_and_retain(const img::GrayImage& image,
                         const DetectorOptions& opts, std::span<Corner> raw,
                         std::vector<Keypoint>& kept);

/// The FAST band count of the front end: 1 on a one-lane pool, else a few
/// per lane.
int default_count();

/// OrbExtractor::extract with `bands` >= 1 FAST bands per pyramid level,
/// using `scratch` for its buffers.
std::vector<Feature> extract(const OrbOptions& opts,
                             const BriefDescriptorExtractor& brief,
                             OrbScratch& scratch, const img::GrayImage& image,
                             int bands);

}  // namespace edgeis::feat::bands
