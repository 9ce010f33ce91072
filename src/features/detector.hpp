// FAST-style segment-test corner detector with non-maximum suppression and
// grid-bucketed retention to spread keypoints across the frame (as
// ORB-SLAM's extractor does). Feeds the VO front end.
#pragma once

#include <vector>

#include "features/feature.hpp"
#include "image/image.hpp"

namespace edgeis::feat {

struct DetectorOptions {
  int threshold = 12;        // intensity contrast for the segment test
  int min_consecutive = 9;   // FAST-9
  int nms_radius = 4;        // non-max suppression radius (pixels)
  int grid_cols = 16;        // retention grid
  int grid_rows = 12;
  int max_per_cell = 6;      // keep top-N by score per grid cell
};

/// A segment-test corner before suppression, at pixel (x, y). A third of
/// a Keypoint's size: a frame's scan yields thousands.
struct Corner {
  float score;
  int x, y;
};

/// Detect corners on a single image. Keypoint positions are in this image's
/// pixel coordinates; the caller scales for pyramid levels. A compass
/// prefilter (16 pixels per step where SSE2 is available) passes few
/// pixels to the full segment test, which runs on 16-bit arc masks.
std::vector<Keypoint> detect_fast(const img::GrayImage& image,
                                  const DetectorOptions& opts = {});

/// Intensity-centroid orientation (ORB): angle of the patch first moment.
/// Pixels past the border are read clamped.
float compute_orientation(const img::GrayImage& image, int x, int y,
                          int radius = 7);

}  // namespace edgeis::feat
