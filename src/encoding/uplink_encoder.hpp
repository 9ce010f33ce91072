// The uplink send policy: what the mobile side puts on the wire for one
// keyframe. In full mode (EncodingConfig::uplink) it reproduces the
// original inline CFRS path byte-for-byte (every transfer re-sends the
// whole encoded frame); in delta mode it keeps a mirror of the edge's
// per-session Canvas and ships only the tiles that diverge from the
// pose-warped canvas — residual-gated, age-bounded, and stepped down
// under link congestion.
#pragma once

#include <cstdint>
#include <vector>

#include "encoding/canvas.hpp"
#include "encoding/tiles.hpp"
#include "image/image.hpp"
#include "mask/mask.hpp"

namespace edgeis::enc {

enum class UplinkMode { kFull, kDelta };

/// The encoding config block (PipelineConfig::encoding): tile geometry
/// and uplink mode. The delta encoder's skip/refresh/congestion policy
/// is fixed (UplinkEncoder::plan).
struct EncodingConfig {
  EncoderOptions tiles;
  UplinkMode uplink = UplinkMode::kFull;
};

struct UplinkFrameInput {
  int frame_index = 0;
  int width = 0;
  int height = 0;
  /// Current frame pixels for residual computation; null falls back to a
  /// full send (the delta encoder cannot judge tile change without them).
  const img::GrayImage* intensity = nullptr;
  const std::vector<mask::InstanceMask>* prior_masks = nullptr;
  const std::vector<mask::Box>* new_areas = nullptr;
  bool cfrs_enabled = true;
  bool full_quality = false;  // uniform high-quality refresh frame
  /// Global pixel shift predicted by the VO pose since the last
  /// transmission (how far last frame's content moved in this frame).
  double warp_dx_px = 0.0;
  double warp_dy_px = 0.0;
  bool warp_valid = false;
  /// Live link pressure, >= 1 (1 = healthy).
  double congestion = 1.0;
};

/// One planned transmission. For a delta, `encoded` holds only the sent
/// tiles (total_bytes = bytes actually on the wire) and `delta` is the
/// update the edge must apply; `content_quality` is what the edge-side
/// reconstruction will be worth (from the mirror canvas), which for a
/// delta is NOT encoded.content_quality.
struct UplinkPlan {
  EncodedFrame encoded;
  bool is_delta = false;
  CanvasDelta delta;
  std::uint32_t epoch = 0;  // 0 = no canvas semantics (full mode)
  double content_quality = 1.0;
  int tiles_sent = 0;
  int tiles_reused = 0;
};

class UplinkEncoder {
 public:
  explicit UplinkEncoder(EncodingConfig cfg) : cfg_(cfg) {}
  /// Full mode: CFRS tile selection per transfer (or uniform high quality
  /// for refreshes), whole frame every time. Delta mode: a delta against
  /// the mirror canvas when it can, else a full keyframe that re-seeds it.
  UplinkPlan plan(const UplinkFrameInput& in);
  /// The edge's canvas can no longer be assumed to match the mirror
  /// (resync response, failed/abandoned request, tracker reset): the next
  /// delta-mode plan must be a full keyframe.
  void mark_diverged() { diverged_ = true; }

 private:
  UplinkPlan plan_full(const UplinkFrameInput& in, EncodedFrame encoded);

  EncodingConfig cfg_;
  Canvas mirror_;
  img::GrayImage ref_;  // what the edge canvas's pixels look like
  std::uint32_t epoch_ = 0;
  bool diverged_ = false;
};

}  // namespace edgeis::enc
