#include "segnet/model.hpp"

#include <algorithm>
#include <cmath>

#include "segnet/corrupt.hpp"

namespace edgeis::segnet {

ModelProfile mask_rcnn_profile() {
  ModelProfile p;
  p.name = "mask-rcnn-r101-fpn";
  p.produces_masks = true;
  // Full frame 640x480: ~77k anchors -> RPN ~160 ms (60 fixed + 100
  // per-anchor); ~300 RoIs through both heads -> ~190 ms; backbone ~50 ms.
  // Total ~400 ms (Fig. 2b).
  p.backbone_ms = 50.0;
  p.rpn_fixed_ms = 60.0;
  p.rpn_us_per_anchor = 1.30;
  p.head_us_per_roi = 300.0;
  p.mask_head_us_per_roi = 330.0;
  p.mask_quality = 0.92;
  p.quality_jitter = 0.025;
  p.base_miss_rate = 0.02;
  return p;
}

ModelProfile yolact_profile() {
  ModelProfile p;
  p.name = "yolact-r50";
  p.produces_masks = true;
  // Single-stage: cheap per-anchor head, no heavy per-RoI second stage.
  // ~120 ms full frame, mask quality ~0.75 (Fig. 2b).
  p.backbone_ms = 35.0;
  p.rpn_fixed_ms = 25.0;
  p.rpn_us_per_anchor = 0.5;
  p.head_us_per_roi = 40.0;
  p.mask_head_us_per_roi = 45.0;
  p.mask_quality = 0.75;
  p.quality_jitter = 0.06;
  p.base_miss_rate = 0.05;
  p.small_object_miss_boost = 0.35;
  return p;
}

ModelProfile yolov3_profile() {
  ModelProfile p;
  p.name = "yolov3";
  p.produces_masks = false;  // detection only: mask = filled box
  // <30 ms full frame; box accuracy ~0.98 (Fig. 2b).
  p.backbone_ms = 12.0;
  p.rpn_fixed_ms = 5.0;
  p.rpn_us_per_anchor = 0.12;
  p.head_us_per_roi = 8.0;
  p.mask_head_us_per_roi = 0.0;
  p.mask_quality = 0.98;  // interpreted as box-fit quality
  p.quality_jitter = 0.01;
  p.base_miss_rate = 0.02;
  return p;
}

SegmentationModel::SegmentationModel(ModelProfile profile, rt::Rng rng)
    : profile_(std::move(profile)), rng_(rng) {}

namespace {

/// Objectness of an anchor: best IoU against any oracle box (stand-in for
/// the learned RPN score), with noise.
double score_anchor(const mask::Box& box,
                    const std::vector<OracleInstance>& oracle, double noise,
                    rt::Rng& rng, int* matched) {
  double best = 0.0;
  *matched = 0;
  for (const auto& inst : oracle) {
    const double iou = box.iou(inst.box);
    if (iou > best) {
      best = iou;
      *matched = inst.instance_id;
    }
  }
  return std::clamp(best + rng.normal(0.0, noise), 0.0, 1.0);
}

int region_group_of(const mask::Box& box,
                    const std::vector<InstancePrior>& priors, int margin,
                    int width, int height) {
  int best = -1;
  double best_iou = 0.0;
  for (std::size_t i = 0; i < priors.size(); ++i) {
    const mask::Box inflated =
        priors[i].initial_box.inflated(margin, width, height);
    const double iou = box.iou(inflated);
    if (iou > best_iou) {
      best_iou = iou;
      best = static_cast<int>(i);
    }
  }
  return best_iou > 0.1 ? best : -1;
}

}  // namespace

InferenceResult SegmentationModel::infer(const InferenceRequest& request) {
  InferenceResult result;
  InferenceStats& stats = result.stats;
  const auto levels = default_fpn_levels();

  // ---- Stage 1a: anchor placement. ---------------------------------------
  std::vector<Anchor> anchors;
  std::vector<mask::Box> regions;
  if (request.use_dynamic_anchor_placement &&
      (!request.priors.empty() || !request.new_areas.empty())) {
    for (const auto& p : request.priors) {
      regions.push_back(p.initial_box.inflated(request.prior_margin,
                                               request.width, request.height));
    }
    for (const auto& b : request.new_areas) regions.push_back(b);
    anchors = generate_anchors_in_regions(request.width, request.height,
                                          levels, regions);
  } else {
    regions.push_back({0, 0, request.width, request.height});
    anchors = generate_full_anchors(request.width, request.height, levels);
  }
  stats.anchors_evaluated = static_cast<int>(anchors.size());
  stats.backbone_ms = profile_.backbone_ms;
  stats.rpn_ms = profile_.rpn_fixed_ms +
                 static_cast<double>(anchors.size()) *
                     profile_.rpn_us_per_anchor / 1000.0;

  // ---- Stage 1b: proposal scoring + selection. ----------------------------
  std::vector<Proposal> proposals;
  proposals.reserve(anchors.size() / 8);
  for (const auto& a : anchors) {
    int matched = 0;
    const double score = score_anchor(a.box, request.oracle,
                                      profile_.confidence_noise, rng_,
                                      &matched);
    if (score < 0.25) continue;  // RPN keeps plausibly-object anchors
    Proposal p;
    // Box regression: blend the anchor toward the matched oracle box; the
    // blend quality grows with overlap, as regression does in practice.
    const OracleInstance* inst = nullptr;
    for (const auto& oi : request.oracle) {
      if (oi.instance_id == matched) inst = &oi;
    }
    if (inst != nullptr) {
      const double alpha = std::clamp(score + 0.25, 0.0, 1.0);
      auto blend = [&](int av, int gv) {
        return static_cast<int>(std::lround(av + alpha * (gv - av)));
      };
      p.box = {blend(a.box.x0, inst->box.x0), blend(a.box.y0, inst->box.y0),
               blend(a.box.x1, inst->box.x1), blend(a.box.y1, inst->box.y1)};
      p.class_id = inst->class_id;
    } else {
      p.box = a.box;
    }
    p.objectness = score;
    p.matched_instance = matched;
    p.region_group = region_group_of(p.box, request.priors,
                                     request.prior_margin, request.width,
                                     request.height);
    proposals.push_back(p);
  }

  // Clutter proposals: textured background spuriously scoring object-like,
  // at a fixed density per covered area. They are classified background by
  // the second stage (never emitted as instances) but cost head time and
  // load NMS / pruning — exactly the burden CIIA exists to shed.
  double covered_mpix = 0.0;
  for (const auto& r : regions) {
    covered_mpix += static_cast<double>(r.area()) / 1.0e6;
  }
  const int n_clutter = static_cast<int>(
      std::lround(profile_.clutter_per_mpix * covered_mpix));
  for (int i = 0; i < n_clutter && !regions.empty(); ++i) {
    const auto& r = regions[rng_.uniform_int(regions.size())];
    if (r.empty()) continue;
    const double size = std::exp(rng_.uniform(std::log(24.0), std::log(160.0)));
    const double cx = rng_.uniform(r.x0, r.x1);
    const double cy = rng_.uniform(r.y0, r.y1);
    Proposal p;
    p.box = mask::Box{static_cast<int>(cx - size / 2),
                      static_cast<int>(cy - size / 2),
                      static_cast<int>(cx + size / 2),
                      static_cast<int>(cy + size / 2)}
                .intersect({0, 0, request.width, request.height});
    if (p.box.empty()) continue;
    p.objectness = rng_.uniform(0.25, 0.65);
    p.matched_instance = 0;
    p.region_group = region_group_of(p.box, request.priors,
                                     request.prior_margin, request.width,
                                     request.height);
    proposals.push_back(p);
  }
  stats.proposals_pre_nms = static_cast<int>(proposals.size());

  // Keep pre-NMS top-N, standard RPN behaviour.
  if (static_cast<int>(proposals.size()) > profile_.pre_nms_top_n) {
    std::nth_element(proposals.begin(),
                     proposals.begin() + profile_.pre_nms_top_n,
                     proposals.end(),
                     [](const Proposal& a, const Proposal& b) {
                       return a.objectness > b.objectness;
                     });
    proposals.resize(static_cast<std::size_t>(profile_.pre_nms_top_n));
  }
  std::vector<Proposal> rois =
      nms(std::move(proposals), profile_.nms_iou, profile_.post_nms_top_n);
  stats.rois_after_selection = static_cast<int>(rois.size());

  // Second-stage class confidence.
  for (auto& r : rois) {
    r.confidence = std::clamp(
        0.4 + 0.6 * r.objectness + rng_.normal(0.0, profile_.confidence_noise),
        0.0, 1.0);
  }
  stats.head_ms = static_cast<double>(rois.size()) *
                  profile_.head_us_per_roi / 1000.0;

  // ---- RoI pruning (Section IV-B). ----------------------------------------
  std::vector<Proposal> mask_rois;
  if (request.use_roi_pruning && !request.priors.empty()) {
    // Group RoIs by prior region; within each group, sort by confidence and
    // prune any RoI dominated by one with both higher confidence and higher
    // IoU with the initial box.
    for (std::size_t g = 0; g < request.priors.size(); ++g) {
      std::vector<Proposal> group;
      for (const auto& r : rois) {
        if (r.region_group == static_cast<int>(g)) group.push_back(r);
      }
      std::sort(group.begin(), group.end(),
                [](const Proposal& a, const Proposal& b) {
                  return a.confidence > b.confidence;
                });
      const mask::Box& initial = request.priors[g].initial_box;
      std::vector<double> iou_with_initial(group.size());
      for (std::size_t i = 0; i < group.size(); ++i) {
        iou_with_initial[i] = group[i].box.iou(initial);
      }
      for (std::size_t i = 0; i < group.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < i; ++j) {  // j has higher confidence
          if (iou_with_initial[j] > iou_with_initial[i]) {
            dominated = true;
            break;
          }
        }
        if (!dominated) mask_rois.push_back(group[i]);
      }
    }
    // Unknown-area RoIs: Fast NMS.
    std::vector<Proposal> unknown;
    for (const auto& r : rois) {
      if (r.region_group < 0) unknown.push_back(r);
    }
    auto kept = fast_nms(std::move(unknown), 0.5, 50);
    mask_rois.insert(mask_rois.end(), kept.begin(), kept.end());
  } else {
    mask_rois = rois;
  }
  stats.rois_after_pruning = static_cast<int>(mask_rois.size());
  stats.mask_head_ms = static_cast<double>(mask_rois.size()) *
                       profile_.mask_head_us_per_roi / 1000.0;

  // ---- Output synthesis: best RoI per oracle instance -> corrupted mask.
  for (const auto& inst : request.oracle) {
    // Miss model: small objects and heavily compressed content are missed
    // more often.
    const double size = std::sqrt(static_cast<double>(inst.box.area()));
    double miss = profile_.base_miss_rate;
    if (size < 32.0) miss += profile_.small_object_miss_boost;
    miss += 0.3 * std::max(0.0, 0.5 - request.content_quality);
    if (rng_.chance(miss)) continue;

    const Proposal* best = nullptr;
    for (const auto& r : mask_rois) {
      if (r.matched_instance != inst.instance_id) continue;
      if (best == nullptr || r.confidence > best->confidence) best = &r;
    }
    if (best == nullptr) continue;
    if (best->box.iou(inst.box) < 0.3) continue;  // localization failure

    InstanceResult out;
    out.class_id = inst.class_id;
    out.instance_id = inst.instance_id;
    out.confidence = best->confidence;
    out.box = best->box;
    if (profile_.produces_masks) {
      const double degradation =
          0.12 * std::max(0.0, 1.0 - request.content_quality);
      const double target = std::clamp(
          profile_.mask_quality - degradation +
              rng_.normal(0.0, profile_.quality_jitter),
          0.35, 0.995);
      out.mask = corrupt_mask(inst.mask, target, rng_);
    } else {
      // Detection-only model: the "mask" is the filled detection box.
      const mask::Box filled =
          best->box.intersect({0, 0, request.width, request.height});
      out.mask = filled.empty()
                     ? mask::InstanceMask(request.width, request.height)
                     : mask::InstanceMask(
                           request.width, request.height, filled,
                           img::Image<std::uint8_t>(filled.width(),
                                                    filled.height(), 1));
      out.mask.class_id = inst.class_id;
      out.mask.instance_id = inst.instance_id;
    }
    result.instances.push_back(std::move(out));
  }
  return result;
}

}  // namespace edgeis::segnet
