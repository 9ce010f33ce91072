// Tests for the simulated segmentation models and CIIA: anchor generation,
// NMS variants, mask-corruption calibration (parameterized), dynamic anchor
// placement and RoI pruning.
#include <gtest/gtest.h>

#include <cmath>

#include "segnet/anchors.hpp"
#include "segnet/corrupt.hpp"
#include "segnet/model.hpp"

using namespace edgeis;
using namespace edgeis::segnet;

namespace {

mask::InstanceMask disk_mask(int w, int h, int cx, int cy, int r) {
  mask::InstanceMask m(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if ((x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r) m.set(x, y);
    }
  }
  return m;
}

InferenceRequest basic_request() {
  InferenceRequest req;
  req.width = 640;
  req.height = 480;
  OracleInstance a;
  a.mask = disk_mask(640, 480, 200, 240, 70);
  a.box = *a.mask.bounding_box();
  a.class_id = 1;
  a.instance_id = 1;
  OracleInstance b;
  b.mask = disk_mask(640, 480, 470, 200, 50);
  b.box = *b.mask.bounding_box();
  b.class_id = 3;
  b.instance_id = 2;
  req.oracle.push_back(std::move(a));
  req.oracle.push_back(std::move(b));
  return req;
}

}  // namespace

TEST(Anchors, FullFrameCountMatchesFpnGeometry) {
  const auto levels = default_fpn_levels();
  const auto anchors = generate_full_anchors(640, 480, levels);
  // Sum over levels of ceil(W/s)*ceil(H/s)*3.
  std::size_t expected = 0;
  for (const auto& l : levels) {
    const std::size_t nx = static_cast<std::size_t>((640 + l.stride - 1) / l.stride);
    const std::size_t ny = static_cast<std::size_t>((480 + l.stride - 1) / l.stride);
    expected += nx * ny * 3;
  }
  // Clipping can drop a handful of degenerate border anchors.
  EXPECT_NEAR(static_cast<double>(anchors.size()),
              static_cast<double>(expected), expected * 0.02);
}

TEST(Anchors, FullSetKeepsItsAnchorsAndOrder) {
  // The generator as a plain loop, growing its vector as it goes.
  auto reference = [](int width, int height,
                      const std::vector<FpnLevel>& levels) {
    std::vector<Anchor> out;
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const auto& lvl = levels[li];
      for (int y = lvl.stride / 2; y < height; y += lvl.stride) {
        for (int x = lvl.stride / 2; x < width; x += lvl.stride) {
          for (const double ratio : kAspectRatios) {
            const double w = lvl.anchor_size * std::sqrt(ratio);
            const double h = lvl.anchor_size / std::sqrt(ratio);
            mask::Box b{static_cast<int>(x - w / 2),
                        static_cast<int>(y - h / 2),
                        static_cast<int>(x + w / 2),
                        static_cast<int>(y + h / 2)};
            b = b.intersect({0, 0, width, height});
            if (!b.empty()) out.push_back({b, static_cast<int>(li)});
          }
        }
      }
    }
    return out;
  };
  const auto levels = default_fpn_levels();
  for (const auto& [w, h] : {std::pair{640, 480}, std::pair{641, 479},
                             std::pair{33, 2}, std::pair{1, 1},
                             std::pair{0, 480}}) {
    const auto got = generate_full_anchors(w, h, levels);
    const auto want = reference(w, h, levels);
    ASSERT_EQ(got.size(), want.size()) << w << "x" << h;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].box, want[i].box) << w << "x" << h << " at " << i;
      ASSERT_EQ(got[i].level, want[i].level) << w << "x" << h << " at " << i;
    }
  }
  EXPECT_EQ(generate_full_anchors(640, 480, levels).size(), 76710u);
}

TEST(Anchors, RegionsShrinkAnchorSet) {
  const auto levels = default_fpn_levels();
  const auto full = generate_full_anchors(640, 480, levels);
  const std::vector<mask::Box> regions = {{100, 100, 260, 260}};
  const auto dap = generate_anchors_in_regions(640, 480, levels, regions);
  EXPECT_LT(dap.size(), full.size() / 4);
  EXPECT_GT(dap.size(), 0u);
  // All anchors must overlap the region (allowing anchor extent).
  const mask::Box inflated = regions[0].inflated(256, 640, 480);
  for (const auto& a : dap) {
    EXPECT_FALSE(a.box.intersect(inflated).empty());
  }
}

TEST(Anchors, LevelSelectionByRegionSize) {
  const auto levels = default_fpn_levels();
  // Tiny region: only fine levels contribute.
  const std::vector<mask::Box> small_region = {{100, 100, 130, 130}};
  const auto anchors =
      generate_anchors_in_regions(640, 480, levels, small_region);
  for (const auto& a : anchors) {
    EXPECT_LE(levels[static_cast<std::size_t>(a.level)].anchor_size, 128.0);
  }
}

TEST(Nms, SuppressesOverlaps) {
  std::vector<Proposal> props(3);
  props[0].box = {0, 0, 100, 100};
  props[0].objectness = 0.9;
  props[1].box = {5, 5, 105, 105};  // heavy overlap with 0
  props[1].objectness = 0.8;
  props[2].box = {300, 300, 400, 400};
  props[2].objectness = 0.7;
  const auto kept = nms(props, 0.5, 10);
  EXPECT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].objectness, 0.9);
}

TEST(Nms, FastNmsAtLeastAsAggressive) {
  rt::Rng rng(3);
  std::vector<Proposal> props;
  for (int i = 0; i < 200; ++i) {
    Proposal p;
    const int x = static_cast<int>(rng.uniform_int(500));
    const int y = static_cast<int>(rng.uniform_int(350));
    p.box = {x, y, x + 80, y + 80};
    p.objectness = rng.uniform();
    props.push_back(p);
  }
  const auto std_kept = nms(props, 0.5, 1000);
  const auto fast_kept = fast_nms(props, 0.5, 1000);
  EXPECT_LE(fast_kept.size(), std_kept.size());
  EXPECT_GT(fast_kept.size(), 0u);
}

// ---- Parameterized corruption calibration sweep. --------------------------

class CorruptionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CorruptionSweep, MeasuredIouNearTarget) {
  const double target = GetParam();
  rt::Rng rng(11);
  const auto truth = disk_mask(640, 480, 320, 240, 90);
  double sum = 0.0;
  const int reps = 8;
  for (int i = 0; i < reps; ++i) {
    sum += corrupt_mask(truth, target, rng).iou(truth);
  }
  EXPECT_NEAR(sum / reps, target, 0.08);
}

INSTANTIATE_TEST_SUITE_P(QualityLevels, CorruptionSweep,
                         ::testing::Values(0.95, 0.9, 0.85, 0.8, 0.7, 0.6,
                                           0.5));

TEST(Corruption, MonotonicInTarget) {
  rt::Rng rng(13);
  const auto truth = disk_mask(640, 480, 320, 240, 80);
  double hi = 0.0, lo = 0.0;
  for (int i = 0; i < 6; ++i) {
    hi += corrupt_mask(truth, 0.95, rng).iou(truth);
    lo += corrupt_mask(truth, 0.55, rng).iou(truth);
  }
  EXPECT_GT(hi, lo);
}

TEST(Corruption, PreservesIdentity) {
  rt::Rng rng(17);
  auto truth = disk_mask(320, 240, 160, 120, 40);
  truth.class_id = 4;
  truth.instance_id = 9;
  const auto c = corrupt_mask(truth, 0.9, rng);
  EXPECT_EQ(c.class_id, 4);
  EXPECT_EQ(c.instance_id, 9);
}

TEST(Model, FullFrameDetectsAllInstances) {
  SegmentationModel model(mask_rcnn_profile(), rt::Rng(3));
  const auto req = basic_request();
  const auto result = model.infer(req);
  EXPECT_EQ(result.instances.size(), 2u);
  for (const auto& inst : result.instances) {
    const OracleInstance* oracle = nullptr;
    for (const auto& o : req.oracle) {
      if (o.instance_id == inst.instance_id) oracle = &o;
    }
    ASSERT_NE(oracle, nullptr);
    EXPECT_GT(inst.mask.iou(oracle->mask), 0.8);
    EXPECT_EQ(inst.class_id, oracle->class_id);
  }
}

TEST(Model, LatencyEnvelopesMatchFig2b) {
  const auto req = basic_request();
  SegmentationModel mrcnn(mask_rcnn_profile(), rt::Rng(5));
  SegmentationModel yolact(yolact_profile(), rt::Rng(5));
  SegmentationModel yolo(yolov3_profile(), rt::Rng(5));
  const double t_mrcnn = mrcnn.infer(req).stats.total_ms();
  const double t_yolact = yolact.infer(req).stats.total_ms();
  const double t_yolo = yolo.infer(req).stats.total_ms();
  EXPECT_NEAR(t_mrcnn, 400.0, 80.0);
  EXPECT_NEAR(t_yolact, 120.0, 40.0);
  EXPECT_LT(t_yolo, 35.0);
  EXPECT_GT(t_mrcnn, t_yolact);
  EXPECT_GT(t_yolact, t_yolo);
}

TEST(Model, DynamicAnchorPlacementReducesWork) {
  SegmentationModel model(mask_rcnn_profile(), rt::Rng(7));
  auto req = basic_request();
  const auto full = model.infer(req);
  for (const auto& o : req.oracle) {
    req.priors.push_back({o.box, o.class_id, o.instance_id});
  }
  req.use_dynamic_anchor_placement = true;
  const auto dap = model.infer(req);
  EXPECT_LT(dap.stats.anchors_evaluated, full.stats.anchors_evaluated / 2);
  EXPECT_LT(dap.stats.rpn_ms, full.stats.rpn_ms);
  EXPECT_EQ(dap.instances.size(), 2u);  // accuracy preserved
}

TEST(Model, RoiPruningShrinksMaskHeadSet) {
  SegmentationModel model(mask_rcnn_profile(), rt::Rng(9));
  auto req = basic_request();
  for (const auto& o : req.oracle) {
    req.priors.push_back({o.box, o.class_id, o.instance_id});
  }
  req.use_dynamic_anchor_placement = true;
  const auto dap_only = model.infer(req);
  req.use_roi_pruning = true;
  const auto pruned = model.infer(req);
  EXPECT_LT(pruned.stats.rois_after_pruning,
            dap_only.stats.rois_after_pruning / 2);
  EXPECT_LT(pruned.stats.mask_head_ms, dap_only.stats.mask_head_ms);
  EXPECT_EQ(pruned.instances.size(), 2u);
}

TEST(Model, LowContentQualityDegradesMasks) {
  // Average over several runs: quality 1.0 should beat quality 0.3.
  double good = 0.0, bad = 0.0;
  const int reps = 6;
  for (int i = 0; i < reps; ++i) {
    SegmentationModel m1(mask_rcnn_profile(), rt::Rng(100 + static_cast<std::uint64_t>(i)));
    SegmentationModel m2(mask_rcnn_profile(), rt::Rng(100 + static_cast<std::uint64_t>(i)));
    auto req = basic_request();
    req.content_quality = 1.0;
    for (const auto& r : m1.infer(req).instances) {
      for (const auto& o : req.oracle) {
        if (o.instance_id == r.instance_id) good += r.mask.iou(o.mask);
      }
    }
    req.content_quality = 0.3;
    for (const auto& r : m2.infer(req).instances) {
      for (const auto& o : req.oracle) {
        if (o.instance_id == r.instance_id) bad += r.mask.iou(o.mask);
      }
    }
  }
  EXPECT_GT(good, bad);
}

TEST(Model, Yolov3ProducesBoxMasks) {
  SegmentationModel yolo(yolov3_profile(), rt::Rng(21));
  const auto req = basic_request();
  const auto result = yolo.infer(req);
  ASSERT_FALSE(result.instances.empty());
  for (const auto& inst : result.instances) {
    // A filled box has mask area equal to its bounding-box area.
    const auto bb = inst.mask.bounding_box();
    ASSERT_TRUE(bb.has_value());
    EXPECT_EQ(inst.mask.pixel_count(), bb->area());
  }
}

TEST(Model, DeterministicGivenSeed) {
  const auto req = basic_request();
  SegmentationModel a(mask_rcnn_profile(), rt::Rng(42));
  SegmentationModel b(mask_rcnn_profile(), rt::Rng(42));
  const auto ra = a.infer(req);
  const auto rb = b.infer(req);
  ASSERT_EQ(ra.instances.size(), rb.instances.size());
  for (std::size_t i = 0; i < ra.instances.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.instances[i].mask.iou(rb.instances[i].mask), 1.0);
  }
  EXPECT_EQ(ra.stats.anchors_evaluated, rb.stats.anchors_evaluated);
}
