// Tests for device profiles, the mobile cost model and resource monitoring.
#include <gtest/gtest.h>

#include "sim/device.hpp"

using namespace edgeis;
using namespace edgeis::sim;

TEST(Devices, EdgeFasterThanMobile) {
  EXPECT_LT(jetson_tx2().model_compute_scale,
            iphone11().model_compute_scale);
  EXPECT_LT(jetson_agx_xavier().model_compute_scale,
            jetson_tx2().model_compute_scale);
}

TEST(Devices, MobileHasBattery) {
  EXPECT_GT(iphone11().battery_wh, 0.0);
  EXPECT_GT(galaxy_s10().battery_wh, 0.0);
  EXPECT_EQ(jetson_tx2().battery_wh, 0.0);  // mains powered
}

TEST(CostModel, ScalesWithWork) {
  MobileCostModel m;
  const double light = m.frame_ms(200, 50, 1, 100, 0);
  const double heavy = m.frame_ms(1000, 400, 4, 1500, 80);
  EXPECT_GT(heavy, light);
  EXPECT_GT(light, 5.0);   // base costs present
  EXPECT_LT(heavy, 60.0);  // sane ceiling for a mobile frame
}

TEST(CostModel, CalibratedNearPaperLatency) {
  // Typical edgeIS steady-state frame: ~900 features, ~300 matches,
  // device + 2 object solves, ~1500 contour points, no encode.
  MobileCostModel m;
  const double ms = m.frame_ms(900, 300, 3, 1500, 0);
  EXPECT_NEAR(ms, 28.0, 10.0);  // Fig. 11 reports 28 ms for edgeIS
}

TEST(ResourceMonitor, CpuUtilizationBounded) {
  ResourceMonitor mon(iphone11(), 30.0);
  for (int i = 0; i < 100; ++i) mon.record_frame(100.0, 1000, 0);
  EXPECT_DOUBLE_EQ(mon.mean_cpu_utilization(), 1.0);  // saturated
  ResourceMonitor mon2(iphone11(), 30.0);
  for (int i = 0; i < 100; ++i) mon2.record_frame(16.67, 1000, 0);
  EXPECT_NEAR(mon2.mean_cpu_utilization(), 0.5, 0.01);
}

TEST(ResourceMonitor, MemoryPeakTracked) {
  ResourceMonitor mon(iphone11(), 30.0);
  mon.record_frame(10, 1000, 0);
  mon.record_frame(10, 5000, 0);
  mon.record_frame(10, 2000, 0);
  EXPECT_EQ(mon.peak_memory_bytes(), 5000u);
}

TEST(ResourceMonitor, EnergyAccumulates) {
  ResourceMonitor mon(iphone11(), 30.0);
  for (int i = 0; i < 30 * 60; ++i) {  // one minute at 30 fps
    mon.record_frame(25.0, 1 << 20, 3000);
  }
  // Idle 0.9 W + ~75% busy of 2.6 W ~= 2.85 W for 60 s ~= 171 J.
  const double joules =
      mon.battery_percent() / 100.0 * iphone11().battery_wh * 3600.0;
  EXPECT_NEAR(joules, 171.0, 40.0);
  EXPECT_GT(mon.battery_percent(), 0.0);
  EXPECT_LT(mon.battery_percent(), 2.0);
}

TEST(ResourceMonitor, TenMinutePowerMatchesPaper) {
  // Paper VI-F2: ~4.2% battery in 10 minutes on iPhone 11 with CPU ~75%.
  ResourceMonitor mon(iphone11(), 30.0);
  for (int i = 0; i < 30 * 600; ++i) {
    mon.record_frame(25.0, 1 << 20, 2500);  // ~75% CPU + steady uplink
  }
  EXPECT_NEAR(mon.battery_percent(), 4.2, 1.5);
}

// ---- Discrete-event scheduler (sim/scheduler.hpp). --------------------------

#include <vector>

#include "sim/scheduler.hpp"

TEST(EventScheduler, DispatchesInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule(30.0, [&] { order.push_back(3); });
  sched.schedule(10.0, [&] { order.push_back(1); });
  sched.schedule(20.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now_ms(), 30.0);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.dispatched(), 3u);
}

TEST(EventScheduler, EqualTimesAreFifo) {
  // Ties resolve in scheduling order — this is what makes an N-client
  // fleet deterministic when every client ticks at the same frame
  // boundary.
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule(100.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, PastTimesClampToNow) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule(50.0, [&] {
    order.push_back(1);
    // Scheduled "into the past": fires at now, after the already-queued
    // event at the same instant (FIFO among equals).
    sched.schedule(10.0, [&] { order.push_back(3); });
  });
  sched.schedule(50.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now_ms(), 50.0);  // never went backwards
}

TEST(EventScheduler, SelfReschedulingSourceTicksPeriodically) {
  // The frame-source idiom: each tick schedules the next, so the queue
  // holds O(1) events per client no matter how long the run.
  EventScheduler sched;
  std::vector<double> ticks;
  std::function<void(int)> tick = [&](int i) {
    ticks.push_back(sched.now_ms());
    if (i + 1 < 4) sched.schedule((i + 1) * 33.0, [&tick, i] { tick(i + 1); });
  };
  sched.schedule(0.0, [&tick] { tick(0); });
  sched.run();
  EXPECT_EQ(ticks, (std::vector<double>{0.0, 33.0, 66.0, 99.0}));
  EXPECT_EQ(sched.dispatched(), 4u);
}

TEST(EventScheduler, StepRunsExactlyOneEvent) {
  EventScheduler sched;
  int ran = 0;
  sched.schedule(5.0, [&] { ++ran; });
  sched.schedule(6.0, [&] { ++ran; });
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(sched.now_ms(), 5.0);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());  // drained: nothing ran
  EXPECT_EQ(ran, 2);
}
