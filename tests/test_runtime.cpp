// Unit tests for the runtime substrate: deterministic RNG, serialization,
// ring buffer, statistics and the worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>

#include "runtime/log.hpp"
#include "runtime/metrics.hpp"
#include "runtime/ring_buffer.hpp"
#include "runtime/rng.hpp"
#include "runtime/serialize.hpp"
#include "runtime/stats.hpp"
#include "runtime/worker_pool.hpp"

namespace rt = edgeis::rt;

#if defined(__x86_64__)
namespace {
// a*b + c in a function the compiler may give FMA instructions.
[[gnu::target("fma"), gnu::noinline]] double mul_add(double a, double b,
                                                    double c) {
  return a * b + c;
}
}  // namespace
#endif

// The build pins -ffp-contract=off: even where FMA is available, a*b + c
// rounds the product before the add, as baseline x86-64 code does.
TEST(FpContract, TargetFmaDoesNotFuse) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("fma")) GTEST_SKIP() << "CPU lacks FMA";
  // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60. The rounded product drops 2^-60,
  // so adding -(1 + 2^-29) gives 0; a fused multiply-add gives 2^-60.
  volatile double a = 1.0 + 0x1p-30;
  volatile double c = -(1.0 + 0x1p-29);
  EXPECT_EQ(std::fma(a, a, c), 0x1p-60);  // the inputs tell the two apart
  EXPECT_EQ(mul_add(a, a, c), 0.0);
#else
  GTEST_SKIP() << "target(\"fma\") is x86-64 only";
#endif
}

TEST(Rng, DeterministicForSameSeed) {
  rt::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  rt::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  rt::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  rt::Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NormalMoments) {
  rt::Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ChanceProbability) {
  rt::Rng rng(13);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  rt::Rng a(5);
  rt::Rng child = a.fork();
  // Parent and child should not track each other.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Serialize, RoundTripScalars) {
  rt::ByteWriter w;
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<double>(3.25);
  w.put<std::int16_t>(-7);
  rt::ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::int16_t>(), -7);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, RoundTripVector) {
  rt::ByteWriter w;
  w.put_vector<float>({1.5f, -2.5f, 0.0f});
  rt::ByteReader r(w.bytes());
  const auto v = r.get_vector<float>();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], -2.5f);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, RoundTripEmptyVectors) {
  // Empty payloads may carry a null data(); the writer and reader must not
  // hand it to memcpy (UB even for zero bytes; gcc UBSan flags it).
  rt::ByteWriter w;
  w.put_vector<float>({});
  w.put_vector<std::int32_t>(std::vector<std::int32_t>{});
  EXPECT_EQ(w.size(), 2 * sizeof(std::uint32_t));
  rt::ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_vector<float>().empty());
  EXPECT_TRUE(r.get_vector<std::int32_t>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, UnderrunThrows) {
  rt::ByteWriter w;
  w.put<std::uint8_t>(1);
  rt::ByteReader r(w.bytes());
  EXPECT_THROW(r.get<std::uint64_t>(), rt::DeserializeError);
}

TEST(Serialize, TruncatedVectorThrows) {
  rt::ByteWriter w;
  w.put<std::uint32_t>(100);  // claims 100 elements follow; none do
  rt::ByteReader r(w.bytes());
  EXPECT_THROW(r.get_vector<float>(), rt::DeserializeError);
}

TEST(RingBuffer, PushPopFifo) {
  rt::RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(*rb.pop(), 1);
  EXPECT_EQ(*rb.pop(), 2);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  rt::RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.front(), 3);
  EXPECT_EQ(rb.back(), 5);
  EXPECT_EQ(rb[1], 4);
}

TEST(RingBuffer, IndexOutOfRangeThrows) {
  rt::RingBuffer<int> rb(2);
  rb.push(1);
  EXPECT_THROW((void)rb[1], std::out_of_range);
}

TEST(RingBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(rt::RingBuffer<int>(0), std::invalid_argument);
}

TEST(RunningStats, MeanVarianceMinMax) {
  rt::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(SampleSet, Percentiles) {
  rt::SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.percentile(100), 100.0, 0.01);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.1);
}

TEST(SampleSet, FractionBelow) {
  rt::SampleSet s;
  for (int i = 0; i < 10; ++i) s.add(i < 3 ? 0.2 : 0.9);
  EXPECT_DOUBLE_EQ(s.fraction_below(0.5), 0.3);
  EXPECT_DOUBLE_EQ(s.fraction_below(0.1), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_below(1.0), 1.0);
}

TEST(SampleSet, CdfMonotone) {
  rt::SampleSet s;
  rt::Rng rng(3);
  for (int i = 0; i < 500; ++i) s.add(rng.uniform());
  const auto cdf = s.cdf(0.0, 1.0, 20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-9);
}

TEST(SampleSet, EmptySafe) {
  rt::SampleSet s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.fraction_below(1.0), 0.0);
}

TEST(SampleSet, SortedCacheInvalidatedByAdd) {
  // The lazily sorted view must rebuild after every add(), including adds
  // that interleave with percentile queries.
  rt::SampleSet s;
  s.add(10.0);
  s.add(30.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 30.0);  // builds the cache
  s.add(5.0);  // smaller than everything cached
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  s.add(99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 99.0);
  EXPECT_DOUBLE_EQ(s.max(), 99.0);
  // samples() keeps insertion order regardless of the sorted cache.
  const auto& raw = s.samples();
  ASSERT_EQ(raw.size(), 4u);
  EXPECT_DOUBLE_EQ(raw[0], 10.0);
  EXPECT_DOUBLE_EQ(raw[2], 5.0);
}

TEST(SampleSet, CdfAfterInterleavedAdds) {
  rt::SampleSet s;
  for (int i = 0; i < 10; ++i) s.add(1.0);
  (void)s.cdf(0.0, 2.0, 4);
  for (int i = 0; i < 10; ++i) s.add(3.0);  // beyond the cached range
  EXPECT_DOUBLE_EQ(s.fraction_below(2.0), 0.5);
  const auto cdf = s.cdf(0.0, 4.0, 4);
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-9);
}

TEST(Log, ScopedClockInstallsAndRestores) {
  // No clock installed by default in tests.
  auto prev = rt::Log::exchange_clock(nullptr);
  rt::Log::set_clock(std::move(prev));

  {
    rt::ScopedLogClock outer([] { return 1.0; });
    {
      rt::ScopedLogClock inner([] { return 2.0; });
      auto cur = rt::Log::exchange_clock(nullptr);
      ASSERT_TRUE(static_cast<bool>(cur));
      EXPECT_DOUBLE_EQ(cur(), 2.0);
      rt::Log::set_clock(std::move(cur));
    }
    // inner restored outer
    auto cur = rt::Log::exchange_clock(nullptr);
    ASSERT_TRUE(static_cast<bool>(cur));
    EXPECT_DOUBLE_EQ(cur(), 1.0);
    rt::Log::set_clock(std::move(cur));
  }
  // outer restored the (empty) default
  auto cur = rt::Log::exchange_clock(nullptr);
  EXPECT_FALSE(static_cast<bool>(cur));
}

TEST(Log, InitFromEnvParsesLevels) {
  const rt::LogLevel saved = rt::Log::level();

  setenv("EDGEIS_LOG", "debug", 1);
  rt::Log::init_from_env();
  EXPECT_EQ(rt::Log::level(), rt::LogLevel::kDebug);

  setenv("EDGEIS_LOG", "off", 1);
  rt::Log::init_from_env();
  EXPECT_EQ(rt::Log::level(), rt::LogLevel::kOff);

  // Unknown values leave the level untouched.
  setenv("EDGEIS_LOG", "shouty", 1);
  rt::Log::init_from_env();
  EXPECT_EQ(rt::Log::level(), rt::LogLevel::kOff);

  unsetenv("EDGEIS_LOG");
  rt::Log::init_from_env();
  EXPECT_EQ(rt::Log::level(), rt::LogLevel::kOff);

  rt::Log::level() = saved;
}

TEST(Log, SubsystemOverridesFromEnv) {
  const rt::LogLevel saved = rt::Log::level();

  setenv("EDGEIS_LOG", "warn,net=debug,core=info", 1);
  rt::Log::init_from_env();
  EXPECT_EQ(rt::Log::level(), rt::LogLevel::kWarn);
  EXPECT_TRUE(rt::Log::enabled(rt::LogSub::kNet, rt::LogLevel::kDebug));
  EXPECT_FALSE(rt::Log::enabled(rt::LogSub::kCore, rt::LogLevel::kDebug));
  EXPECT_TRUE(rt::Log::enabled(rt::LogSub::kCore, rt::LogLevel::kInfo));
  // Subsystems without an override fall back to the global level.
  EXPECT_FALSE(rt::Log::enabled(rt::LogSub::kEdge, rt::LogLevel::kInfo));
  EXPECT_TRUE(rt::Log::enabled(rt::LogSub::kEdge, rt::LogLevel::kWarn));
  EXPECT_FALSE(rt::Log::enabled(rt::LogSub::kGeneral, rt::LogLevel::kInfo));

  // Malformed override tokens are ignored; a valid one in the same list
  // still lands.
  rt::Log::clear_overrides();
  setenv("EDGEIS_LOG", "net=shouty,bogus=debug,edge=error", 1);
  rt::Log::init_from_env();
  EXPECT_FALSE(rt::Log::enabled(rt::LogSub::kNet, rt::LogLevel::kDebug));
  EXPECT_FALSE(rt::Log::enabled(rt::LogSub::kEdge, rt::LogLevel::kWarn));
  EXPECT_TRUE(rt::Log::enabled(rt::LogSub::kEdge, rt::LogLevel::kError));

  // clear_override restores the global fallback for one subsystem.
  rt::Log::set_override(rt::LogSub::kNet, rt::LogLevel::kDebug);
  rt::Log::clear_override(rt::LogSub::kNet);
  EXPECT_EQ(rt::Log::enabled(rt::LogSub::kNet, rt::LogLevel::kDebug),
            rt::Log::level() <= rt::LogLevel::kDebug);

  unsetenv("EDGEIS_LOG");
  rt::Log::clear_overrides();
  rt::Log::level() = saved;
}

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

TEST(QuantileSketch, ExactBelowCapacityMatchesSampleSet) {
  rt::QuantileSketch sketch(256);
  rt::SampleSet exact;
  rt::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 1000.0);
    sketch.add(x);
    exact.add(x);
  }
  EXPECT_TRUE(sketch.exact());
  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(sketch.percentile(p), exact.percentile(p)) << p;
  }
  EXPECT_DOUBLE_EQ(sketch.min(), exact.min());
  EXPECT_DOUBLE_EQ(sketch.max(), exact.max());
  EXPECT_NEAR(sketch.mean(), exact.mean(), 1e-9);
}

TEST(QuantileSketch, ApproxQuantilesWithinTwoPercentPastCapacity) {
  // Several shapes, all far past capacity: the exported p50/p90/p99 must
  // stay within 2% (of the value, or of the distribution's spread for
  // values near zero) of the exact SampleSet percentile.
  const int kDistributions = 3;
  for (int d = 0; d < kDistributions; ++d) {
    rt::QuantileSketch sketch(512);
    rt::SampleSet exact;
    rt::Rng rng(1000 + static_cast<std::uint64_t>(d));
    for (int i = 0; i < 20000; ++i) {
      double x = 0.0;
      if (d == 0) {
        x = rng.uniform(0.0, 1000.0);
      } else if (d == 1) {
        x = 100.0 + 15.0 * rng.normal();
      } else {
        x = -50.0 * std::log(rng.uniform(1e-12, 1.0));  // exponential
      }
      sketch.add(x);
      exact.add(x);
    }
    EXPECT_FALSE(sketch.exact());
    const double spread = exact.percentile(99.0) - exact.percentile(1.0);
    for (double p : {50.0, 90.0, 99.0}) {
      const double e = exact.percentile(p);
      const double tol = 0.02 * std::max(std::abs(e), spread);
      EXPECT_NEAR(sketch.percentile(p), e, tol)
          << "distribution " << d << " p" << p;
    }
    EXPECT_EQ(sketch.count(), 20000u);
    EXPECT_DOUBLE_EQ(sketch.min(), exact.min());
    EXPECT_DOUBLE_EQ(sketch.max(), exact.max());
    EXPECT_NEAR(sketch.mean(), exact.mean(), 1e-6 * std::abs(exact.mean()));
  }
}

TEST(QuantileSketch, DeterministicForSameStream) {
  rt::QuantileSketch a(64), b(64);
  rt::Rng ra(99), rb(99);
  for (int i = 0; i < 5000; ++i) a.add(ra.uniform(0.0, 1.0));
  for (int i = 0; i < 5000; ++i) b.add(rb.uniform(0.0, 1.0));
  for (double p : {5.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p)) << p;
  }
}

TEST(QuantileSketch, MemoryIsBoundedByCapacity) {
  rt::QuantileSketch sketch(128);
  for (int i = 0; i < 100000; ++i) sketch.add(static_cast<double>(i));
  EXPECT_EQ(sketch.count(), 100000u);
  EXPECT_LE(sketch.memory_bytes(),
            sizeof(rt::QuantileSketch) + 2 * 128 * sizeof(double));
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

TEST(SloTracker, DwellAttributionAndViolationCounting) {
  rt::SloTracker slo(1000.0);
  // Frames every 100 ms; dwell is attributed to the state the earlier
  // frame observed.
  slo.observe_frame(0.0, -1.0, false);      // bootstrap -> clean
  slo.observe_frame(100.0, 200.0, false);   // clean
  slo.observe_frame(200.0, 1200.0, false);  // stale (violation #1)
  slo.observe_frame(300.0, 1300.0, false);  // still stale
  slo.observe_frame(400.0, 300.0, false);   // recovered
  slo.observe_frame(500.0, 400.0, true);    // degraded (violation #2)
  slo.finish(600.0);

  const auto s = slo.summary();
  EXPECT_EQ(s.frames, 6);
  EXPECT_EQ(s.violations, 2);
  EXPECT_EQ(s.violation_frames, 3);
  EXPECT_DOUBLE_EQ(s.clean_ms, 300.0);     // [0,200) + [400,500)
  EXPECT_DOUBLE_EQ(s.stale_ms, 200.0);     // [200,400)
  EXPECT_DOUBLE_EQ(s.degraded_ms, 100.0);  // [500,600) tail
  EXPECT_EQ(slo.state(), rt::SloTracker::State::kDegraded);
}

TEST(SloTracker, BoundaryEqualsSloIsStaleAndBootstrapIsClean) {
  rt::SloTracker slo(1000.0);
  slo.observe_frame(0.0, -1.0, false);
  EXPECT_EQ(slo.state(), rt::SloTracker::State::kClean);
  slo.observe_frame(33.0, 1000.0, false);  // exactly at the SLO: stale
  EXPECT_EQ(slo.state(), rt::SloTracker::State::kStale);
  const auto s = slo.summary();
  EXPECT_EQ(s.violations, 1);
  EXPECT_EQ(s.violation_frames, 1);
}

TEST(SloTracker, BootstrapWhileDegradedCountsAsViolationFrame) {
  rt::SloTracker slo(1000.0);
  slo.observe_frame(0.0, -1.0, true);
  EXPECT_EQ(slo.state(), rt::SloTracker::State::kDegraded);
  // No prior clean frame, so no transition is counted, but the frame
  // itself is in violation.
  const auto s = slo.summary();
  EXPECT_EQ(s.violations, 0);
  EXPECT_EQ(s.violation_frames, 1);
}

// ---------------------------------------------------------------------------
// Worker pool

namespace {

// Runs `tasks` tasks on `pool` and returns how often each index ran.
std::vector<int> run_counts(rt::WorkerPool& pool, std::size_t tasks) {
  std::vector<std::atomic<int>> hits(tasks);
  pool.run(tasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

// This process's thread count, from /proc; -1 where there is none.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// Whether this process's thread count reads `want` within a second: a
// joined thread can still be counted for a moment after join returns.
bool thread_count_reaches(int want) {
  for (int i = 0; i < 1000; ++i) {
    if (thread_count() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace

TEST(WorkerPool, EachTaskRunsExactlyOnce) {
  auto& pool = rt::WorkerPool::shared();
  ASSERT_GE(pool.lanes(), 1);
  ASSERT_LE(pool.lanes(), rt::WorkerPool::kMaxLanes);
  const auto lanes = static_cast<std::size_t>(pool.lanes());
  for (const std::size_t tasks : {std::size_t{0}, std::size_t{1}, lanes,
                                  std::size_t{1000}}) {
    const auto counts = run_counts(pool, tasks);
    EXPECT_EQ(counts, std::vector<int>(tasks, 1)) << tasks << " tasks";
  }
  // A pool of a fixed lane count, whatever this machine has.
  rt::WorkerPool three(3);
  EXPECT_EQ(three.lanes(), 3);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(run_counts(three, 7), std::vector<int>(7, 1));
  }
}

TEST(WorkerPool, StartsThreadsOnTheFirstParallelJobAndJoinsThem) {
  // A sanitizer runtime starts a helper thread of its own on the first
  // pthread_create; start and join one thread so that it is not counted.
  std::thread([] {}).join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int before = thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  {
    rt::WorkerPool pool(4);
    EXPECT_EQ(thread_count(), before);  // constructing starts nothing
    pool.run(1, [](std::size_t) {});
    EXPECT_EQ(thread_count(), before);  // one task runs inline
    pool.run(8, [](std::size_t) {});
    EXPECT_EQ(thread_count(), before + 3);
  }
  EXPECT_TRUE(thread_count_reaches(before));  // the destructor joined them
}

TEST(WorkerPool, NestedCallRunsInlineOnTheCallingLane) {
  auto& pool = rt::WorkerPool::shared();
  std::vector<std::atomic<int>> inner(64 * 5);
  std::atomic<int> foreign{0};
  pool.run(64, [&](std::size_t outer) {
    const auto self = std::this_thread::get_id();
    pool.run(5, [&](std::size_t i) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
      inner[outer * 5 + i].fetch_add(1);
    });
  });
  EXPECT_EQ(foreign.load(), 0);
  for (const auto& h : inner) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, TwoCallingThreadsBothComplete) {
  auto& pool = rt::WorkerPool::shared();
  std::vector<int> bad(2, 0);
  const auto caller = [&](int who) {
    for (int round = 0; round < 200; ++round) {
      if (run_counts(pool, 97) != std::vector<int>(97, 1)) ++bad[who];
    }
  };
  std::thread a(caller, 0);
  std::thread b(caller, 1);
  a.join();
  b.join();
  EXPECT_EQ(bad, std::vector<int>(2, 0));
}

TEST(WorkerPool, TaskExceptionReachesTheCallerAndThePoolStaysUsable) {
  const auto check = [](rt::WorkerPool& pool) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(100,
                          [&](std::size_t i) {
                            ran.fetch_add(1);
                            if (i == 17) throw std::runtime_error("task 17");
                          }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 18);  // tasks are claimed in index order
    try {
      pool.run(3, [](std::size_t i) {
        if (i == 1) throw std::logic_error("task 1");
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
    EXPECT_EQ(run_counts(pool, 1000), std::vector<int>(1000, 1));
  };
  check(rt::WorkerPool::shared());
  rt::WorkerPool four(4);
  check(four);
}
