#include "corun/sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "corun/common/check.hpp"
#include "corun/common/rng.hpp"
#include "corun/sim/power_meter.hpp"

namespace corun::sim {
namespace {

TEST(Telemetry, TickAccountingIntegrates) {
  Telemetry t;
  t.record_tick(0.5, 10.0, true, false, 15.0, true);
  t.record_tick(0.5, 20.0, true, true, 15.0, true);
  EXPECT_DOUBLE_EQ(t.elapsed(), 1.0);
  EXPECT_DOUBLE_EQ(t.energy(), 15.0);
  EXPECT_DOUBLE_EQ(t.avg_power(), 15.0);
  EXPECT_DOUBLE_EQ(t.cpu_busy_time(), 1.0);
  EXPECT_DOUBLE_EQ(t.gpu_busy_time(), 0.5);
  EXPECT_DOUBLE_EQ(t.cap_stats().time_over_cap, 0.5);
}

TEST(Telemetry, SampleViolationStats) {
  Telemetry t;
  PowerSample s;
  s.true_power = 16.5;
  t.record_sample(s, 15.0, true);
  s.true_power = 14.0;
  t.record_sample(s, 15.0, true);
  EXPECT_EQ(t.cap_stats().samples, 2u);
  EXPECT_EQ(t.cap_stats().over_cap, 1u);
  EXPECT_DOUBLE_EQ(t.cap_stats().worst_overshoot, 1.5);
  EXPECT_DOUBLE_EQ(t.cap_stats().over_fraction(), 0.5);
}

TEST(Telemetry, InactiveCapIgnoresViolations) {
  Telemetry t;
  PowerSample s;
  s.true_power = 100.0;
  t.record_sample(s, 15.0, false);
  t.record_tick(1.0, 100.0, true, true, 15.0, false);
  EXPECT_EQ(t.cap_stats().over_cap, 0u);
  EXPECT_DOUBLE_EQ(t.cap_stats().time_over_cap, 0.0);
}

TEST(Telemetry, ClearResets) {
  Telemetry t;
  t.record_tick(1.0, 10.0, true, true, 15.0, true);
  t.clear();
  EXPECT_DOUBLE_EQ(t.elapsed(), 0.0);
  EXPECT_DOUBLE_EQ(t.energy(), 0.0);
  EXPECT_TRUE(t.samples().empty());
}

TEST(PowerMeter, ZeroNoiseIsExact) {
  PowerMeter meter(Rng(1), 0.0);
  EXPECT_DOUBLE_EQ(meter.read(12.34), 12.34);
}

TEST(PowerMeter, NoiseIsBoundedAndUnbiased) {
  PowerMeter meter(Rng(2), 0.25);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const Watts r = meter.read(10.0);
    EXPECT_GE(r, 0.0);
    sum += r;
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(PowerMeter, NeverNegative) {
  PowerMeter meter(Rng(3), 5.0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(meter.read(0.1), 0.0);
  }
}

// Bit for bit: one Gaussian draw per read from the meter's own stream, and
// a dropout freezes the register while the stream keeps advancing.
TEST(PowerMeter, ReadIsOneDrawAndDropoutsHoldTheLastReading) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const Watts noise : {1e-6, 0.05, 0.3, 1.5}) {
    PowerMeter meter(Rng(7).fork("meter"), noise);
    Rng ref = Rng(7).fork("meter");
    Rng pick(8);
    Watts held = 0.0;
    for (int i = 0; i < 20'000; ++i) {
      if (i % 997 == 501 || i % 997 == 540) meter.set_dropout(i % 997 == 501);
      const Watts tp = pick.uniform(-1.0, 16.0);
      const Watts want = std::max(0.0, tp + ref.gaussian(noise));
      const Watts got = meter.read(tp);
      if (meter.dropout()) {
        ASSERT_EQ(bits(got), bits(held)) << "noise " << noise << " read " << i;
      } else {
        ASSERT_EQ(bits(got), bits(want)) << "noise " << noise << " read " << i;
        held = got;
      }
    }
    EXPECT_EQ(meter.reads(), 20'000u);
  }
}

TEST(PowerMeter, NegativeStddevRejected) {
  EXPECT_THROW(PowerMeter(Rng(1), -0.1), corun::ContractViolation);
}

}  // namespace
}  // namespace corun::sim
