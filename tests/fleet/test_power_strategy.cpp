// The PowerStrategy contract, pinned: conservation (live caps sum to at
// most the global budget), floors, ceilings, dead machines at 0 W, and
// purity (identical divisions from any thread count or call ordering).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "corun/common/rng.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/core/fleet/power_strategy.hpp"
#include "corun/sim/machine.hpp"

namespace corun::fleet {
namespace {

std::vector<MachineDemand> random_demands(std::uint64_t seed, std::size_t n,
                                          double dead_fraction = 0.2) {
  Rng rng(seed);
  std::vector<MachineDemand> demands(n);
  for (MachineDemand& d : demands) {
    d.alive = !rng.chance(dead_fraction);
    d.demand_seconds = rng.chance(0.1) ? 0.0 : rng.uniform(5.0, 300.0);
    d.jobs = static_cast<std::size_t>(rng.uniform_int(0, 6));
  }
  return demands;
}

std::size_t live_count(const std::vector<MachineDemand>& demands) {
  std::size_t live = 0;
  for (const MachineDemand& d : demands) live += d.alive ? 1 : 0;
  return live;
}

std::vector<std::unique_ptr<PowerStrategy>> all_strategies() {
  std::vector<std::unique_ptr<PowerStrategy>> out;
  for (const std::string& name : power_strategy_names()) {
    auto s = make_power_strategy(name);
    EXPECT_TRUE(s.has_value()) << name;
    out.push_back(std::move(s).value());
  }
  return out;
}

TEST(PowerStrategyContract, ConservesFloorsCeilingsAndDeadMachines) {
  const StrategyLimits limits;
  const SpeedCurve curve;
  for (const auto& strategy : all_strategies()) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      const auto demands = random_demands(seed, 8 + seed % 5);
      const std::size_t live = live_count(demands);
      // Budget between "floors only" and "everyone at ceiling plus slack".
      Rng rng(seed * 977);
      const Watts global =
          limits.floor * static_cast<double>(live) +
          rng.uniform(0.0, (limits.ceiling + 5.0 - limits.floor) *
                               static_cast<double>(live));
      const auto caps = strategy->divide(global, demands, limits, curve);
      ASSERT_EQ(caps.size(), demands.size()) << strategy->name();
      double total = 0.0;
      for (std::size_t m = 0; m < caps.size(); ++m) {
        if (!demands[m].alive) {
          EXPECT_EQ(caps[m], 0.0)
              << strategy->name() << ": dead machine " << m << " got power";
          continue;
        }
        total += caps[m];
        EXPECT_GE(caps[m], limits.floor - 1e-9)
            << strategy->name() << ": machine " << m << " below floor";
        EXPECT_LE(caps[m], limits.ceiling + 1e-9)
            << strategy->name() << ": machine " << m << " above ceiling";
      }
      EXPECT_LE(total, global + 1e-9)
          << strategy->name() << ": allocation breaks conservation at seed "
          << seed;
    }
  }
}

TEST(PowerStrategyContract, UniformSplitsEqually) {
  const UniformStrategy uniform;
  const StrategyLimits limits;
  std::vector<MachineDemand> demands(4, MachineDemand{true, 100.0, 2});
  demands[2].alive = false;
  const auto caps = uniform.divide(45.0, demands, limits, SpeedCurve());
  EXPECT_DOUBLE_EQ(caps[0], 15.0);
  EXPECT_DOUBLE_EQ(caps[1], 15.0);
  EXPECT_DOUBLE_EQ(caps[2], 0.0);
  EXPECT_DOUBLE_EQ(caps[3], 15.0);
  // A huge budget is clipped to the ceiling, not hoarded.
  const auto rich = uniform.divide(1000.0, demands, limits, SpeedCurve());
  EXPECT_DOUBLE_EQ(rich[0], limits.ceiling);
}

TEST(PowerStrategyContract, DemandProportionalFollowsDemand) {
  const DemandProportionalStrategy demand;
  const StrategyLimits limits;
  const std::vector<MachineDemand> demands{
      {true, 300.0, 4}, {true, 100.0, 2}, {true, 0.0, 0}};
  const auto caps = demand.divide(45.0, demands, limits, SpeedCurve());
  EXPECT_GT(caps[0], caps[1]) << "triple demand must earn a larger cap";
  EXPECT_NEAR(caps[2], limits.floor, 1e-9) << "idle machines stay at floor";
  // The demand-proportional remainder: above-floor watts split 3:1.
  EXPECT_NEAR(caps[0] - limits.floor, 3.0 * (caps[1] - limits.floor), 1e-6);
}

TEST(PowerStrategyContract, MarginalUtilityFeedsTheBottleneck) {
  const MarginalUtilityStrategy marginal;
  const StrategyLimits limits;
  const SpeedCurve curve = SpeedCurve::from_machine(sim::ivy_bridge());
  const std::vector<MachineDemand> demands{
      {true, 400.0, 5}, {true, 50.0, 1}, {true, 50.0, 1}};
  const auto caps = marginal.divide(40.0, demands, limits, curve);
  EXPECT_GT(caps[0], caps[1]);
  EXPECT_GT(caps[0], caps[2]);
  // Equal demands tie-break identically (lowest index first means equal
  // totals after the greedy loop empties the budget in quanta).
  EXPECT_NEAR(caps[1], caps[2], limits.quantum + 1e-9);
}

/// The marginal-utility division as a full bottleneck scan per quantum —
/// the O(quanta * machines) reference the heap-ordered divide must match
/// cap for cap. Floors, the strict `>` (lowest index wins ties) and the
/// conservation trim are spelled out exactly as the strategy contract
/// states them.
std::vector<Watts> marginal_scan_oracle(Watts global_cap,
                                        const std::vector<MachineDemand>& demands,
                                        const StrategyLimits& limits,
                                        const SpeedCurve& curve) {
  std::vector<Watts> caps(demands.size(), 0.0);
  for (std::size_t m = 0; m < demands.size(); ++m) {
    if (demands[m].alive) caps[m] = limits.floor;
  }
  double budget =
      global_cap - limits.floor * static_cast<double>(live_count(demands));
  while (budget >= limits.quantum) {
    std::size_t bottleneck = demands.size();
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < demands.size(); ++m) {
      if (!demands[m].alive || demands[m].demand_seconds <= 0.0) continue;
      if (caps[m] + limits.quantum > limits.ceiling) continue;
      const double t = demands[m].demand_seconds / curve.speed_at(caps[m]);
      if (t > worst) {
        worst = t;
        bottleneck = m;
      }
    }
    if (bottleneck == demands.size()) break;
    caps[bottleneck] += limits.quantum;
    budget -= limits.quantum;
  }
  double excess = -global_cap;
  for (const Watts c : caps) excess += c;
  for (std::size_t m = 0; m < caps.size() && excess > 0.0; ++m) {
    if (caps[m] <= limits.floor) continue;
    const double cut = std::min(excess, caps[m] - limits.floor);
    caps[m] -= cut;
    excess -= cut;
  }
  return caps;
}

TEST(PowerStrategyContract, MarginalHeapMatchesTheFullScanOracle) {
  const MarginalUtilityStrategy marginal;
  const SpeedCurve linear;
  const SpeedCurve ladder = SpeedCurve::from_machine(sim::ivy_bridge());
  std::size_t saturated = 0;
  std::size_t tied = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 7919);
    StrategyLimits limits;
    // A low ceiling on a third of the seeds makes machines saturate long
    // before the budget runs out.
    limits.ceiling = seed % 3 == 0 ? rng.uniform(9.0, 14.0) : 35.0;
    limits.quantum = seed % 4 == 0 ? 0.5 : 0.25;
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 96));
    std::vector<MachineDemand> demands(n);
    for (MachineDemand& d : demands) {
      d.alive = !rng.chance(0.15);
      // Demands drawn from a small set of values tie exactly; zero demand
      // never earns a quantum.
      const double draw = rng.uniform(0.0, 1.0);
      if (draw < 0.1) {
        d.demand_seconds = 0.0;
      } else if (draw < 0.5) {
        d.demand_seconds = 60.0 * static_cast<double>(rng.uniform_int(1, 4));
      } else {
        d.demand_seconds = rng.uniform(5.0, 300.0);
      }
      d.jobs = 1;
    }
    const std::size_t live = live_count(demands);
    const Watts global =
        limits.floor * static_cast<double>(live) +
        rng.uniform(0.0, (limits.ceiling + 4.0 - limits.floor) *
                             static_cast<double>(live + 1));
    const SpeedCurve& curve = seed % 2 == 0 ? ladder : linear;
    const auto expected = marginal_scan_oracle(global, demands, limits, curve);
    const auto caps = marginal.divide(global, demands, limits, curve);
    ASSERT_EQ(caps.size(), expected.size());
    for (std::size_t m = 0; m < caps.size(); ++m) {
      ASSERT_EQ(caps[m], expected[m])
          << "seed " << seed << " machine " << m << " of " << n;
      if (demands[m].alive && caps[m] + limits.quantum > limits.ceiling) {
        ++saturated;
      }
      if (m > 0 && demands[m].alive && demands[m - 1].alive &&
          demands[m].demand_seconds == demands[m - 1].demand_seconds &&
          demands[m].demand_seconds > 0.0) {
        ++tied;
      }
    }
  }
  // The corpus must actually reach the cases it claims to cover.
  EXPECT_GT(saturated, 100u);
  EXPECT_GT(tied, 100u);
}

TEST(PowerStrategyContract, DivisionIsPureAcrossThreadCounts) {
  const StrategyLimits limits;
  const SpeedCurve curve = SpeedCurve::from_machine(sim::ivy_bridge());
  const auto demands = random_demands(7, 16);
  const Watts global = 14.0 * static_cast<double>(live_count(demands));
  for (const auto& strategy : all_strategies()) {
    const auto reference = strategy->divide(global, demands, limits, curve);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      common::set_default_jobs(jobs);
      common::TaskPool& pool = common::TaskPool::shared();
      const auto repeats = pool.parallel_map<std::vector<Watts>>(
          8, [&](std::size_t) {
            return strategy->divide(global, demands, limits, curve);
          });
      common::set_default_jobs(0);
      for (const auto& caps : repeats) {
        ASSERT_EQ(caps.size(), reference.size());
        for (std::size_t m = 0; m < caps.size(); ++m) {
          EXPECT_EQ(caps[m], reference[m])
              << strategy->name() << " diverged at machine " << m << " under "
              << jobs << " workers";
        }
      }
    }
  }
}

TEST(SpeedCurve, IsMonotoneAndBounded) {
  const SpeedCurve curve = SpeedCurve::from_machine(sim::ivy_bridge());
  double prev = 0.0;
  for (Watts cap = 5.0; cap <= 40.0; cap += 0.5) {
    const double s = curve.speed_at(cap);
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-12);
    EXPECT_GE(s, prev - 1e-12) << "speed must not decrease with cap";
    prev = s;
  }
  EXPECT_GT(curve.speed_at(35.0), curve.speed_at(9.0))
      << "more budget must buy speed somewhere in the ladder range";
}

TEST(PowerStrategyFactory, NamesRoundTripAndUnknownFails) {
  for (const std::string& name : power_strategy_names()) {
    const auto s = make_power_strategy(name);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s.value()->name(), name);
  }
  const auto bad = make_power_strategy("psychic");
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().category, ErrorCategory::kInvalidArgument);
}

}  // namespace
}  // namespace corun::fleet
