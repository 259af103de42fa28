#include "corun/core/fleet/power_strategy.hpp"

#include <algorithm>

#include "corun/common/check.hpp"
#include "corun/sim/power_model.hpp"

namespace corun::fleet {

namespace {

std::size_t live_count(const std::vector<MachineDemand>& demands) {
  return static_cast<std::size_t>(
      std::count_if(demands.begin(), demands.end(),
                    [](const MachineDemand& d) { return d.alive; }));
}

/// Shared preconditions: a positive budget that can fund every live
/// machine's floor. Fleet validates these with a friendly error before any
/// strategy runs; a violation here is a programming error.
void check_inputs(Watts global_cap, const std::vector<MachineDemand>& demands,
                  const StrategyLimits& limits) {
  CORUN_CHECK_MSG(limits.floor > 0.0 && limits.ceiling >= limits.floor,
                  "power strategy limits are inverted");
  CORUN_CHECK_MSG(
      global_cap >= limits.floor * static_cast<double>(live_count(demands)),
      "global cap cannot fund every live machine's floor");
}

/// Clamps rounding residue so the caps of live machines can never sum past
/// the global budget: walks machines in index order and trims any excess
/// above the floor. The excess is at most a few ulps of proportional-share
/// arithmetic, but conservation is a contract, not a tolerance.
void enforce_conservation(std::vector<Watts>& caps, Watts global_cap,
                          const StrategyLimits& limits) {
  double total = 0.0;
  for (const Watts c : caps) total += c;
  double excess = total - global_cap;
  for (std::size_t m = 0; m < caps.size() && excess > 0.0; ++m) {
    if (caps[m] <= limits.floor) continue;
    const double cut = std::min(excess, caps[m] - limits.floor);
    caps[m] -= cut;
    excess -= cut;
  }
}

}  // namespace

// ---- SpeedCurve -----------------------------------------------------------

SpeedCurve::SpeedCurve() {
  knots_.push_back({0.0, 0.05});
  knots_.push_back({1.0, 1.0});
}

SpeedCurve SpeedCurve::from_machine(const sim::MachineConfig& config) {
  const sim::PowerModel model(config.power, config.cpu_ladder,
                              config.gpu_ladder);
  // Candidate operating points: worst-case package power vs the mean of the
  // two domains' frequency fractions (the same "both devices matter
  // equally" proxy the schedulers' DVFS enumeration uses).
  struct Point {
    Watts power;
    double speed;
  };
  std::vector<Point> points;
  for (sim::FreqLevel cl = 0; cl <= config.cpu_ladder.max_level(); ++cl) {
    for (sim::FreqLevel gl = 0; gl <= config.gpu_ladder.max_level(); ++gl) {
      points.push_back({model.package_power_full(cl, gl),
                        (config.cpu_ladder.fraction(cl) +
                         config.gpu_ladder.fraction(gl)) /
                            2.0});
    }
  }
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.power != b.power ? a.power < b.power : a.speed < b.speed;
  });
  // Pareto frontier: keep points that strictly improve on speed as power
  // grows; the result is non-decreasing in both coordinates.
  SpeedCurve curve;
  curve.knots_.clear();
  double best = 0.0;
  for (const Point& p : points) {
    if (p.speed <= best) continue;
    best = p.speed;
    curve.knots_.push_back({p.power, p.speed});
  }
  CORUN_CHECK_MSG(!curve.knots_.empty(), "machine has no operating points");
  return curve;
}

double SpeedCurve::speed_at(Watts cap) const noexcept {
  if (cap <= knots_.front().power) return knots_.front().speed;
  if (cap >= knots_.back().power) return knots_.back().speed;
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (cap > knots_[i].power) continue;
    const Knot& lo = knots_[i - 1];
    const Knot& hi = knots_[i];
    const double t = (cap - lo.power) / (hi.power - lo.power);
    return lo.speed + t * (hi.speed - lo.speed);
  }
  return knots_.back().speed;
}

// ---- strategies -----------------------------------------------------------

std::vector<Watts> UniformStrategy::divide(
    Watts global_cap, const std::vector<MachineDemand>& demands,
    const StrategyLimits& limits, const SpeedCurve& /*curve*/) const {
  check_inputs(global_cap, demands, limits);
  const std::size_t live = live_count(demands);
  std::vector<Watts> caps(demands.size(), 0.0);
  if (live == 0) return caps;
  const Watts share =
      std::min(limits.ceiling, global_cap / static_cast<double>(live));
  for (std::size_t m = 0; m < demands.size(); ++m) {
    if (demands[m].alive) caps[m] = share;
  }
  enforce_conservation(caps, global_cap, limits);
  return caps;
}

std::vector<Watts> DemandProportionalStrategy::divide(
    Watts global_cap, const std::vector<MachineDemand>& demands,
    const StrategyLimits& limits, const SpeedCurve& /*curve*/) const {
  check_inputs(global_cap, demands, limits);
  std::vector<Watts> caps(demands.size(), 0.0);
  std::vector<bool> open(demands.size(), false);
  double budget = 0.0;  // what remains after the floors
  for (std::size_t m = 0; m < demands.size(); ++m) {
    if (!demands[m].alive) continue;
    caps[m] = limits.floor;
    open[m] = demands[m].demand_seconds > 0.0;
    budget += 0.0;
  }
  budget = global_cap -
           limits.floor * static_cast<double>(live_count(demands));
  // Water-fill: hand each still-open machine its demand-proportional share
  // of the remaining budget; machines that hit the ceiling close and their
  // unused share re-divides among the rest next round.
  for (int round = 0; round < 64 && budget > 1e-12; ++round) {
    double open_demand = 0.0;
    for (std::size_t m = 0; m < demands.size(); ++m) {
      if (open[m]) open_demand += demands[m].demand_seconds;
    }
    if (open_demand <= 0.0) break;
    double spent = 0.0;
    bool closed_any = false;
    for (std::size_t m = 0; m < demands.size(); ++m) {
      if (!open[m]) continue;
      const double share =
          budget * (demands[m].demand_seconds / open_demand);
      const double headroom = limits.ceiling - caps[m];
      const double grant = std::min(share, headroom);
      caps[m] += grant;
      spent += grant;
      if (caps[m] >= limits.ceiling - 1e-12) {
        open[m] = false;
        closed_any = true;
      }
    }
    budget -= spent;
    if (!closed_any) break;  // everyone got their full share
  }
  enforce_conservation(caps, global_cap, limits);
  return caps;
}

std::vector<Watts> MarginalUtilityStrategy::divide(
    Watts global_cap, const std::vector<MachineDemand>& demands,
    const StrategyLimits& limits, const SpeedCurve& curve) const {
  check_inputs(global_cap, demands, limits);
  CORUN_CHECK_MSG(limits.quantum > 0.0, "marginal quantum must be positive");
  std::vector<Watts> caps(demands.size(), 0.0);
  for (std::size_t m = 0; m < demands.size(); ++m) {
    if (demands[m].alive) caps[m] = limits.floor;
  }
  double budget =
      global_cap - limits.floor * static_cast<double>(live_count(demands));
  // Each quantum goes to the current bottleneck: the machine whose
  // estimated completion time demand / speed(cap) is longest and whose cap
  // can still grow. That is exactly where a watt buys the most reduction in
  // the fleet makespan estimate the benches measure. A grant changes only
  // the winner's estimate, so a max-heap keyed on (estimate, lower index
  // first) makes the same picks in the same order as a full scan per
  // quantum, in O(quanta * log machines) instead of O(quanta * machines).
  struct Candidate {
    double time;
    std::size_t machine;
  };
  const auto lower_priority = [](const Candidate& a, const Candidate& b) {
    return a.time != b.time ? a.time < b.time : a.machine > b.machine;
  };
  auto candidate = [&](std::size_t m) {
    return Candidate{demands[m].demand_seconds / curve.speed_at(caps[m]), m};
  };
  std::vector<Candidate> heap;
  for (std::size_t m = 0; m < demands.size(); ++m) {
    // `!(d > 0)` also drops a NaN demand, whose estimate is never a strict
    // maximum.
    if (!demands[m].alive || !(demands[m].demand_seconds > 0.0)) continue;
    if (caps[m] + limits.quantum > limits.ceiling) continue;
    heap.push_back(candidate(m));
  }
  std::make_heap(heap.begin(), heap.end(), lower_priority);
  while (budget >= limits.quantum && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), lower_priority);
    const std::size_t bottleneck = heap.back().machine;
    heap.pop_back();
    caps[bottleneck] += limits.quantum;
    budget -= limits.quantum;
    if (caps[bottleneck] + limits.quantum <= limits.ceiling) {
      heap.push_back(candidate(bottleneck));
      std::push_heap(heap.begin(), heap.end(), lower_priority);
    }
  }
  enforce_conservation(caps, global_cap, limits);
  return caps;
}

// ---- registry -------------------------------------------------------------

std::vector<std::string> power_strategy_names() {
  return {"uniform", "demand", "marginal"};
}

Expected<std::unique_ptr<PowerStrategy>> make_power_strategy(
    const std::string& name) {
  if (name == "uniform") {
    return std::unique_ptr<PowerStrategy>(std::make_unique<UniformStrategy>());
  }
  if (name == "demand") {
    return std::unique_ptr<PowerStrategy>(
        std::make_unique<DemandProportionalStrategy>());
  }
  if (name == "marginal") {
    return std::unique_ptr<PowerStrategy>(
        std::make_unique<MarginalUtilityStrategy>());
  }
  return fail("unknown power strategy '" + name +
                  "' (expected uniform|demand|marginal)",
              ErrorCategory::kInvalidArgument);
}

}  // namespace corun::fleet
