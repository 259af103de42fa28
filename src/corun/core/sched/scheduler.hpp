// Scheduler interface and the shared planning context.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/schedule.hpp"
#include "corun/sim/governor.hpp"
#include "corun/workload/batch.hpp"

namespace corun::sched {

/// Everything a scheduling algorithm may consult while planning. The
/// predictor is the only window onto performance/power — schedulers never
/// see the simulator's ground truth, exactly as the paper's runtime never
/// sees the future.
struct SchedulerContext {
  const workload::Batch* batch = nullptr;
  const model::CoRunPredictor* predictor = nullptr;
  std::optional<Watts> cap;
  sim::GovernorPolicy policy = sim::GovernorPolicy::kGpuBiased;

  /// Warm-start donor for bounded searches: a known-valid schedule for
  /// this very job set (the dynamic runtime donates locally repaired
  /// previous plans). A search must first re-encode the donor into its
  /// *own* solution space before pruning against it — the donor's raw
  /// makespan may lie below every solution the search can reach (e.g. a
  /// refined order, or levels picked under a different cap), and seeding
  /// a strict pruning bound with such a value silently discards the
  /// search's real optimum. Used correctly the hint only accelerates the
  /// search; it is never a result and must never change the returned
  /// schedule.
  std::optional<Schedule> incumbent_hint;

  [[nodiscard]] const workload::Batch& jobs() const;
  [[nodiscard]] const model::CoRunPredictor& model() const;
  [[nodiscard]] std::string job_name(std::size_t i) const;
  [[nodiscard]] std::vector<std::string> job_names() const;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Computes a schedule for the context's batch. Implementations must
  /// return a schedule that passes Schedule::validate.
  [[nodiscard]] virtual Schedule plan(const SchedulerContext& ctx) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace corun::sched
