#include "corun/core/sched/registry.hpp"

#include <cstdlib>
#include <string>

#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/default_scheduler.hpp"
#include "corun/core/sched/exhaustive.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/random_scheduler.hpp"
#include "corun/core/sched/refiner.hpp"
#include "corun/core/sched/thermal_scheduler.hpp"

namespace corun::sched {

std::vector<std::string> scheduler_names() {
  return {"hcs+", "hcs", "thermal", "default", "random", "bnb", "exhaustive"};
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          std::uint64_t seed) {
  if (name == "hcs+") return std::make_unique<HcsPlusScheduler>();
  if (name == "hcs") return std::make_unique<HcsScheduler>();
  if (name == "thermal") return std::make_unique<ThermalAwareScheduler>();
  if (name == "default") return std::make_unique<DefaultScheduler>();
  if (name == "random") return std::make_unique<RandomScheduler>(seed);
  if (name == "bnb") {
    // CORUN_BNB_BUDGET overrides the search's node budget — the knob the
    // CLI pipeline uses to exercise the truncated-search warning path
    // without a batch large enough to exhaust the default budget.
    BranchAndBoundOptions bo;
    if (const char* env = std::getenv("CORUN_BNB_BUDGET")) {
      try {
        bo.node_budget = std::stoull(env);
      } catch (...) {
        // Malformed values keep the default budget.
      }
    }
    return std::make_unique<BranchAndBoundScheduler>(bo);
  }
  if (name == "exhaustive") return std::make_unique<ExhaustiveScheduler>();
  return nullptr;
}

bool planner_reads_cap(const std::string& name) {
  return name != "default" && name != "random";
}

}  // namespace corun::sched
