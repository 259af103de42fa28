// Scheduler registry: name -> instance, shared by the command-line tools
// and any embedding application that selects planners by configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

/// Names accepted by make_scheduler, in presentation order.
[[nodiscard]] std::vector<std::string> scheduler_names();

/// Constructs a scheduler by name ("hcs+", "hcs", "default", "random",
/// "bnb", "exhaustive"); `seed` parameterizes the stochastic ones.
/// Returns nullptr for unknown names.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name, std::uint64_t seed = 42);

/// Whether the named planner reads the cap, and so requires what
/// cap_infeasibility checks. The `default` and `random` baselines never
/// read it: they plan under any cap and leave it to the governor.
[[nodiscard]] bool planner_reads_cap(const std::string& name);

}  // namespace corun::sched
