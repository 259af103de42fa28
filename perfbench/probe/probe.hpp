// perfbench-probe: the benchmark's helper program. perfbench/run.py drives
// the real tools as a user does; this program covers what a user-level
// script cannot do cheaply:
//
//   gen-faults  seeded fault-plan CSVs (FaultInjector + fault_plan_to_csv)
//   gen-fleet   a seeded fleet-plan CSV (generate_fleet_plan_from_spec +
//               fleet_plan_to_csv), so the tools never see a random: spec
//   load        the serve load generator: one connection, a fixed window of
//               requests in flight, byte checks on every response
//   trace       the traced in-process replay that splits an op by layer
//   calib       runs of the calibration loop (calib/calib.hpp), in ns
//   stamp       compiler and build type of this build
#pragma once

#include <string>

#include "corun/common/flags.hpp"

namespace perfbench {

/// Each returns the process exit code; a usage or IO problem is reported on
/// stderr with a non-zero code.
int run_load(const corun::Flags& flags);
int run_trace(const corun::Flags& flags);

/// Reads a whole file; exits the process with a message when it cannot.
std::string slurp(const std::string& path);

}  // namespace perfbench
