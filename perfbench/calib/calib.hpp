// The calibration loop: a fixed unit of CPU work that shares no code with
// corun. The benchmark runs it on the program core many times through each
// timed phase and scales the phase's timings by the loop's median time, so
// that a stretch of minutes in which other tenants of a shared host slow
// every core shows in the loop as much as in the program, and cancels.
//
// The loop is dependent floating-point arithmetic and data-dependent
// branches over a table that fits in L1. It is built without the corun
// libraries or their compile options, so no change to the program moves it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Runs the loop once and returns its wall time in nanoseconds.
std::int64_t calibration_ns();

}  // namespace perfbench
