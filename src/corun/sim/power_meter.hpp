// RAPL-like package power sensor: true model power plus zero-mean Gaussian
// measurement noise. The governor reacts to *measured* power, which is what
// lets transient overshoots above the cap appear in traces (Fig. 9) before
// the control loop claws power back.
#pragma once

#include <cstdint>

#include "corun/common/rng.hpp"
#include "corun/common/units.hpp"

namespace corun::sim {

class PowerMeter {
 public:
  /// `noise_stddev` in watts; 0 disables noise.
  PowerMeter(Rng rng, Watts noise_stddev);

  /// One sensor reading of the given true power (never negative). During a
  /// dropout the sensor register freezes: the noise stream still advances
  /// (so replay stays in RNG lockstep across engine modes) but the caller
  /// sees the last pre-fault reading — 0 W if the sensor never produced one.
  [[nodiscard]] Watts read(Watts true_power);

  /// Starts/ends a transient sensor fault (see read()).
  void set_dropout(bool active) noexcept { dropout_ = active; }
  [[nodiscard]] bool dropout() const noexcept { return dropout_; }

  [[nodiscard]] Watts noise_stddev() const noexcept { return noise_stddev_; }

  /// Readings taken, dropouts included.
  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }

 private:
  Rng rng_;
  Watts noise_stddev_;
  bool dropout_ = false;
  Watts held_ = 0.0;  ///< last healthy reading, served while dropped out
  std::uint64_t reads_ = 0;
};

}  // namespace corun::sim
