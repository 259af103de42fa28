#include "corun/sim/power_meter.hpp"

#include <algorithm>

#include "corun/common/check.hpp"

namespace corun::sim {

PowerMeter::PowerMeter(Rng rng, Watts noise_stddev)
    : rng_(rng), noise_stddev_(noise_stddev) {
  CORUN_CHECK(noise_stddev >= 0.0);
}

Watts PowerMeter::read(Watts true_power) {
  ++reads_;
  const Watts noisy =
      noise_stddev_ > 0.0 ? true_power + rng_.gaussian(noise_stddev_) : true_power;
  const Watts reading = std::max(0.0, noisy);
  if (dropout_) return held_;
  held_ = reading;
  return reading;
}

}  // namespace corun::sim
