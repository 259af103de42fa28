#include "calib.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace perfbench {

std::int64_t calibration_ns() {
  constexpr std::size_t kTable = 512;  // 4 KiB of doubles
  constexpr int kIterations = 3000000;
  std::array<double, kTable> table{};
  for (std::size_t i = 0; i < kTable; ++i) {
    table[i] = 1.0 + static_cast<double>(i % 97) * 0.01;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = table[x & (kTable - 1)];
    acc = v > 1.3 ? acc * 0.999 + std::sqrt(v) : acc * 0.9995 + v;
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the result observable so the compiler cannot drop the loop.
  static volatile double sink;
  sink = acc;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

}  // namespace perfbench
