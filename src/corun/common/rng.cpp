#include "corun/common/rng.hpp"

#include <cmath>
#include <cstring>

#include "corun/common/check.hpp"

namespace corun {

namespace {

// std::mt19937_64's parameters (n = 312, m = 156, r = 31).
constexpr std::size_t kShift = 156;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

inline std::uint64_t twist(std::uint64_t cur, std::uint64_t next,
                           std::uint64_t far) noexcept {
  const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrix);
}

}  // namespace

Rng::Rng(const Rng& other) noexcept : pos_(other.pos_), seed_(other.seed_) {
  if (pos_ != kUnseeded) std::memcpy(state_, other.state_, sizeof(state_));
}

Rng& Rng::operator=(const Rng& other) noexcept {
  if (this != &other) {
    pos_ = other.pos_;
    seed_ = other.seed_;
    if (pos_ != kUnseeded) std::memcpy(state_, other.state_, sizeof(state_));
  }
  return *this;
}

void Rng::refill() noexcept {
  std::uint64_t* x = state_;
  if (pos_ == kUnseeded) {
    x[0] = seed_;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      x[i] = kInitMultiplier * (x[i - 1] ^ (x[i - 1] >> 62)) + i;
    }
  }
  // The recurrence in three straight loops: the first half reads the old
  // upper half, the second reads the freshly twisted lower half, and the
  // last word wraps to x[0]. Each loop carries no dependence shorter than
  // the vector width, so GCC vectorises them at -O3.
  constexpr std::size_t n = kStateWords;
  for (std::size_t k = 0; k < n - kShift; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k - (n - kShift)]);
  }
  x[n - 1] = twist(x[n - 1], x[0], x[kShift - 1]);
  pos_ = 0;
}

double Rng::uniform(double lo, double hi) {
  CORUN_CHECK(lo <= hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(*this);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CORUN_CHECK(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(*this);
}

double Rng::gaussian(double stddev) {
  CORUN_CHECK(stddev >= 0.0);
  // The same rejection test and arithmetic, in the same order, as
  // std::normal_distribution<double>; only the uniforms' conversion
  // (canonical) is spelled differently, and it rounds identically.
  double x;
  double y;
  double r2;
  do {
    x = 2.0 * canonical((*this)()) - 1.0;
    y = 2.0 * canonical((*this)()) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
  return (y * mult) * stddev + 0.0;
}

bool Rng::chance(double p) {
  CORUN_CHECK(p >= 0.0 && p <= 1.0);
  std::bernoulli_distribution dist(p);
  return dist(*this);
}

Rng Rng::fork(std::string_view tag) const {
  // Mix the parent seed with the tag hash through a splitmix-style step so
  // fork("a") of seed 1 differs from fork("a") of seed 2 and from fork("b").
  std::uint64_t z = seed_ ^ (hash64(tag) + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return Rng(z);
}

std::uint64_t hash64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace corun
