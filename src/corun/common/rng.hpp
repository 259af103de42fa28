// Deterministic random-number generation.
//
// Every stochastic component of the library (random baseline scheduler,
// power-measurement noise, phase-trace jitter) draws from an explicitly
// seeded Rng so whole experiments replay bit-for-bit. Rng also provides
// `fork(tag)` to derive independent child streams without the children
// sharing state — the standard trick for deterministic parallel experiments.
//
// The word stream is exactly std::mt19937_64's, generated in-house so that
// seeding waits for the first draw (forks and copies that never draw cost
// no state work) and the 312-word twist runs as straight, vectorisable
// loops. `gaussian` is a bit-exact replica of libstdc++'s
// std::normal_distribution with a branch-free word-to-double conversion.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

// The Gaussian replica (and with it every recorded noisy trace) follows
// libstdc++'s normal_distribution; other standard libraries draw differently.
#ifndef __GLIBCXX__
#error "corun::Rng replicates libstdc++'s normal_distribution; build with libstdc++"
#endif

namespace corun {

/// Deterministic pseudo-random stream: the std::mt19937_64 word sequence
/// for `seed`, usable as a UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeding is deferred to the first draw.
  explicit Rng(std::uint64_t seed) noexcept : pos_(kUnseeded), seed_(seed) {}
  /// Copies of an unseeded stream copy only the seed.
  Rng(const Rng& other) noexcept;
  Rng& operator=(const Rng& other) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  /// Next 64-bit word (tempered on read).
  result_type operator()() noexcept {
    if (pos_ >= kStateWords) refill();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Zero-mean Gaussian with the given standard deviation: libstdc++'s
  /// Marsaglia polar method, bit for bit.
  double gaussian(double stddev);

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// `std::generate_canonical<double, 53>` of one 64-bit word: the
  /// correctly rounded word (two exact halves, one rounding) times 2^-64,
  /// clamped below 1.0.
  [[nodiscard]] static double canonical(result_type word) noexcept {
    const double hi = static_cast<double>(static_cast<std::uint32_t>(word >> 32));
    const double lo = static_cast<double>(static_cast<std::uint32_t>(word));
    return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream. Children with distinct tags (or
  /// distinct parent seeds) produce uncorrelated sequences.
  [[nodiscard]] Rng fork(std::string_view tag) const;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  static constexpr std::size_t kStateWords = 312;
  static constexpr std::size_t kUnseeded = kStateWords + 1;

  /// Seeds the state on first use, then twists in the next 312 words.
  void refill() noexcept;

  std::uint64_t state_[kStateWords];  ///< untouched until the first draw
  std::size_t pos_;                   ///< next word; kUnseeded before seeding
  std::uint64_t seed_;
};

static_assert(std::uniform_random_bit_generator<Rng>);

/// Stable 64-bit FNV-1a hash used for seed derivation.
std::uint64_t hash64(std::string_view s) noexcept;

}  // namespace corun
