#include "corun/common/rng.hpp"

#include "corun/common/check.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <set>
#include <vector>

namespace corun {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 16 && !any_diff; ++i) {
    any_diff = a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 3.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit with overwhelming probability
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(2.0);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sq / n, 4.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(42);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  Rng a2 = Rng(42).fork("alpha");
  // Same parent + same tag reproduces; different tags diverge.
  EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), a2.uniform(0.0, 1.0));
  Rng a3 = Rng(42).fork("alpha");
  EXPECT_NE(a3.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, ForkDiffersFromParentSeedChange) {
  Rng s1 = Rng(1).fork("t");
  Rng s2 = Rng(2).fork("t");
  EXPECT_NE(s1.uniform(0.0, 1.0), s2.uniform(0.0, 1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, InvalidArgsRejected) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW((void)rng.uniform_int(5, 4), ContractViolation);
  EXPECT_THROW((void)rng.gaussian(-1.0), ContractViolation);
  EXPECT_THROW((void)rng.chance(1.5), ContractViolation);
}

// ---- Oracles: the in-house stream against the standard library ----------

constexpr std::uint64_t kOracleSeeds[] = {0ULL, 1ULL, 42ULL,
                                          0x9e3779b97f4a7c15ULL, ~0ULL};

TEST(RngOracle, WordStreamIsMt19937_64) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t got = rng();
      const std::uint64_t want = ref();
      if (got != want) {
        FAIL() << "seed " << seed << " word " << i << ": " << got
               << " != " << want;
      }
    }
  }
}

TEST(RngOracle, SizeDoesNotGrowPastTheStdEngine) {
  EXPECT_LE(sizeof(Rng), sizeof(std::mt19937_64) + sizeof(std::uint64_t));
}

// Every draw kind interleaved with raw words, so each distribution also
// starts at odd word offsets and across the 312-word block boundary. The
// std side constructs a fresh distribution per draw, as Rng does.
TEST(RngOracle, DistributionsAreBitEqualToStdOverMt19937_64) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 200'000; ++i) {
      switch (i % 7) {
        case 0: {
          const double s = 0.05 * (1 + i % 13);
          std::normal_distribution<double> d(0.0, s);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian(s)),
                    std::bit_cast<std::uint64_t>(d(ref)))
              << "gaussian, seed " << seed << " draw " << i;
          break;
        }
        case 1: {
          std::uniform_real_distribution<double> d(-2.5, 7.0);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.uniform(-2.5, 7.0)),
                    std::bit_cast<std::uint64_t>(d(ref)))
              << "uniform, seed " << seed << " draw " << i;
          break;
        }
        case 2: {
          const std::int64_t hi = 1 + i % 1000;
          std::uniform_int_distribution<std::int64_t> d(-3, hi);
          ASSERT_EQ(rng.uniform_int(-3, hi), d(ref))
              << "uniform_int, seed " << seed << " draw " << i;
          break;
        }
        case 3: {
          const double p = (i % 11) / 10.0;
          std::bernoulli_distribution d(p);
          ASSERT_EQ(rng.chance(p), d(ref))
              << "chance, seed " << seed << " draw " << i;
          break;
        }
        case 4: {
          std::normal_distribution<double> d(0.0, 1.0);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian(1.0)),
                    std::bit_cast<std::uint64_t>(d(ref)))
              << "gaussian, seed " << seed << " draw " << i;
          break;
        }
        default:
          ASSERT_EQ(rng(), ref()) << "word, seed " << seed << " draw " << i;
          break;
      }
    }
  }
}

TEST(RngOracle, CopiesAndForksOfUnseededAndMidBlockStreams) {
  // Unseeded: nothing drawn yet, so a copy carries only the seed.
  const Rng fresh(9);
  Rng copy = fresh;
  Rng assigned(1234);
  assigned = fresh;
  std::mt19937_64 ref(9);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t want = ref();
    ASSERT_EQ(copy(), want);
    ASSERT_EQ(assigned(), want);
  }
  // Mid-block: a copy taken after 500 words (one full twist plus part of
  // the next block) continues exactly where its source stands.
  Rng source(9);
  std::mt19937_64 ref2(9);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(source(), ref2());
  Rng mid = source;
  Rng mid_assigned(5);
  (void)mid_assigned();  // seeded target, overwritten by the assignment
  mid_assigned = source;
  Rng& self = mid_assigned;
  mid_assigned = self;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t want = ref2();
    ASSERT_EQ(source(), want);
    ASSERT_EQ(mid(), want);
    ASSERT_EQ(mid_assigned(), want);
  }
  // A fork depends on the seed alone, not on how far the parent has drawn.
  Rng forked_fresh = Rng(9).fork("child");
  Rng forked_mid = source.fork("child");
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(forked_fresh(), forked_mid());
  // A fork is a fresh stream of its derived seed.
  Rng forked = fresh.fork("child");
  std::mt19937_64 ref3(forked.seed());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(forked(), ref3());
}

/// A generator that returns one fixed word, to feed generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(RngOracle, CanonicalIsGenerateCanonicalOfOneWord) {
  const double below_one = std::nextafter(1.0, 0.0);
  const std::uint64_t top = ~0ULL;
  struct Case {
    std::uint64_t word;
    bool clamped;
  };
  // Doubles just below 2^64 are 2^11 apart: the top 1024 words round up
  // to 2^64 (ties to even) and must take the >= 1.0 clamp.
  const Case cases[] = {{0, false},
                        {1, false},
                        {(1ULL << 53) - 1, false},
                        {(1ULL << 53) + 1, false},
                        {(1ULL << 63) + (1ULL << 10), false},
                        {0x00000001ffffffffULL, false},
                        {top - 1024, false},
                        {top - 1023, true},
                        {top - 1, true},
                        {top, true}};
  for (const Case& c : cases) {
    FixedWord g{c.word};
    const double want = std::generate_canonical<double, 53>(g);
    const double got = Rng::canonical(c.word);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "word " << c.word;
    // The conversion itself rounds the clamped words up to 2^64.
    EXPECT_EQ(static_cast<double>(c.word) == 0x1p64, c.clamped)
        << "word " << c.word;
    EXPECT_LE(got, below_one) << "word " << c.word;
  }
  std::mt19937_64 words(3);
  for (int i = 0; i < 100'000; ++i) {
    FixedWord g{words()};
    ASSERT_EQ(std::bit_cast<std::uint64_t>(Rng::canonical(g.word)),
              std::bit_cast<std::uint64_t>(std::generate_canonical<double, 53>(g)));
  }
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

}  // namespace
}  // namespace corun
