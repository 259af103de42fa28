// Sharded plan cache: shard placement, spec parsing, and — the contract
// the serving daemon stands on — concurrent hammering with exact aggregate
// stats and per-request byte-identical results. Run under the tsan preset
// to certify the locking discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"

namespace corun::sched {
namespace {

using corun::testing::motivation_fixture;

/// A signature population spanning `families` families ("bnb" under
/// distinct seeds) with `caps_per_family` distinct caps each. Shard
/// placement follows each signature's hash, so the population spreads over
/// every shard and still collides within some.
std::vector<PlanSignature> make_population(std::size_t families,
                                           std::size_t caps_per_family) {
  const auto& f = motivation_fixture();
  std::vector<PlanSignature> sigs;
  for (std::size_t fam = 0; fam < families; ++fam) {
    for (std::size_t c = 0; c < caps_per_family; ++c) {
      const auto ctx = f.context(10.0 + 0.25 * static_cast<double>(c));
      sigs.push_back(make_signature(ctx, "bnb", fam));
    }
  }
  return sigs;
}

/// Runs `fn(thread_index)` on `threads` std::threads and joins them.
void run_threads(std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
}

TEST(ShardedPlanCache, EntriesOfOneFamilySpreadOverShardsBySignatureHash) {
  const auto& f = motivation_fixture();
  const Schedule schedule = BranchAndBoundScheduler().plan(f.context(15.0));
  const auto names = f.context(15.0).job_names();
  auto cache = PlanCache::from_spec("mem:4:8").value();
  ASSERT_EQ(cache->config().shards, 8u);

  // One scheduler over one set of model artifacts at 64 caps — what a
  // one-artifact daemon sees. Placement is the signature hash mod shards,
  // so the caps spread (collision-proof pigeonhole, not a hash test) and
  // the cache holds more than one shard's capacity of them.
  std::vector<bool> seen(8, false);
  for (int c = 0; c < 64; ++c) {
    const PlanSignature sig =
        make_signature(f.context(10.0 + 0.125 * c), "bnb", 7);
    EXPECT_EQ(cache->shard_index(sig.hash), sig.hash % 8u);
    seen[cache->shard_index(sig.hash)] = true;
    cache->store(sig, schedule, names);
  }
  EXPECT_GT(std::count(seen.begin(), seen.end(), true), 1);
  EXPECT_GT(cache->size(), cache->config().capacity);
}

TEST(ShardedPlanCache, FromSpecParsesShardCount) {
  auto sized = PlanCache::from_spec("mem:3:4").value();
  ASSERT_NE(sized, nullptr);
  EXPECT_EQ(sized->config().capacity, 3u);
  EXPECT_EQ(sized->config().shards, 4u);
  EXPECT_EQ(PlanCache::from_spec("mem").value()->config().shards, 8u);
  EXPECT_FALSE(PlanCache::from_spec("mem:3:0").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:3:x").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:3:4:5").has_value());
}

TEST(ShardedPlanCache, ConcurrentStoresUnderEvictionPressureKeepExactStats) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const Schedule schedule = BranchAndBoundScheduler().plan(ctx);
  const auto names = ctx.job_names();

  constexpr std::size_t kCapacity = 2;  // per shard — forces evictions
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kThreads = 8;
  auto cache = PlanCache::from_spec("mem:2:4").value();
  ASSERT_EQ(cache->config().capacity, kCapacity);
  ASSERT_EQ(cache->config().shards, kShards);

  const std::vector<PlanSignature> sigs = make_population(12, 5);

  // Disjoint slices stored concurrently. Which entries survive in an
  // overflowing shard depends on interleaving, but the *counts* do not:
  // every insert beyond a shard's capacity evicts exactly one entry.
  run_threads(kThreads, [&](std::size_t t) {
    for (std::size_t i = t; i < sigs.size(); i += kThreads) {
      cache->store(sigs[i], schedule, names);
    }
  });

  std::vector<std::size_t> per_shard(kShards, 0);
  for (const PlanSignature& sig : sigs) {
    ++per_shard[cache->shard_index(sig.hash)];
  }
  std::size_t expect_evictions = 0;
  std::size_t expect_size = 0;
  for (const std::size_t n : per_shard) {
    expect_evictions += n > kCapacity ? n - kCapacity : 0;
    expect_size += std::min(n, kCapacity);
  }
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.stores, sigs.size());
  EXPECT_EQ(stats.evictions, expect_evictions);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(cache->size(), expect_size);
  EXPECT_EQ(cache->lru_keys().size(), expect_size);
}

TEST(ShardedPlanCache, ConcurrentMixedLookupsAreExactAndDeterministic) {
  const auto& f = motivation_fixture();
  const auto names = f.context(15.0).job_names();

  // Distinct schedules per cap so a hit returning the *wrong* entry's
  // bytes cannot go unnoticed.
  constexpr std::size_t kCaps = 4;
  std::vector<Schedule> schedules;
  std::vector<std::string> expected_text;
  for (std::size_t c = 0; c < kCaps; ++c) {
    const auto ctx = f.context(10.0 + 0.25 * static_cast<double>(c));
    schedules.push_back(BranchAndBoundScheduler().plan(ctx));
    expected_text.push_back(schedules.back().to_string(names));
  }

  constexpr std::size_t kFamilies = 6;
  constexpr std::size_t kThreads = 8;
  // Capacity large enough that nothing evicts: residency is total, so
  // every exact lookup must hit and the aggregate counts are exact.
  auto cache = PlanCache::from_spec("mem:64:4").value();
  const std::vector<PlanSignature> sigs = make_population(kFamilies, kCaps);
  ASSERT_EQ(sigs.size(), kFamilies * kCaps);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    cache->store(sigs[i], schedules[i % kCaps], names);
  }

  // Never-stored signatures (an unseen cap per family): deterministic
  // misses.
  std::vector<PlanSignature> absent;
  for (std::size_t fam = 0; fam < kFamilies; ++fam) {
    absent.push_back(make_signature(f.context(99.0), "bnb", fam));
  }

  std::atomic<std::size_t> mismatches{0};
  run_threads(kThreads, [&](std::size_t t) {
    // Stagger start offsets so threads collide on different shards first.
    for (std::size_t k = 0; k < sigs.size(); ++k) {
      const std::size_t i = (k + t * 3) % sigs.size();
      const auto hit = cache->lookup(sigs[i], names);
      if (!hit.has_value() ||
          hit->to_string(names) != expected_text[i % kCaps]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (const PlanSignature& sig : absent) {
      if (cache->lookup(sig, names).has_value()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  EXPECT_EQ(mismatches.load(), 0u);
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.stores, sigs.size());
  EXPECT_EQ(stats.hits, kThreads * sigs.size());
  EXPECT_EQ(stats.misses, kThreads * absent.size());
  EXPECT_EQ(stats.warm_hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache->size(), sigs.size());
}

TEST(ShardedPlanCache, HammerMixedOperationsStayConsistent) {
  // The everything-at-once hammer: concurrent stores and exact lookups
  // over overlapping keys with real eviction pressure. No
  // residency is guaranteed, so the assertions are the invariants that
  // must survive any interleaving: a hit's bytes always match what was
  // stored for that signature, sizes never exceed capacity, and the
  // accounting identities hold. This is the tsan workout for the
  // per-shard locking discipline.
  const auto& f = motivation_fixture();
  const auto names = f.context(15.0).job_names();

  constexpr std::size_t kCaps = 3;
  std::vector<Schedule> schedules;
  std::map<std::string, std::string> text_by_canonical;
  const std::vector<PlanSignature> sigs = make_population(8, kCaps);
  for (std::size_t c = 0; c < kCaps; ++c) {
    schedules.push_back(BranchAndBoundScheduler().plan(
        f.context(10.0 + 0.25 * static_cast<double>(c))));
  }
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    text_by_canonical[sigs[i].canonical] =
        schedules[i % kCaps].to_string(names);
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 40;
  auto cache = PlanCache::from_spec("mem:2:4").value();

  std::atomic<std::size_t> lookups{0};
  std::atomic<std::size_t> store_calls{0};
  std::atomic<std::size_t> bad_bytes{0};
  run_threads(kThreads, [&](std::size_t t) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        const std::size_t k = (i + t) % sigs.size();
        if ((round + t + k) % 3 == 0) {
          cache->store(sigs[k], schedules[k % kCaps], names);
          store_calls.fetch_add(1, std::memory_order_relaxed);
        } else {
          const auto hit = cache->lookup(sigs[k], names);
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (hit.has_value() && hit->to_string(names) !=
                                     text_by_canonical[sigs[k].canonical]) {
            bad_bytes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
  });

  EXPECT_EQ(bad_bytes.load(), 0u);
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.stores, store_calls.load());
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_LE(cache->size(),
            cache->config().capacity * cache->config().shards);
  // Eviction accounting: every store either grew a shard or evicted one
  // entry (refreshes excepted), so evictions can never exceed stores.
  EXPECT_LE(stats.evictions, stats.stores);
}

TEST(ShardedPlanCache, SnapshotDiffAroundAPhaseIsExact) {
  // The DynamicRuntime contract: snapshot stats, run a phase, snapshot
  // again; the diff attributes exactly that phase's activity even if the
  // cache was already warm.
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const Schedule schedule = BranchAndBoundScheduler().plan(ctx);
  const auto names = ctx.job_names();
  auto cache = PlanCache::from_spec("mem:8:2").value();

  const PlanSignature sig = make_signature(ctx, "bnb", 0);
  cache->store(sig, schedule, names);  // pre-phase warmth

  const PlanCacheStats before = cache->stats();
  (void)cache->lookup(sig, names);                        // hit
  (void)cache->lookup(make_signature(ctx, "bnb", 1), names);  // miss
  const PlanCacheStats after = cache->stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.stores - before.stores, 0u);
}

}  // namespace
}  // namespace corun::sched
