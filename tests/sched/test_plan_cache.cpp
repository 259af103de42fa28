// Plan cache: signature canonicalization, deterministic LRU behaviour,
// persistent-tier round trips, and — the property everything else leans
// on — cache-assisted planning returning byte-identical schedules to cold
// planning. The WarmStart suite pins the B&B incumbent hint the dynamic
// runtime's plan repair donates.
#include "corun/core/sched/plan_cache/plan_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/refiner.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/sim/fault_injector.hpp"

namespace corun::sched {
namespace {

using corun::testing::motivation_fixture;

std::string plan_text(const Schedule& s, const SchedulerContext& ctx) {
  return s.to_string(ctx.job_names());
}

/// A scratch directory for the persistent-tier tests, removed on teardown.
class PlanCacheDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("corun_plan_cache_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST(PlanSignature, OrderInvariantAcrossBatchPermutations) {
  const auto& f = motivation_fixture();
  workload::Batch reversed;
  for (auto it = f.batch.jobs().rbegin(); it != f.batch.jobs().rend(); ++it) {
    reversed.add(it->descriptor, it->seed, it->instance_name);
  }
  SchedulerContext forward_ctx = f.context(15.0);
  SchedulerContext reversed_ctx = f.context(15.0);
  reversed_ctx.batch = &reversed;

  const PlanSignature a = make_signature(forward_ctx, "bnb", 0);
  const PlanSignature b = make_signature(reversed_ctx, "bnb", 0);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.job_names, b.job_names);
  EXPECT_TRUE(std::is_sorted(a.job_names.begin(), a.job_names.end()));
}

TEST(PlanSignature, CapAndSchedulerArePartOfTheIdentity) {
  const auto& f = motivation_fixture();
  const PlanSignature low = make_signature(f.context(12.0), "bnb", 0);
  EXPECT_NE(low.canonical,
            make_signature(f.context(18.0), "bnb", 0).canonical);
  EXPECT_NE(low.canonical,
            make_signature(f.context(std::nullopt), "bnb", 0).canonical);
  EXPECT_NE(low.canonical,
            make_signature(f.context(12.0), "hcs+", 0).canonical);
}

TEST(PlanSignature, SeedAndPolicyArePartOfTheIdentity) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  EXPECT_NE(make_signature(ctx, "bnb", 0).canonical,
            make_signature(ctx, "bnb", 1).canonical);
  SchedulerContext cpu_ctx = ctx;
  cpu_ctx.policy = sim::GovernorPolicy::kCpuBiased;
  EXPECT_NE(make_signature(ctx, "bnb", 0).canonical,
            make_signature(cpu_ctx, "bnb", 0).canonical);
}

TEST(PlanCache, FromSpecParsesEveryForm) {
  EXPECT_EQ(PlanCache::from_spec("").value(), nullptr);
  EXPECT_EQ(PlanCache::from_spec("off").value(), nullptr);
  auto mem = PlanCache::from_spec("mem").value();
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->config().capacity, 512u);
  auto sized = PlanCache::from_spec("mem:3").value();
  ASSERT_NE(sized, nullptr);
  EXPECT_EQ(sized->config().capacity, 3u);
  EXPECT_FALSE(PlanCache::from_spec("bogus").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:0").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:x").has_value());
  EXPECT_FALSE(PlanCache::from_spec("dir:").has_value());
}

TEST(PlanCache, LruEvictionOrderIsDeterministic) {
  const auto& f = motivation_fixture();
  // One shard, so all three entries compete for the same two slots.
  auto cache = PlanCache::from_spec("mem:2:1").value();
  BranchAndBoundScheduler bnb;

  const std::vector<Watts> caps = {12.0, 14.0, 16.0};
  std::vector<PlanSignature> sigs;
  for (const Watts cap : caps) {
    const auto ctx = f.context(cap);
    sigs.push_back(make_signature(ctx, "bnb", 0));
    cache->store(sigs.back(), bnb.plan(ctx), ctx.job_names());
  }
  // Capacity 2: storing the third entry evicts the first (LRU).
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->lru_keys(),
            (std::vector<std::string>{sigs[1].canonical, sigs[2].canonical}));
  const auto names = f.context(12.0).job_names();
  EXPECT_FALSE(cache->lookup(sigs[0], names).has_value());

  // Touching the LRU entry promotes it, so the *other* entry is evicted
  // next — the order is purely access-driven, never iteration-driven.
  EXPECT_TRUE(cache->lookup(sigs[1], names).has_value());
  EXPECT_EQ(cache->lru_keys(),
            (std::vector<std::string>{sigs[2].canonical, sigs[1].canonical}));
  const auto ctx18 = f.context(18.0);
  cache->store(make_signature(ctx18, "bnb", 0), bnb.plan(ctx18),
               ctx18.job_names());
  EXPECT_TRUE(cache->lookup(sigs[1], names).has_value());
  EXPECT_FALSE(cache->lookup(sigs[2], names).has_value());
}

TEST_F(PlanCacheDirTest, PersistentTierRoundTripsExactly) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const PlanSignature sig = make_signature(ctx, "bnb", 0);
  BranchAndBoundScheduler bnb;
  const Schedule planned = bnb.plan(ctx);
  const std::string spec = "dir:" + dir_.string();

  {
    auto writer = PlanCache::from_spec(spec).value();
    writer->store(sig, planned, ctx.job_names());
    EXPECT_EQ(writer->stats().io_failures, 0u);
  }
  // One file, named by the canonical hash.
  const auto expected =
      dir_ / ("plan_" + hex64(sig.hash) + ".csv");
  EXPECT_TRUE(std::filesystem::exists(expected));

  // A fresh cache (empty memory tier) must serve the exact schedule from
  // disk, byte-identical in its rendered form.
  auto reader = PlanCache::from_spec(spec).value();
  const auto hit = reader->lookup(sig, ctx.job_names());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(plan_text(*hit, ctx), plan_text(planned, ctx));
  EXPECT_EQ(reader->stats().disk_hits, 1u);
  EXPECT_EQ(reader->stats().hits, 1u);

  // A different request never aliases onto this file.
  const PlanSignature other = make_signature(f.context(16.0), "bnb", 0);
  EXPECT_FALSE(reader->lookup(other, ctx.job_names()).has_value());
}

TEST_F(PlanCacheDirTest, OldFormatEntryIsAMissAndTheNextStoreRewritesIt) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const PlanSignature sig = make_signature(ctx, "bnb", 0);
  const Schedule planned = make_scheduler("bnb", 42)->plan(ctx);
  std::ostringstream schedule_csv;
  schedule_to_csv(planned, ctx.job_names(), schedule_csv);

  // An entry in the older layout, which carried `family` and `makespan`
  // rows between the signature and the job set, at this request's path.
  std::filesystem::create_directories(dir_);
  const auto path = dir_ / ("plan_" + hex64(sig.hash) + ".csv");
  {
    std::ofstream old(path);
    old << "sig," << sig.canonical << "\nfamily,v1;family\nmakespan,1\njobs";
    for (const std::string& name : sig.job_names) old << "," << name;
    old << "\n" << schedule_csv.str();
  }

  const std::string spec = "dir:" + dir_.string();
  auto cache = PlanCache::from_spec(spec).value();
  const Schedule first = make_cached_scheduler("bnb", 42, cache)->plan(ctx);
  EXPECT_EQ(plan_text(first, ctx), plan_text(planned, ctx));
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().disk_hits, 0u);
  EXPECT_EQ(cache->stats().stores, 1u);

  std::ifstream in(path);
  std::ostringstream rewritten;
  rewritten << in.rdbuf();
  EXPECT_EQ(rewritten.str(),
            plan_cache_entry_to_csv(sig.canonical, sig.job_names,
                                    schedule_csv.str()));

  auto reader = PlanCache::from_spec(spec).value();
  const Schedule second = make_cached_scheduler("bnb", 42, reader)->plan(ctx);
  EXPECT_EQ(plan_text(second, ctx), plan_text(planned, ctx));
  EXPECT_EQ(reader->stats().disk_hits, 1u);
  EXPECT_EQ(reader->stats().hits, 1u);
}

TEST(PlanCacheEntry, CsvCarriesFullSignatureAndJobSet) {
  EXPECT_EQ(plan_cache_entry_to_csv("v1;canonical", {"a", "b"},
                                    "flags,0,0,0\n"),
            "sig,v1;canonical\njobs,a,b\nflags,0,0,0\n");
}

TEST(CachingScheduler, ExactHitReplaysTheIdenticalSchedule) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  auto cache = PlanCache::from_spec("mem").value();
  auto cached = make_cached_scheduler("bnb", 42, cache);
  auto cold = make_scheduler("bnb", 42);

  const Schedule first = cached->plan(ctx);
  const Schedule second = cached->plan(ctx);
  EXPECT_EQ(plan_text(first, ctx), plan_text(cold->plan(ctx), ctx));
  EXPECT_EQ(plan_text(second, ctx), plan_text(first, ctx));
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(CachingScheduler, MissCarryingACallerHintCountsAsWarm) {
  const auto& f = motivation_fixture();
  auto cache = PlanCache::from_spec("mem").value();
  auto cached = make_cached_scheduler("bnb", 42, cache);

  const Schedule donor = cached->plan(f.context(15.0));  // no hint
  EXPECT_EQ(cache->stats().warm_hits, 0u);

  // The dynamic runtime's plan repair: a miss that reaches the search
  // with a hint. The hint may only prune, never change the schedule.
  SchedulerContext ctx = f.context(13.0);
  ctx.incumbent_hint = donor;
  const Schedule warm_plan = cached->plan(ctx);
  EXPECT_EQ(plan_text(warm_plan, ctx),
            plan_text(make_scheduler("bnb", 42)->plan(f.context(13.0)), ctx));
  EXPECT_EQ(cache->stats().warm_hits, 1u);

  // An exact hit never reaches the search, so its hint is not counted.
  (void)cached->plan(ctx);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().warm_hits, 1u);
}

TEST(CachingScheduler, NullCacheAndRandomSchedulerBypass) {
  EXPECT_EQ(make_cached_scheduler("nonsense", 42, nullptr), nullptr);
  auto plain = make_cached_scheduler("bnb", 42, nullptr);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->name(), "BnB");

  // "random" is seed-sensitive by design; the wrapper must not memoize it.
  const auto& f = motivation_fixture();
  auto cache = PlanCache::from_spec("mem").value();
  auto random = make_cached_scheduler("random", 7, cache);
  (void)random->plan(f.context(15.0));
  (void)random->plan(f.context(15.0));
  EXPECT_EQ(cache->stats().hits + cache->stats().misses, 0u);
}

TEST(WarmStart, EqualsColdBnbOnFiftySeededScenarios) {
  const auto& f = motivation_fixture();
  // Walk a 50-point cap ladder; each scenario donates the previous cap's
  // *refined* schedule as the warm-start hint — what a plan repair after a
  // cap change feeds the search. The warm run may only prune harder, never
  // land on a different schedule.
  HcsPlusScheduler hcs_plus;
  Schedule donor = hcs_plus.plan(f.context(10.0));
  std::size_t cold_nodes = 0;
  std::size_t warm_nodes = 0;
  for (int i = 0; i < 50; ++i) {
    const Watts cap = 10.0 + 0.2 * i;
    const auto ctx = f.context(cap);

    BranchAndBoundScheduler cold;
    const Schedule cold_plan = cold.plan(ctx);
    EXPECT_FALSE(cold.warm_started());

    SchedulerContext warmed = ctx;
    warmed.incumbent_hint = donor;
    BranchAndBoundScheduler warm;
    const Schedule warm_plan = warm.plan(warmed);
    EXPECT_TRUE(warm.warm_started());

    ASSERT_EQ(plan_text(warm_plan, ctx), plan_text(cold_plan, ctx))
        << "warm-started B&B diverged at cap " << cap;
    cold_nodes += cold.nodes_visited();
    warm_nodes += warm.nodes_visited();
    donor = cold_plan;
  }
  EXPECT_LE(warm_nodes, cold_nodes);
}

TEST(WarmStart, RefinedSameCapDonorCannotSteerTheSearch) {
  // The adversarial donor: B&B's own output for the *same* request. Its
  // order was polished by the post-search Refiner, so its makespan can lie
  // strictly below every index-order leaf the search enumerates — fed
  // straight into the strict pruning bound it would cut the path to the
  // cold winner and degrade the result to the HCS+ seed. The leaf-space
  // re-encoding must keep warm byte-identical to cold anyway.
  const auto& f = motivation_fixture();
  for (const Watts cap : {11.0, 13.0, 15.0, 17.0}) {
    const auto ctx = f.context(cap);
    BranchAndBoundScheduler cold;
    const Schedule cold_plan = cold.plan(ctx);

    SchedulerContext warmed = ctx;
    warmed.incumbent_hint = cold_plan;
    BranchAndBoundScheduler warm;
    const Schedule warm_plan = warm.plan(warmed);
    EXPECT_TRUE(warm.warm_started());
    ASSERT_EQ(plan_text(warm_plan, ctx), plan_text(cold_plan, ctx))
        << "refined same-cap donor steered the search at cap " << cap;
    EXPECT_LE(warm.nodes_visited(), cold.nodes_visited());
  }
}

TEST(WarmStart, BudgetThatCouldBindDisablesTheHint) {
  // With a node budget a full enumeration could exceed, warm pruning would
  // shift which leaves the truncated search sees; the hint must turn
  // itself off and the result must match the equally-budgeted cold run.
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  BranchAndBoundOptions opts;
  opts.node_budget = 16;  // 4 jobs: full tree is 2^5-1 = 31 > 16

  BranchAndBoundScheduler cold(opts);
  const Schedule cold_plan = cold.plan(ctx);

  SchedulerContext warmed = ctx;
  warmed.incumbent_hint = BranchAndBoundScheduler().plan(ctx);
  BranchAndBoundScheduler warm(opts);
  const Schedule warm_plan = warm.plan(warmed);
  EXPECT_FALSE(warm.warm_started());
  EXPECT_EQ(plan_text(warm_plan, ctx), plan_text(cold_plan, ctx));
}

TEST(DynamicRuntimePlanCache, CacheOnAndOffAreByteIdentical) {
  const auto& f = motivation_fixture();
  const sim::FaultPlan plan =
      sim::generate_fault_plan_from_spec(
          "random:arrivals=1,caps=2,horizon=40,seed=7,programs=lud")
          .value();

  runtime::DynamicOptions options;
  options.cap = 15.0;
  options.seed = 42;
  options.scheduler = "bnb";

  const runtime::DynamicRuntime cold_rt(f.config, options);
  const runtime::DynamicReport cold =
      cold_rt.execute(f.batch, f.artifacts.db, f.artifacts.grid, plan);

  options.plan_cache = PlanCache::from_spec("mem").value();
  const runtime::DynamicRuntime cached_rt(f.config, options);
  const runtime::DynamicReport cached =
      cached_rt.execute(f.batch, f.artifacts.db, f.artifacts.grid, plan);

  EXPECT_EQ(cached.summary(), cold.summary());
  ASSERT_EQ(cached.report.jobs.size(), cold.report.jobs.size());
  for (std::size_t i = 0; i < cold.report.jobs.size(); ++i) {
    EXPECT_EQ(cached.report.jobs[i].name, cold.report.jobs[i].name);
    EXPECT_EQ(cached.report.jobs[i].device, cold.report.jobs[i].device);
    EXPECT_EQ(cached.report.jobs[i].start, cold.report.jobs[i].start);
    EXPECT_EQ(cached.report.jobs[i].finish, cold.report.jobs[i].finish);
  }
  EXPECT_EQ(cold.plan_cache_hits + cold.plan_cache_misses, 0u);
  EXPECT_GT(cached.plan_cache_hits + cached.plan_cache_misses, 0u);

  // Replaying the same scenario against the *same* cache turns the replans
  // into hits without perturbing the report.
  const runtime::DynamicReport replay =
      cached_rt.execute(f.batch, f.artifacts.db, f.artifacts.grid, plan);
  EXPECT_EQ(replay.summary(), cold.summary());
  EXPECT_GT(replay.plan_cache_hits, 0u);
}

}  // namespace
}  // namespace corun::sched
