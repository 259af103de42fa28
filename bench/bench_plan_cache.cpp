// Plan-cache payoff: how much search the memoization layer actually
// saves, on the 8-program batch with the B&B planner (the expensive search
// the cache exists to amortize). Repeated-request throughput: the same cap
// ladder planned over and over, cold (no cache, full search each time) vs
// hot (memory tier, every request an exact hit). An exact hit costs one
// signature digest plus a map lookup, orders of magnitude below a search.
//
// Writes BENCH_plan_cache.json with *_per_wall rate keys so
// scripts/check_bench_regression.py can gate on them.
//
//   ./bench_plan_cache [out.json]     (default: BENCH_plan_cache.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corun/common/check.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/workload/batch.hpp"

namespace {

using namespace corun;

std::vector<Watts> cap_ladder() {
  std::vector<Watts> caps;
  for (double cap = 10.0; cap <= 20.0; cap += 1.0) caps.push_back(cap);
  return caps;
}

sched::SchedulerContext make_ctx(const workload::Batch& batch,
                                 const model::CoRunPredictor& predictor,
                                 Watts cap) {
  sched::SchedulerContext ctx;
  ctx.batch = &batch;
  ctx.predictor = &predictor;
  ctx.cap = cap;
  return ctx;
}

/// Plans every cap in the ladder once through `scheduler`; returns wall
/// seconds.
double ladder_pass(sched::Scheduler& scheduler, const workload::Batch& batch,
                   const model::CoRunPredictor& predictor,
                   const std::vector<Watts>& caps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const Watts cap : caps) {
    const sched::SchedulerContext ctx = make_ctx(batch, predictor, cap);
    const sched::Schedule schedule = scheduler.plan(ctx);
    CORUN_CHECK(schedule.job_count() == batch.size());
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Plan cache",
                "Exact-hit replay throughput on a repeated cap-ladder "
                "workload.");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_plan_cache.json";
  const bool quick = bench::quick_mode();

  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_8(42);
  const runtime::ModelArtifacts artifacts =
      quick ? bench::quick_artifacts(config, batch)
            : bench::full_artifacts(config, batch);
  const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);
  const std::vector<Watts> caps = cap_ladder();

  const int rounds = quick ? 2 : 3;
  const int hit_passes_per_round = 8;  // hits are cheap; batch them
  auto cold_scheduler = sched::make_scheduler("bnb", 42);
  auto cache = sched::PlanCache::from_spec("mem").value();
  auto hot_scheduler = sched::make_cached_scheduler("bnb", 42, cache);
  (void)ladder_pass(*hot_scheduler, batch, predictor, caps);  // populate
  CORUN_CHECK(cache->stats().stores == caps.size());

  // Best-of-rounds on both sides: machine noise hits cold and hot alike,
  // and one fast round proves the path's true cost.
  double best_cold = 0.0;
  double best_hit = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const double cold_wall =
        ladder_pass(*cold_scheduler, batch, predictor, caps);
    double hit_wall = 0.0;
    for (int pass = 0; pass < hit_passes_per_round; ++pass) {
      hit_wall += ladder_pass(*hot_scheduler, batch, predictor, caps);
    }
    if (cold_wall > 0.0) {
      best_cold = std::max(
          best_cold, static_cast<double>(caps.size()) / cold_wall);
    }
    if (hit_wall > 0.0) {
      best_hit = std::max(best_hit,
                          static_cast<double>(caps.size()) *
                              hit_passes_per_round / hit_wall);
    }
  }
  const sched::PlanCacheStats stats = cache->stats();
  CORUN_CHECK(stats.hits > 0 && stats.misses == caps.size());
  const double hit_speedup = best_cold > 0.0 ? best_hit / best_cold : 0.0;

  Table table({"measurement", "cold", "hot", "gain"});
  table.add_row({"plans/s (11-cap ladder)", Table::num(best_cold),
                 Table::num(best_hit),
                 Table::num(hit_speedup) + "x"});
  std::printf("%s\n", table.render().c_str());

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"plan_cache\",\n"
                "  \"cold_plans_per_wall\": %.1f,\n"
                "  \"hit_plans_per_wall\": %.1f,\n"
                "  \"exact_hit_speedup\": %.1f\n}\n",
                best_cold, best_hit, hit_speedup);
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::fputs(buf, out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
