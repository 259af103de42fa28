#include "corun/core/sched/plan_cache/caching_scheduler.hpp"

#include <utility>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/registry.hpp"

namespace corun::sched {

CachingScheduler::CachingScheduler(std::unique_ptr<Scheduler> inner,
                                   std::shared_ptr<PlanCache> cache,
                                   std::string registry_id, std::uint64_t seed)
    : inner_(std::move(inner)),
      cache_(std::move(cache)),
      registry_id_(std::move(registry_id)),
      seed_(seed),
      bypass_(registry_id_ == "random") {
  CORUN_CHECK(inner_ != nullptr);
}

Schedule CachingScheduler::plan(const SchedulerContext& ctx) {
  last_exact_hit_ = false;
  if (!cache_ || bypass_) return inner_->plan(ctx);
  CORUN_TRACE_SPAN("sched", "plan_cache.plan");

  // Every cached registry planner is deterministic and ignores its seed
  // ("random", the one seed-sensitive baseline, bypasses the cache above),
  // so the seed is pinned to 0 in the signature: dynamic re-plans derive a
  // fresh seed per event, and keying on it would split identical
  // sub-problems into distinct cache lines.
  const PlanSignature sig = signature_builder_
                                ? signature_builder_->build(ctx, registry_id_, 0)
                                : make_signature(ctx, registry_id_, 0);
  const std::vector<std::string> batch_names = ctx.job_names();
  if (auto hit = cache_->lookup(sig, batch_names)) {
    last_exact_hit_ = true;
    return std::move(*hit);
  }

  if (ctx.incumbent_hint) cache_->count_warm_start(sig);
  Schedule planned = inner_->plan(ctx);
  cache_->store(sig, planned, batch_names);
  return planned;
}

std::unique_ptr<Scheduler> make_cached_scheduler(
    const std::string& name, std::uint64_t seed,
    std::shared_ptr<PlanCache> cache) {
  auto inner = make_scheduler(name, seed);
  if (inner == nullptr) return nullptr;
  if (cache == nullptr) return inner;
  return std::make_unique<CachingScheduler>(std::move(inner),
                                            std::move(cache), name, seed);
}

}  // namespace corun::sched
