// The traced in-process replay: the same inputs the end-to-end run hands
// the tools, driven through each layer's public functions with the
// benchmark's own spans around every call. Nothing inside src/ is changed;
// the program's own spans and counters (bnb.plan, dynamic.replan,
// engine.*, thermal.*, ...) are read through corun::trace and folded per
// traced op.
//
// Ops alternate: even ops run with every span off (the untraced in-process
// op time), odd ops are traced. Each traced op is one root span "op" whose
// children are the top-level layers; sub-layer replays (signature, lookup,
// evaluator, lower bound, report render, strategy divide, predictor build)
// run outside it as their own root spans so they never distort coverage.
//
// Outputs (the math lives in perfbench/benchlib/stats.py):
//   <prefix>.spans    op,id,parent,name,start_ns,end_ns
//   <prefix>.values   "<key> <value>" per observation
//   <prefix>.program  "span <name> <count> <total_us>" and
//                     "counter <name> <total>"
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corun/common/rng.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/fleet/fleet.hpp"
#include "corun/core/fleet/power_strategy.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/profile/profile_db.hpp"
#include "corun/sim/fault_injector.hpp"
#include "corun/sim/machine_model.hpp"
#include "corun/workload/batch.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The benchmark's own span recorder: records stay in memory (names are
/// string literals) and are written once at the end, so recording never
/// does IO inside a measured interval.
class SpanLog {
 public:
  struct Record {
    std::uint64_t op = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  void set_op(std::uint64_t op) { op_ = op; }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "op,id,parent,name,start_ns,end_ns\n";
    for (const Record& r : records_) {
      out << r.op << ',' << r.id << ',' << r.parent << ',' << r.name << ','
          << r.start_ns << ',' << r.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::size_t open(const char* name) {
    Record r;
    r.op = op_;
    r.id = static_cast<std::uint32_t>(records_.size() + 1);
    r.parent = stack_.empty() ? 0 : records_[stack_.back()].id;
    r.name = name;
    records_.push_back(r);
    stack_.push_back(records_.size() - 1);
    records_.back().start_ns = now_ns();
    return records_.size() - 1;
  }
  void close(std::size_t index) {
    records_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
  std::uint64_t op_ = 0;
};

/// Per-observation scalar values plus the program's own trace totals. The
/// program's tracing is armed only inside traced ops, so its totals cover
/// exactly those ops.
class Recorder {
 public:
  Recorder() { corun::trace::reset(); }

  void value(const std::string& key, double v) { values_[key].push_back(v); }

  /// Runs `fn` with the program's tracing armed.
  template <typename Fn>
  void program_traced(Fn&& fn) {
    corun::trace::set_enabled(true);
    fn();
    corun::trace::set_enabled(false);
  }

  bool write(const std::string& prefix) const {
    std::ofstream values(prefix + ".values");
    for (const auto& [key, list] : values_) {
      for (const double v : list) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        values << key << ' ' << buf << '\n';
      }
    }
    std::ofstream program(prefix + ".program");
    for (const auto& s : corun::trace::span_totals()) {
      program << "span " << s.name << ' ' << s.count << ' ' << s.total_us
              << '\n';
    }
    for (const auto& c : corun::trace::counter_totals()) {
      program << "counter " << c.name << ' ' << c.total << '\n';
    }
    return static_cast<bool>(values) && static_cast<bool>(program);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

double ns_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0);
}

template <typename T>
T must(corun::Expected<T> value, const char* what) {
  if (!value.has_value()) {
    std::fprintf(stderr, "perfbench-probe trace: %s: %s\n", what,
                 value.error().message.c_str());
    std::exit(1);
  }
  return std::move(value).value();
}

struct Artifacts {
  corun::workload::Batch batch;
  corun::profile::ProfileDB db;
  corun::model::DegradationGrid grid;
};

/// What corun-schedule / corun-served / corun-run load before any work.
Artifacts load_artifacts(const std::string& dir) {
  return Artifacts{
      must(corun::workload::batch_from_csv(slurp(dir + "/batch.csv")), "batch"),
      must(corun::profile::ProfileDB::read_csv(slurp(dir + "/profiles.csv")),
           "profiles"),
      must(corun::model::DegradationGrid::read_csv(slurp(dir + "/grid.csv")),
           "grid")};
}

/// CoRunPredictor construction plus the first query, which builds the
/// dense analytic tables.
void build_predictor(const corun::profile::ProfileDB& db,
                     const corun::model::DegradationGrid& grid,
                     const std::string& cpu_job, const std::string& gpu_job) {
  const corun::model::CoRunPredictor predictor(db, grid,
                                               corun::sim::ivy_bridge());
  (void)predictor.predict(cpu_job, 0, gpu_job, 0);
}

/// Op budget of a traced run: at least one untraced and one traced op,
/// then until the deadline or the op cap (which bounds the span log).
class Loop {
 public:
  Loop(double seconds, std::uint64_t max_ops)
      : deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds))),
        max_ops_(max_ops) {}
  bool next(std::uint64_t op) const {
    return op < 2 || (op < max_ops_ && Clock::now() < deadline_);
  }

 private:
  Clock::time_point deadline_;
  std::uint64_t max_ops_;
};

// ---- serve-hit / serve-miss -------------------------------------------------

int trace_serve(const std::string& dir, double seconds,
                std::uint64_t max_ops, bool cycle, SpanLog& spans,
                Recorder& rec) {
  std::uint64_t t0 = now_ns();
  const Artifacts art = load_artifacts(dir);
  rec.value("tools.load_ns", ns_since(t0));
  const std::string job0 = art.batch.job(0).instance_name;
  const std::string job1 = art.batch.job(1).instance_name;
  t0 = now_ns();
  build_predictor(art.db, art.grid, job0, job1);
  rec.value("model.predictor_build_ns", ns_since(t0));

  const corun::model::CoRunPredictor predictor(art.db, art.grid,
                                               corun::sim::ivy_bridge());
  auto cache = must(corun::sched::PlanCache::from_spec("mem"), "plan cache");
  const corun::serve::PlanService service(art.batch, predictor, cache);
  const corun::sched::SignatureBuilder signatures(predictor);
  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < art.batch.size(); ++i) {
    by_name[art.batch.job(i).instance_name] = i;
  }

  for (const auto& request :
       must(corun::serve::load_request_trace(dir + "/fill.csv"), "fill")) {
    must(service.plan(request), "fill plan");
  }
  const auto timed =
      must(corun::serve::load_request_trace(dir + "/timed.csv"), "timed");

  const Loop loop(seconds, max_ops);
  for (std::uint64_t op = 0; loop.next(op); ++op) {
    if (!cycle && op >= timed.size()) break;
    corun::serve::PlanRequest request = timed[op % timed.size()];
    request.seq = op;
    const std::string payload = corun::serve::request_to_payload(request);

    if (op % 2 == 0) {
      t0 = now_ns();
      auto parsed = must(corun::serve::request_from_payload(payload), "parse");
      auto result = must(service.plan(parsed), "plan");
      corun::serve::PlanResponse response;
      response.seq = parsed.seq;
      response.body = std::move(result.text);
      (void)corun::serve::response_to_payload(response);
      rec.value("op_untraced_ns", ns_since(t0));
      continue;
    }

    spans.set_op(op);
    // The request's planning context, resolved as PlanService does.
    corun::workload::Batch sub;
    for (const std::string& name : request.jobs) {
      const auto& job = art.batch.job(by_name.at(name));
      sub.add(job.descriptor, job.seed, job.instance_name);
    }
    corun::sched::SchedulerContext ctx;
    ctx.batch = request.jobs.empty() ? &art.batch : &sub;
    ctx.predictor = &predictor;
    ctx.cap = request.cap;
    ctx.policy = request.policy == "cpu"
                     ? corun::sim::GovernorPolicy::kCpuBiased
                     : corun::sim::GovernorPolicy::kGpuBiased;
    const std::vector<std::string> names = ctx.job_names();
    {
      corun::sched::PlanSignature sig;
      {
        const SpanLog::Scope s(spans, "plan_cache.signature");
        sig = signatures.build(ctx, request.scheduler, request.seed);
      }
      const SpanLog::Scope s(spans, "plan_cache.lookup");
      (void)cache->lookup(sig, names);
    }

    const corun::sched::PlanCacheStats before = cache->stats();
    corun::serve::PlanResult result;
    rec.program_traced([&] {
      const SpanLog::Scope op_span(spans, "op");
      corun::serve::PlanRequest parsed;
      {
        const SpanLog::Scope s(spans, "serve.parse");
        parsed = must(corun::serve::request_from_payload(payload), "parse");
      }
      {
        const SpanLog::Scope s(spans, "serve.plan");
        result = must(service.plan(parsed), "plan");
      }
      const SpanLog::Scope s(spans, "serve.encode");
      corun::serve::PlanResponse response;
      response.seq = parsed.seq;
      response.body = result.text;
      (void)corun::serve::response_to_payload(response);
    });
    const corun::sched::PlanCacheStats after = cache->stats();
    rec.value("cache.hits", static_cast<double>(after.hits - before.hits));
    rec.value("cache.misses",
              static_cast<double>(after.misses - before.misses));
    rec.value("cache.warm_hits",
              static_cast<double>(after.warm_hits - before.warm_hits));
    rec.value("cache.evictions",
              static_cast<double>(after.evictions - before.evictions));

    {
      const SpanLog::Scope s(spans, "sched.evaluate");
      const corun::sched::MakespanEvaluator evaluator(ctx);
      if (evaluator.makespan(result.schedule) != result.makespan) {
        std::fputs("perfbench-probe trace: evaluator replay differs\n", stderr);
        return 1;
      }
    }
    {
      const SpanLog::Scope s(spans, "sched.lower_bound");
      if (corun::sched::compute_lower_bound(ctx).t_low_tight !=
          result.lower_bound) {
        std::fputs("perfbench-probe trace: lower-bound replay differs\n",
                   stderr);
        return 1;
      }
    }
    const SpanLog::Scope s(spans, "serve.render_report");
    if (corun::serve::render_plan_report(
            result.scheduler_name, result.schedule.to_string(result.job_names),
            result.makespan, result.lower_bound) != result.text) {
      std::fputs("perfbench-probe trace: render replay differs\n", stderr);
      return 1;
    }
  }
  return 0;
}

// ---- dynamic ----------------------------------------------------------------

int trace_dynamic(const std::string& dir, double seconds,
                  std::uint64_t max_ops, SpanLog& spans, Recorder& rec) {
  corun::sim::set_default_thermal(true);
  std::vector<std::string> plans;
  for (int i = 0; i < 8; ++i) {
    plans.push_back(dir + "/faults" + std::to_string(i) + ".csv");
  }
  corun::runtime::DynamicOptions opts;
  opts.cap = 15.0;
  opts.scheduler = "bnb";
  opts.thermal = true;

  // One corun-run --events op, layer by layer.
  auto one_op = [&](std::uint64_t op) {
    Artifacts art;
    corun::sim::FaultPlan plan;
    {
      const SpanLog::Scope s(spans, "tools.load");
      art = load_artifacts(dir);
      plan = must(corun::sim::fault_plan_from_csv(slurp(plans[op % 8])),
                  "fault plan");
    }
    {
      const SpanLog::Scope s(spans, "model.predictor_build");
      build_predictor(art.db, art.grid, art.batch.job(0).instance_name,
                      art.batch.job(1).instance_name);
    }
    corun::runtime::DynamicReport report;
    {
      const SpanLog::Scope s(spans, "runtime.execute");
      const corun::runtime::DynamicRuntime runner(corun::sim::ivy_bridge(),
                                                  opts);
      report = runner.execute(art.batch, art.db, art.grid, plan);
    }
    const SpanLog::Scope s(spans, "tools.render");
    (void)report.summary();
    return report;
  };

  const Loop loop(seconds, max_ops);
  for (std::uint64_t op = 0; loop.next(op); ++op) {
    if (op % 2 == 0) {
      const std::uint64_t t0 = now_ns();
      (void)one_op(op);
      rec.value("op_untraced_ns", ns_since(t0));
      continue;
    }
    spans.set_op(op);
    corun::runtime::DynamicReport report;
    rec.program_traced([&] {
      const SpanLog::Scope op_span(spans, "op");
      report = one_op(op);
    });
    rec.value("sim.makespan_s", report.report.makespan);
    rec.value("runtime.replans", static_cast<double>(report.replans));
  }
  return 0;
}

// ---- fleet ------------------------------------------------------------------

int trace_fleet(const std::string& dir, double seconds,
                std::uint64_t max_ops, SpanLog& spans, Recorder& rec) {
  const corun::sim::MachineConfig config = corun::sim::ivy_bridge();
  corun::fleet::FleetOptions opts;
  opts.machines = 1024;
  opts.global_cap = 11.0 * 1024.0;
  opts.strategy = "marginal";

  // The synthetic demand vector the divide replay runs over: 1024 live
  // machines of three jobs each, as the fleet assigns them.
  std::vector<corun::fleet::MachineDemand> demands(opts.machines);
  corun::Rng rng(7);
  for (auto& d : demands) d = {true, rng.uniform(60.0, 180.0), 3};
  const auto strategy =
      must(corun::fleet::make_power_strategy(opts.strategy), "strategy");
  const corun::fleet::SpeedCurve curve =
      corun::fleet::SpeedCurve::from_machine(config);

  // One corun-fleet op, layer by layer (artifacts exactly as the tool
  // builds them).
  corun::runtime::ModelArtifacts last_artifacts;
  auto one_op = [&]() {
    corun::fleet::FleetPlan plan;
    corun::runtime::ModelArtifacts artifacts;
    {
      const SpanLog::Scope s(spans, "tools.load");
      plan = must(corun::fleet::fleet_plan_from_csv(slurp(dir + "/fleet.csv")),
                  "fleet plan");
      const auto reference = must(corun::fleet::make_fleet_reference_batch(
                                      corun::fleet::default_fleet_programs()),
                                  "reference batch");
      corun::runtime::ArtifactOptions art;
      art.seed = opts.seed;
      art.backend.kind = corun::sim::BackendKind::kAnalytic;
      art.backend.replay_path.clear();
      art.cpu_levels = {0, 5, 10, 15};
      art.gpu_levels = {0, 3, 6, 9};
      art.grid_axis = {0.0, 4.0, 8.0, 11.0};
      artifacts = corun::runtime::build_artifacts(config, reference, art);
    }
    corun::fleet::FleetReport report;
    {
      const SpanLog::Scope s(spans, "fleet.execute");
      const corun::fleet::Fleet fleet(config, opts);
      report = must(fleet.execute(plan, artifacts), "fleet");
    }
    const SpanLog::Scope s(spans, "tools.render");
    (void)report.summary();
    last_artifacts = std::move(artifacts);
    return report;
  };

  const Loop loop(seconds, max_ops);
  for (std::uint64_t op = 0; loop.next(op); ++op) {
    if (op % 2 == 0) {
      const std::uint64_t t0 = now_ns();
      (void)one_op();
      rec.value("op_untraced_ns", ns_since(t0));
      continue;
    }
    spans.set_op(op);
    corun::fleet::FleetReport report;
    rec.program_traced([&] {
      const SpanLog::Scope op_span(spans, "op");
      report = one_op();
    });
    rec.value("sim.makespan_s", report.fleet_makespan);
    rec.value("runtime.replans", static_cast<double>(report.replans));
    {
      const SpanLog::Scope s(spans, "fleet.divide");
      (void)strategy->divide(opts.global_cap, demands, opts.limits, curve);
    }
    const std::string& job0 = corun::fleet::default_fleet_programs().at(0);
    const std::string& job1 = corun::fleet::default_fleet_programs().at(1);
    const SpanLog::Scope s(spans, "model.predictor_build");
    build_predictor(last_artifacts.db, last_artifacts.grid, job0, job1);
  }
  return 0;
}

}  // namespace

int run_trace(const corun::Flags& f) {
  const std::string workload = f.get("workload", "");
  const std::string dir = f.get("dir", "");
  const std::string prefix = f.get("out-prefix", "");
  const double seconds = f.get_double("seconds", 1.0);
  const auto max_ops =
      static_cast<std::uint64_t>(f.get_int("max-ops", 1000000));
  if (dir.empty() || prefix.empty()) {
    std::fputs("perfbench-probe trace: --dir and --out-prefix are required\n",
               stderr);
    return 2;
  }
  corun::common::set_default_jobs(1);
  corun::trace::set_enabled(false);
  SpanLog spans;
  Recorder rec;
  int rc = 2;
  if (workload == "serve-hit") {
    rc = trace_serve(dir, seconds, max_ops, true, spans, rec);
  } else if (workload == "serve-miss") {
    rc = trace_serve(dir, seconds, max_ops, false, spans, rec);
  } else if (workload == "dynamic") {
    rc = trace_dynamic(dir, seconds, max_ops, spans, rec);
  } else if (workload == "fleet") {
    rc = trace_fleet(dir, seconds, max_ops, spans, rec);
  } else {
    std::fprintf(stderr, "perfbench-probe trace: unknown workload '%s'\n",
                 workload.c_str());
  }
  if (rc != 0) return rc;
  return spans.write(prefix + ".spans") && rec.write(prefix) ? 0 : 1;
}

}  // namespace perfbench
