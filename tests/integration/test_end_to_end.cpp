// End-to-end pipeline tests: profile -> characterize -> predict -> plan ->
// execute, through the library API.
#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/sched/corun_theorem.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/refiner.hpp"

namespace corun {
namespace {

using corun::testing::eight_program_fixture;

TEST(EndToEnd, EightProgramPipelineUnderCap) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);

  sched::HcsPlusScheduler scheduler;
  const sched::Schedule schedule = scheduler.plan(ctx);
  schedule.validate(8);

  runtime::RuntimeOptions rt;
  rt.cap = 15.0;
  rt.predictor = f.predictor.get();
  const runtime::CoRunRuntime runner(f.config, rt);
  const runtime::ExecutionReport report = runner.execute(f.batch, schedule);

  ASSERT_EQ(report.jobs.size(), 8u);
  EXPECT_GT(report.makespan, 100.0);   // eight 20-80 s jobs on two devices
  EXPECT_LT(report.makespan, 500.0);
  EXPECT_LT(report.cap_stats.over_fraction(), 0.3);
  EXPECT_LT(report.avg_power, 15.5);
}

TEST(EndToEnd, ModelPredictionTracksGroundTruthPerPair) {
  // For a handful of pairs, predicted co-run times must be within the
  // paper's error band of measured ones. The band must accommodate the
  // hidden LLC channel the model cannot see (the paper's own worst pairs
  // exceed 30% error; we allow 45% per pair, with Fig. 7 checking the
  // distribution).
  const auto& f = eight_program_fixture();
  const struct {
    std::size_t cpu_job;
    std::size_t gpu_job;
  } pairs[] = {{2, 0}, {5, 4}, {6, 1}, {2, 3}};
  for (const auto& [ci, gi] : pairs) {
    const std::string cname = f.batch.job(ci).instance_name;
    const std::string gname = f.batch.job(gi).instance_name;
    const model::PairPrediction p = f.predictor->predict(cname, 15, gname, 9);

    sim::EngineOptions eo;
    eo.record_samples = false;
    sim::Engine engine(f.config, eo);
    engine.set_ceilings(15, 9);
    const sim::JobId id = engine.launch(f.batch.job(ci).spec,
                                        sim::DeviceKind::kCpu);
    const sim::JobId gid = engine.launch(f.batch.job(gi).spec,
                                         sim::DeviceKind::kGpu);
    engine.run_until_idle();

    // Compare against the pure-co-run-rate prediction via the overlap
    // correction, exactly how the evaluator composes them.
    const sched::PairLengths pl = sched::corun_pair_lengths(
        p.cpu_solo_time, p.cpu_degradation, p.gpu_solo_time,
        p.gpu_degradation);
    EXPECT_NEAR(engine.stats(id).runtime(), pl.first, pl.first * 0.45)
        << cname << "+" << gname;
    EXPECT_NEAR(engine.stats(gid).runtime(), pl.second, pl.second * 0.45)
        << cname << "+" << gname;
  }
}

TEST(EndToEnd, ArtifactsSurviveCsvRoundTrip) {
  // Persisting and reloading the offline artifacts must not change
  // scheduling decisions (supports caching characterizations on disk).
  const auto& f = eight_program_fixture();
  std::ostringstream db_csv;
  f.artifacts.db.write_csv(db_csv);
  std::ostringstream grid_csv;
  f.artifacts.grid.write_csv(grid_csv);
  const auto db = profile::ProfileDB::read_csv(db_csv.str());
  const auto grid = model::DegradationGrid::read_csv(grid_csv.str());
  ASSERT_TRUE(db.has_value() && grid.has_value());
  const model::CoRunPredictor reloaded(db.value(), grid.value(), f.config);

  sched::SchedulerContext ctx1 = f.context(15.0);
  sched::SchedulerContext ctx2 = ctx1;
  ctx2.predictor = &reloaded;
  sched::HcsScheduler hcs;
  const sched::Schedule a = hcs.plan(ctx1);
  const sched::Schedule b = hcs.plan(ctx2);
  ASSERT_EQ(a.cpu.size(), b.cpu.size());
  ASSERT_EQ(a.gpu.size(), b.gpu.size());
  for (std::size_t i = 0; i < a.cpu.size(); ++i) {
    EXPECT_EQ(a.cpu[i].job, b.cpu[i].job);
  }
  for (std::size_t i = 0; i < a.gpu.size(); ++i) {
    EXPECT_EQ(a.gpu[i].job, b.gpu[i].job);
  }
}

}  // namespace
}  // namespace corun
