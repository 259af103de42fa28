#include "corun/core/model/corun_predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/model/degradation_space.hpp"
#include "corun/profile/online_profiler.hpp"
#include "corun/profile/profiler.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::model {
namespace {

class CoRunPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::MachineConfig(sim::ivy_bridge());
    workload::Batch batch;
    for (const char* name : {"streamcluster", "dwt2d", "leukocyte"}) {
      batch.add(workload::rodinia_by_name(name).value(), 42);
    }
    profile::Profiler profiler(
        *config_, profile::ProfilerOptions{.cpu_levels = {0, 7},
                                           .gpu_levels = {0, 4}});
    db_ = new profile::ProfileDB(profiler.profile_batch(batch));
    const DegradationSpaceBuilder builder(*config_);
    grid_ = new DegradationGrid(
        builder.characterize({0.0, 3.0, 7.0, 11.0}, {0.0, 3.0, 7.0, 11.0}));
    predictor_ = new CoRunPredictor(*db_, *grid_, *config_);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete grid_;
    delete db_;
    delete config_;
  }

  static sim::MachineConfig* config_;
  static profile::ProfileDB* db_;
  static DegradationGrid* grid_;
  static CoRunPredictor* predictor_;
};

sim::MachineConfig* CoRunPredictorTest::config_ = nullptr;
profile::ProfileDB* CoRunPredictorTest::db_ = nullptr;
DegradationGrid* CoRunPredictorTest::grid_ = nullptr;
CoRunPredictor* CoRunPredictorTest::predictor_ = nullptr;

TEST_F(CoRunPredictorTest, RecordedLevelsPassThrough) {
  EXPECT_DOUBLE_EQ(
      predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 15),
      db_->at("dwt2d", sim::DeviceKind::kCpu, 15).time);
}

TEST_F(CoRunPredictorTest, MissingLevelsInterpolated) {
  // Level 11 was not profiled; the interpolant must land between the
  // bracketing recorded levels 7 and 15.
  const Seconds t7 = predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 7);
  const Seconds t15 =
      predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 15);
  const Seconds t11 =
      predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 11);
  EXPECT_LT(t11, t7);
  EXPECT_GT(t11, t15);
}

TEST_F(CoRunPredictorTest, PredictionFieldsConsistent) {
  const PairPrediction p = predictor_->predict("dwt2d", 15, "streamcluster", 9);
  EXPECT_GE(p.cpu_degradation, 0.0);
  EXPECT_GE(p.gpu_degradation, 0.0);
  EXPECT_DOUBLE_EQ(p.cpu_time, p.cpu_solo_time * (1.0 + p.cpu_degradation));
  EXPECT_DOUBLE_EQ(p.gpu_time, p.gpu_solo_time * (1.0 + p.gpu_degradation));
  EXPECT_GT(p.power, 0.0);
}

TEST_F(CoRunPredictorTest, MemoryHogsInterfereMoreThanComputeJobs) {
  const PairPrediction hog = predictor_->predict("dwt2d", 15, "streamcluster", 9);
  const PairPrediction mild = predictor_->predict("dwt2d", 15, "leukocyte", 9);
  EXPECT_GT(hog.cpu_degradation, mild.cpu_degradation + 0.02);
}

TEST_F(CoRunPredictorTest, BestSoloLevelIsMaxWithoutCap) {
  const auto level = predictor_->best_solo_level(
      "leukocyte", sim::DeviceKind::kCpu, std::nullopt);
  ASSERT_TRUE(level.has_value());
  EXPECT_EQ(*level, 15);
}

TEST_F(CoRunPredictorTest, CapLowersBestSoloLevel) {
  // leukocyte is compute-bound (high power): a 15 W cap forbids max freq.
  const auto capped =
      predictor_->best_solo_level("leukocyte", sim::DeviceKind::kCpu, 15.0);
  ASSERT_TRUE(capped.has_value());
  EXPECT_LT(*capped, 15);
  EXPECT_TRUE(predictor_->solo_feasible("leukocyte", sim::DeviceKind::kCpu,
                                        *capped, 15.0));
}

TEST_F(CoRunPredictorTest, ImpossibleCapYieldsNull) {
  EXPECT_FALSE(predictor_
                   ->best_solo_level("leukocyte", sim::DeviceKind::kCpu, 1.0)
                   .has_value());
}

TEST_F(CoRunPredictorTest, BestPairRespectsCap) {
  const auto pair =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 16.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_TRUE(predictor_->corun_feasible("dwt2d", pair->cpu, "streamcluster",
                                         pair->gpu, 16.0));
  // Without a cap the best pair is at least as good as running both maxed.
  const auto uncapped = predictor_->best_pair_min_makespan(
      "dwt2d", "streamcluster", std::nullopt);
  ASSERT_TRUE(uncapped.has_value());
  const PairPrediction best =
      predictor_->predict("dwt2d", uncapped->cpu, "streamcluster", uncapped->gpu);
  const PairPrediction maxed = predictor_->predict("dwt2d", 15, "streamcluster", 9);
  EXPECT_LE(std::max(best.cpu_time, best.gpu_time),
            std::max(maxed.cpu_time, maxed.gpu_time) + 1e-9);
}

TEST_F(CoRunPredictorTest, TighterCapNeverFaster) {
  const auto loose =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 20.0);
  const auto tight =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 14.0);
  ASSERT_TRUE(loose && tight);
  const PairPrediction pl =
      predictor_->predict("dwt2d", loose->cpu, "streamcluster", loose->gpu);
  const PairPrediction pt =
      predictor_->predict("dwt2d", tight->cpu, "streamcluster", tight->gpu);
  EXPECT_LE(std::max(pl.cpu_time, pl.gpu_time),
            std::max(pt.cpu_time, pt.gpu_time) + 1e-9);
}

TEST_F(CoRunPredictorTest, MinDegradationCriterionFindsLowInterference) {
  const auto pair =
      predictor_->best_pair_min_degradation("dwt2d", "streamcluster", 16.0);
  ASSERT_TRUE(pair.has_value());
  const PairPrediction p =
      predictor_->predict("dwt2d", pair->cpu, "streamcluster", pair->gpu);
  // Any feasible alternative must have >= degradation sum (up to the small
  // frequency tie-break bonus).
  const auto alt =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 16.0);
  const PairPrediction pa =
      predictor_->predict("dwt2d", alt->cpu, "streamcluster", alt->gpu);
  EXPECT_LE(p.cpu_degradation + p.gpu_degradation,
            pa.cpu_degradation + pa.gpu_degradation + 0.01);
}

TEST_F(CoRunPredictorTest, BestLevelAgainstPinnedPartner) {
  const auto level = predictor_->best_level_against(
      "dwt2d", sim::DeviceKind::kCpu, "streamcluster", 9, 16.0);
  ASSERT_TRUE(level.has_value());
  EXPECT_TRUE(
      predictor_->corun_feasible("dwt2d", *level, "streamcluster", 9, 16.0));
}

TEST_F(CoRunPredictorTest, PowerPredictionMatchesPowerPredictorFormula) {
  const Watts p = predictor_->predict_power("dwt2d", 15, "streamcluster", 9);
  const Watts expected =
      predictor_->standalone_power("dwt2d", sim::DeviceKind::kCpu, 15) +
      predictor_->standalone_power("streamcluster", sim::DeviceKind::kGpu, 9) -
      db_->idle_power();
  EXPECT_DOUBLE_EQ(p, expected);
}

/// The analytic-tables contract: every point query answered from the dense
/// tables returns the same BITS as the legacy on-demand path, for every
/// profiled job at every ladder level (recorded and interpolated alike).
/// The legacy side is a copy-view of the suite predictor with tables off.
TEST_F(CoRunPredictorTest, AnalyticTablesAreByteIdenticalToLegacy) {
  const CoRunPredictor tables(*predictor_,
                              PredictorOptions{.analytic_tables = true});
  const CoRunPredictor legacy(*predictor_,
                              PredictorOptions{.analytic_tables = false});
  ASSERT_TRUE(tables.options().analytic_tables);
  ASSERT_FALSE(legacy.options().analytic_tables);

  const auto jobs = db_->jobs();
  for (const std::string& job : jobs) {
    for (const sim::DeviceKind d :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      const sim::FrequencyLadder& ladder = config_->ladder(d);
      for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) {
        EXPECT_EQ(tables.standalone_time(job, d, l),
                  legacy.standalone_time(job, d, l))
            << job << " level " << l;
        EXPECT_EQ(tables.standalone_bw(job, d, l),
                  legacy.standalone_bw(job, d, l));
        EXPECT_EQ(tables.standalone_power(job, d, l),
                  legacy.standalone_power(job, d, l));
      }
    }
  }
  for (const std::string& cpu_job : jobs) {
    for (const std::string& gpu_job : jobs) {
      for (sim::FreqLevel fc = 0; fc <= config_->cpu_ladder.max_level();
           fc += 3) {
        for (sim::FreqLevel fg = 0; fg <= config_->gpu_ladder.max_level();
             fg += 2) {
          const PairPrediction a = tables.predict(cpu_job, fc, gpu_job, fg);
          const PairPrediction b = legacy.predict(cpu_job, fc, gpu_job, fg);
          EXPECT_EQ(a.cpu_degradation, b.cpu_degradation);
          EXPECT_EQ(a.gpu_degradation, b.gpu_degradation);
          EXPECT_EQ(a.cpu_solo_time, b.cpu_solo_time);
          EXPECT_EQ(a.gpu_solo_time, b.gpu_solo_time);
          EXPECT_EQ(a.cpu_time, b.cpu_time);
          EXPECT_EQ(a.gpu_time, b.gpu_time);
          EXPECT_EQ(a.power, b.power);
          EXPECT_EQ(tables.predict_power(cpu_job, fc, gpu_job, fg),
                    legacy.predict_power(cpu_job, fc, gpu_job, fg));
        }
      }
    }
  }
}

/// Queries outside the table domain — unknown jobs, out-of-ladder levels —
/// must fall back to the legacy path, not crash or misindex.
TEST_F(CoRunPredictorTest, AnalyticTablesFallBackOutsideDomain) {
  const CoRunPredictor tables(*predictor_,
                              PredictorOptions{.analytic_tables = true});
  const CoRunPredictor legacy(*predictor_,
                              PredictorOptions{.analytic_tables = false});
  // A ladder-clamped out-of-range level goes through entry_at both ways.
  const sim::FreqLevel over = config_->cpu_ladder.max_level() + 5;
  EXPECT_EQ(tables.standalone_time("dwt2d", sim::DeviceKind::kCpu, over),
            legacy.standalone_time("dwt2d", sim::DeviceKind::kCpu, over));
  // Unknown jobs CHECK-fail identically on both paths.
  EXPECT_THROW(
      (void)tables.standalone_time("nope", sim::DeviceKind::kCpu, 0),
      corun::ContractViolation);
}

void expect_same_bits(const PairPrediction& a, const PairPrediction& b,
                      const std::string& where) {
  EXPECT_EQ(a.cpu_degradation, b.cpu_degradation) << where;
  EXPECT_EQ(a.gpu_degradation, b.gpu_degradation) << where;
  EXPECT_EQ(a.cpu_solo_time, b.cpu_solo_time) << where;
  EXPECT_EQ(a.gpu_solo_time, b.gpu_solo_time) << where;
  EXPECT_EQ(a.cpu_time, b.cpu_time) << where;
  EXPECT_EQ(a.gpu_time, b.gpu_time) << where;
  EXPECT_EQ(a.power, b.power) << where;
}

/// Every pair query on `tables` returns the same bits as `legacy`, over all
/// jobs and every ladder level.
void expect_tables_match_legacy(const CoRunPredictor& tables,
                                const CoRunPredictor& legacy,
                                const sim::MachineConfig& config) {
  const auto jobs = tables.db().jobs();
  for (const std::string& cpu_job : jobs) {
    for (const std::string& gpu_job : jobs) {
      for (sim::FreqLevel fc = 0; fc <= config.cpu_ladder.max_level(); ++fc) {
        for (sim::FreqLevel fg = 0; fg <= config.gpu_ladder.max_level();
             ++fg) {
          expect_same_bits(tables.predict(cpu_job, fc, gpu_job, fg),
                           legacy.predict(cpu_job, fc, gpu_job, fg),
                           cpu_job + "@" + std::to_string(fc) + " | " +
                               gpu_job + "@" + std::to_string(fg));
        }
      }
    }
  }
}

double counter_total(const char* name) {
  for (const trace::CounterTotal& c : trace::counter_totals()) {
    if (c.name == name) return c.total;
  }
  return 0.0;
}

/// The shared degradation tables are content-addressed: rows that keep an
/// anchor's bandwidths (cross-run scaled instances, drifted jobs) reuse its
/// class and the registry's table, while an online-sampled job measures new
/// bandwidths and gets a class (and so a table) of its own. Every answer is
/// the same bits as the on-demand path either way.
TEST_F(CoRunPredictorTest, SharedDegradationTablesAreByteIdenticalToLegacy) {
  // A grid no other test uses, so the table-build counts below start from
  // an empty registry slot even when the suite repeats in one process.
  static int uses = 0;
  DegradationGrid grid = *grid_;
  grid.cpu_deg[0][0] += 1e-6 * static_cast<double>(++uses);

  profile::ProfileDB scaled = *db_;
  scaled.add_scaled_instance("streamcluster", "streamcluster_x2", 2.0);
  scaled.add_scaled_instance("dwt2d", "dwt2d_half", 0.5);
  scaled.scale_job("leukocyte", 1.25);
  scaled.scale_job("dwt2d_half", 0.8);

  profile::ProfileDB sampled = scaled;
  {
    workload::Batch batch;
    batch.add(workload::rodinia_by_name("hotspot").value(), 7);
    const profile::OnlineProfiler online(
        *config_, profile::OnlineProfilerOptions{.sample_seconds = 1.0});
    const profile::ProfileDB estimate = online.profile_batch(batch);
    const std::string& job = batch.job(0).instance_name;
    for (const sim::DeviceKind d :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      for (const sim::FreqLevel l : estimate.levels(job, d)) {
        sampled.insert("hotspot_online", d, l, estimate.at(job, d, l));
      }
    }
  }

  trace::reset();
  trace::set_enabled(true);
  const CoRunPredictor base(*db_, grid, *config_);
  (void)base.predict("dwt2d", 0, "streamcluster", 0);
  const double after_base = counter_total("model.degradation_tables");

  const CoRunPredictor scaled_tables(scaled, grid, *config_);
  (void)scaled_tables.predict("dwt2d_half", 0, "streamcluster_x2", 0);
  const double after_scaled = counter_total("model.degradation_tables");

  const CoRunPredictor sampled_tables(sampled, grid, *config_);
  (void)sampled_tables.predict("hotspot_online", 0, "dwt2d", 0);
  const double after_sampled = counter_total("model.degradation_tables");
  trace::set_enabled(false);
  trace::reset();

  EXPECT_EQ(after_base, 1.0) << "the fresh grid must build one table";
  EXPECT_EQ(after_scaled, after_base)
      << "scaled and drifted rows keep their anchor's class";
  EXPECT_EQ(after_sampled, after_scaled + 1.0)
      << "an online-sampled job brings a new class";

  const PredictorOptions off{.analytic_tables = false};
  expect_tables_match_legacy(scaled_tables,
                             CoRunPredictor(scaled, grid, *config_, off),
                             *config_);
  expect_tables_match_legacy(sampled_tables,
                             CoRunPredictor(sampled, grid, *config_, off),
                             *config_);
}

/// Eight threads build predictors over one DB at once: they race on the
/// process-wide table registry and on each predictor's lazy core, and all
/// must answer with the legacy bits. Run under the tsan preset to check the
/// registry's locking.
TEST_F(CoRunPredictorTest, ConcurrentPredictorBuildsShareOneTable) {
  static int uses = 0;
  DegradationGrid grid = *grid_;
  grid.gpu_deg[1][1] += 1e-6 * static_cast<double>(++uses);
  const CoRunPredictor legacy(*db_, grid, *config_,
                              PredictorOptions{.analytic_tables = false});
  const auto jobs = db_->jobs();
  trace::reset();
  trace::set_enabled(true);
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        const CoRunPredictor mine(*db_, grid, *config_);
        for (const std::string& cpu_job : jobs) {
          for (const std::string& gpu_job : jobs) {
            for (sim::FreqLevel fc = 0; fc <= config_->cpu_ladder.max_level();
                 ++fc) {
              for (sim::FreqLevel fg = 0;
                   fg <= config_->gpu_ladder.max_level(); ++fg) {
                const PairPrediction a = mine.predict(cpu_job, fc, gpu_job, fg);
                const PairPrediction b =
                    legacy.predict(cpu_job, fc, gpu_job, fg);
                if (a.cpu_time != b.cpu_time || a.gpu_time != b.gpu_time ||
                    a.power != b.power ||
                    a.cpu_degradation != b.cpu_degradation ||
                    a.gpu_degradation != b.gpu_degradation) {
                  ++mismatches[static_cast<std::size_t>(t)];
                }
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double tables_built = counter_total("model.degradation_tables");
  trace::set_enabled(false);
  trace::reset();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(tables_built, 1.0) << "32 predictors over one DB and grid";
}

/// The pair-search memo keys on the exact cap. Two caps in one 0.01 W
/// bucket whose feasible sets differ (one sits exactly on a pair's
/// predicted power, the other just below it) must each get their own
/// answer from one long-lived predictor — the answer a fresh predictor
/// gives.
TEST_F(CoRunPredictorTest, PairMemoKeysOnTheExactCap) {
  int checked = 0;
  for (const std::string& cpu_job : db_->jobs()) {
    for (const std::string& gpu_job : db_->jobs()) {
      for (sim::FreqLevel fc = 0; fc <= config_->cpu_ladder.max_level();
           ++fc) {
        for (sim::FreqLevel fg = 0; fg <= config_->gpu_ladder.max_level();
             ++fg) {
          const Watts on = predictor_->predict_power(cpu_job, fc, gpu_job, fg);
          const Watts below = std::nextafter(on, 0.0);
          if (std::llround(on * 100.0) != std::llround(below * 100.0)) continue;
          const CoRunPredictor fresh_on(*predictor_, PredictorOptions{});
          const CoRunPredictor fresh_below(*predictor_, PredictorOptions{});
          const auto want_on =
              fresh_on.best_pair_weighted(cpu_job, gpu_job, on, 1.0, 2.0);
          const auto want_below =
              fresh_below.best_pair_weighted(cpu_job, gpu_job, below, 1.0, 2.0);
          if (want_on == want_below) continue;
          // Both orders on one predictor: each cap keeps its own answer.
          const CoRunPredictor shared(*predictor_, PredictorOptions{});
          EXPECT_EQ(shared.best_pair_weighted(cpu_job, gpu_job, on, 1.0, 2.0),
                    want_on);
          EXPECT_EQ(
              shared.best_pair_weighted(cpu_job, gpu_job, below, 1.0, 2.0),
              want_below)
              << cpu_job << "/" << gpu_job << " at " << below << " W";
          const CoRunPredictor reversed(*predictor_, PredictorOptions{});
          EXPECT_EQ(
              reversed.best_pair_weighted(cpu_job, gpu_job, below, 1.0, 2.0),
              want_below);
          EXPECT_EQ(
              reversed.best_pair_weighted(cpu_job, gpu_job, on, 1.0, 2.0),
              want_on)
              << cpu_job << "/" << gpu_job << " at " << on << " W";
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0) << "no cap pair in one bucket changed the answer";
}

/// A long-lived predictor fed 100k distinct caps keeps both pair-search
/// memos under their bound, and clearing them never changes an answer.
TEST_F(CoRunPredictorTest, PairMemosStayBoundedUnderContinuousCaps) {
  const CoRunPredictor live(*predictor_, PredictorOptions{});
  std::size_t peak_pairs = 0;
  std::size_t peak_mins = 0;
  int compared = 0;
  for (int i = 0; i < 100000; ++i) {
    const Watts cap = 9.0 + 1e-4 * static_cast<double>(i);
    const auto pair =
        live.best_pair_weighted("dwt2d", "streamcluster", cap, 1.0, 1.0);
    const Seconds min = live.min_corun_time(
        "dwt2d", sim::DeviceKind::kCpu, "streamcluster", cap, false);
    const auto sizes = live.memo_sizes();
    peak_pairs = std::max(peak_pairs, sizes.best_pair);
    peak_mins = std::max(peak_mins, sizes.corun_min);
    if (i % 4999 == 0) {
      const CoRunPredictor fresh(*predictor_, PredictorOptions{});
      EXPECT_EQ(pair, fresh.best_pair_weighted("dwt2d", "streamcluster", cap,
                                               1.0, 1.0))
          << cap;
      EXPECT_EQ(min, fresh.min_corun_time("dwt2d", sim::DeviceKind::kCpu,
                                          "streamcluster", cap, false))
          << cap;
      ++compared;
    }
  }
  EXPECT_LE(peak_pairs, CoRunPredictor::kMemoEntryBound);
  EXPECT_LE(peak_mins, CoRunPredictor::kMemoEntryBound);
  EXPECT_GT(peak_pairs, CoRunPredictor::kMemoEntryBound / 2)
      << "the sweep must actually fill the memo";
  EXPECT_EQ(compared, 21);
  // Early caps, long since cleared out of the memos, answer as before.
  const CoRunPredictor fresh(*predictor_, PredictorOptions{});
  for (const Watts cap : {9.0, 9.0001, 9.5}) {
    EXPECT_EQ(live.best_pair_weighted("dwt2d", "streamcluster", cap, 1.0, 1.0),
              fresh.best_pair_weighted("dwt2d", "streamcluster", cap, 1.0, 1.0));
  }
}

}  // namespace
}  // namespace corun::model
