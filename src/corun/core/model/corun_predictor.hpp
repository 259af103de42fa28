// CoRunPredictor: the façade the scheduling algorithms consume.
//
// Combines the three information sources of Sec. V into one query surface:
//   - standalone profiles (time / bandwidth / power per job, device, level),
//     linearly interpolated across frequency when the DB was sub-sampled;
//   - the staged interpolator over the micro-benchmark degradation space;
//   - the standalone-sum power predictor.
// Everything the heuristic scheduler, the refinement pass, and the lower
// bound need — feasible frequency enumeration under a cap, best solo
// operating points, best co-run frequency pairs — lives here.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "corun/common/units.hpp"
#include "corun/core/model/interpolator.hpp"
#include "corun/profile/profile_db.hpp"
#include "corun/sim/machine.hpp"

namespace corun::model {

/// Evaluation-backend knobs for the predictor.
struct PredictorOptions {
  /// Route the point queries (standalone_*, predict, predict_power) through
  /// dense cap-independent tables built once per predictor — the analytic
  /// evaluation fast path the search leans on. The table cells are computed
  /// by the exact legacy arithmetic (entry_at + staged interpolation), so
  /// every answer is byte-identical to the on-demand path; the toggle
  /// exists so the equivalence tests and the fidelity bench can run both
  /// sides of that equality.
  bool analytic_tables = true;
};

/// A CPU/GPU frequency operating point.
struct FreqPair {
  sim::FreqLevel cpu = 0;
  sim::FreqLevel gpu = 0;

  friend bool operator==(const FreqPair&, const FreqPair&) = default;
};

/// Full prediction for one co-running pair at one operating point.
struct PairPrediction {
  double cpu_degradation = 0.0;  ///< fractional slowdown of the CPU job
  double gpu_degradation = 0.0;
  Seconds cpu_solo_time = 0.0;   ///< standalone time at the pair's levels
  Seconds gpu_solo_time = 0.0;
  Seconds cpu_time = 0.0;        ///< solo * (1 + degradation): pure co-run rate
  Seconds gpu_time = 0.0;
  Watts power = 0.0;             ///< predicted package power of the co-run
};

class CoRunPredictor {
 public:
  /// `db` must outlive the predictor — and must not be mutated while the
  /// predictor is live (the analytic tables and the pair-search memos both
  /// snapshot DB-derived values; every caller that mutates its DB already
  /// rebuilds its predictor, see DynamicRuntime::rebuild_predictor).
  explicit CoRunPredictor(const profile::ProfileDB& db, DegradationGrid grid,
                          sim::MachineConfig config,
                          PredictorOptions options = {});

  /// Copy-view: a second predictor over the same DB/grid/machine with
  /// different evaluation options and fresh caches, e.g. a table-free
  /// reference view for the equivalence tests, without re-profiling.
  CoRunPredictor(const CoRunPredictor& other, PredictorOptions options);

  ~CoRunPredictor();

  // --- standalone quantities (frequency-interpolated when sub-sampled) ---
  [[nodiscard]] Seconds standalone_time(const std::string& job,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const;
  [[nodiscard]] GBps standalone_bw(const std::string& job,
                                   sim::DeviceKind device,
                                   sim::FreqLevel level) const;
  [[nodiscard]] Watts standalone_power(const std::string& job,
                                       sim::DeviceKind device,
                                       sim::FreqLevel level) const;

  // --- co-run prediction ---
  [[nodiscard]] PairPrediction predict(const std::string& cpu_job,
                                       sim::FreqLevel cpu_level,
                                       const std::string& gpu_job,
                                       sim::FreqLevel gpu_level) const;
  [[nodiscard]] Watts predict_power(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level) const;

  // --- power-cap feasibility ---
  [[nodiscard]] bool corun_feasible(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level,
                                    std::optional<Watts> cap) const;
  [[nodiscard]] bool solo_feasible(const std::string& job,
                                   sim::DeviceKind device, sim::FreqLevel level,
                                   std::optional<Watts> cap) const;

  /// Fastest cap-feasible standalone operating point; nullopt if even the
  /// lowest level breaks the cap.
  [[nodiscard]] std::optional<sim::FreqLevel> best_solo_level(
      const std::string& job, sim::DeviceKind device,
      std::optional<Watts> cap) const;
  [[nodiscard]] Seconds best_solo_time(const std::string& job,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap) const;

  /// Minimum predicted `device`-side co-run time of `job` against
  /// `partner`, over every cap-feasible frequency pair — the least
  /// interference `partner` can inflict on `job` under the cap. With
  /// `include_floor_pair` the floor pair participates even when it
  /// violates the cap (the governor's tolerated last resort), which the
  /// search's admissible occupancy bound requires. Infinity when the
  /// candidate set is empty. Memoized: the lower bounds issue the same
  /// O(jobs^2) queries on every (re-)plan.
  [[nodiscard]] Seconds min_corun_time(const std::string& job,
                                       sim::DeviceKind device,
                                       const std::string& partner,
                                       std::optional<Watts> cap,
                                       bool include_floor_pair) const;

  /// Best cap-feasible frequency pair for a co-run, minimizing the pair's
  /// predicted completion bound max(cpu_time, gpu_time). nullopt when no
  /// pair is feasible.
  [[nodiscard]] std::optional<FreqPair> best_pair_min_makespan(
      const std::string& cpu_job, const std::string& gpu_job,
      std::optional<Watts> cap) const;

  /// Backlog-weighted pair selection: minimizes
  ///   max(cpu_weight * cpu_time, gpu_weight * gpu_time).
  /// The weights encode how much work queues behind each side (in multiples
  /// of the current job), so a device with a deep backlog keeps its share of
  /// the power budget instead of being throttled to balance one pair in
  /// isolation. Weights of 1 reduce to best_pair_min_makespan.
  [[nodiscard]] std::optional<FreqPair> best_pair_weighted(
      const std::string& cpu_job, const std::string& gpu_job,
      std::optional<Watts> cap, double cpu_weight, double gpu_weight) const;

  /// Best cap-feasible pair minimizing the summed degradations — the
  /// literal criterion of Sec. IV-A.2 step 3 (ablation comparator).
  [[nodiscard]] std::optional<FreqPair> best_pair_min_degradation(
      const std::string& cpu_job, const std::string& gpu_job,
      std::optional<Watts> cap) const;

  /// Best cap-feasible level for a job joining `device` while the partner is
  /// pinned at `partner_level` on the other device; minimizes the joining
  /// job's predicted co-run time.
  [[nodiscard]] std::optional<sim::FreqLevel> best_level_against(
      const std::string& job, sim::DeviceKind device,
      const std::string& partner, sim::FreqLevel partner_level,
      std::optional<Watts> cap) const;

  [[nodiscard]] const profile::ProfileDB& db() const noexcept { return db_; }
  [[nodiscard]] const StagedInterpolator& interpolator() const noexcept {
    return interp_;
  }
  [[nodiscard]] const sim::MachineConfig& machine() const noexcept {
    return config_;
  }
  [[nodiscard]] const PredictorOptions& options() const noexcept {
    return options_;
  }

  /// Entry bound of each pair-search memo (best_pair_weighted,
  /// min_corun_time). A memo that reaches it is cleared before the next
  /// insert, so a long-lived predictor fed continuous caps stays bounded.
  static constexpr std::size_t kMemoEntryBound = std::size_t{1} << 14;

  /// Current entry counts of the two pair-search memos.
  struct MemoSizes {
    std::size_t best_pair = 0;
    std::size_t corun_min = 0;
  };
  [[nodiscard]] MemoSizes memo_sizes() const;

 private:
  /// Cap-independent tables: one ProfileEntry per profiled
  /// (job, device, level), a bandwidth class per row, and a shared
  /// degradation table per (cpu class, cpu level, gpu class, gpu level)
  /// cell. Built lazily on first query under core_mutex_ and published
  /// through an acquire/release pointer, so the parallel schedule searches
  /// race-freely share one copy. The degradation table comes from a
  /// process-wide registry keyed by the exact bytes of the grid and the
  /// class bandwidths, so every predictor with the same content (every
  /// fleet machine, every rebuild after a drift) shares one immutable copy.
  struct AnalyticCore;
  class PairView;

  /// The published tables, building them on first use; nullptr when
  /// options_.analytic_tables is off.
  [[nodiscard]] const AnalyticCore* analytic_core() const;
  [[nodiscard]] std::unique_ptr<AnalyticCore> build_core() const;
  void count_analytic_hit() const;

  /// Linear interpolation of a profiled quantity across frequency.
  [[nodiscard]] profile::ProfileEntry entry_at(const std::string& job,
                                               sim::DeviceKind device,
                                               sim::FreqLevel level) const;

  const profile::ProfileDB& db_;
  StagedInterpolator interp_;
  sim::MachineConfig config_;
  PredictorOptions options_;

  mutable std::mutex core_mutex_;
  mutable std::unique_ptr<AnalyticCore> core_storage_;
  mutable std::atomic<const AnalyticCore*> core_{nullptr};
  mutable std::atomic<std::uint64_t> analytic_hits_{0};

  // Pair-search memoization. Only the weight *ratio* affects the argmin
  // (scaling both weights scales the whole metric), so the cache keys on
  // the log-ratio quantized to quarter-octaves — schedulers issue the same
  // queries thousands of times during refinement — and on the exact cap.
  // The cache is a pure function of (jobs, cap, ratio bucket), so
  // concurrent fills from the parallel schedule searches always agree on
  // the value; the mutex only protects the map structure (lookups and
  // inserts are brief, the search itself runs unlocked and may rarely be
  // duplicated). Both memos are bounded by kMemoEntryBound.
  mutable std::mutex pair_cache_mutex_;
  mutable std::unordered_map<std::string, std::optional<FreqPair>> pair_cache_;
  mutable std::unordered_map<std::string, Seconds> corun_min_cache_;
};

}  // namespace corun::model
