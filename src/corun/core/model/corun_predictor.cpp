#include "corun/core/model/corun_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::model {

namespace {

/// Both sides' interpolated degradation for one (cpu bw, gpu bw) point.
struct DegradationCell {
  double cpu = 0.0;
  double gpu = 0.0;
};

/// Degradation cells over [cpu class][cl][gpu class][gl]. A class is one
/// distinct per-level standalone-bandwidth vector; the cells depend on
/// nothing else, so every predictor whose grid and class vectors match
/// shares one immutable table.
struct DegradationTable {
  std::size_t cpu_levels = 0;
  std::size_t gpu_levels = 0;
  std::size_t gpu_classes = 0;
  std::vector<DegradationCell> cells;

  [[nodiscard]] const DegradationCell& at(std::size_t cpu_class,
                                          std::size_t cl,
                                          std::size_t gpu_class,
                                          std::size_t gl) const {
    return cells[((cpu_class * cpu_levels + cl) * gpu_classes + gpu_class) *
                     gpu_levels +
                 gl];
  }
};

template <typename T>
void append_bytes(std::string& key, const std::vector<T>& values) {
  const std::size_t n = values.size();
  key.append(reinterpret_cast<const char*>(&n), sizeof(n));
  key.append(reinterpret_cast<const char*>(values.data()), n * sizeof(T));
}

/// Exact bytes of everything a degradation table is a function of: the
/// grid's axes and surfaces plus every class bandwidth vector, each with
/// its length. No rounding and no hash stands in for the content, so two
/// keys are equal exactly when the tables would be bit-identical.
std::string table_key(const DegradationGrid& grid,
                      const std::vector<std::vector<GBps>>& cpu_classes,
                      const std::vector<std::vector<GBps>>& gpu_classes) {
  std::string key;
  append_bytes(key, grid.cpu_axis);
  append_bytes(key, grid.gpu_axis);
  for (const auto* surface : {&grid.cpu_deg, &grid.gpu_deg}) {
    const std::size_t rows = surface->size();
    key.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
    for (const auto& row : *surface) append_bytes(key, row);
  }
  for (const auto* classes : {&cpu_classes, &gpu_classes}) {
    const std::size_t n = classes->size();
    key.append(reinterpret_cast<const char*>(&n), sizeof(n));
    for (const auto& bw : *classes) append_bytes(key, bw);
  }
  return key;
}

/// Process-wide store of degradation tables, content-addressed by
/// table_key. Entries are immutable and handed out as shared_ptr<const>, so
/// an evicted table lives on in the predictors that hold it. The bound
/// keeps a process that sees an unbounded stream of distinct profiles
/// (online sampling in a long-lived daemon) from growing without limit;
/// the least recently used entry goes first.
class DegradationRegistry {
 public:
  static DegradationRegistry& instance() {
    static DegradationRegistry registry;
    return registry;
  }

  std::shared_ptr<const DegradationTable> get(
      const StagedInterpolator& interp,
      const std::vector<std::vector<GBps>>& cpu_classes,
      const std::vector<std::vector<GBps>>& gpu_classes) {
    std::string key = table_key(interp.grid(), cpu_classes, gpu_classes);
    // Built under the lock: concurrent first users of one table wait for a
    // single build instead of each interpolating the same cells.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++tick_;
    if (const auto it = entries_.find(key); it != entries_.end()) {
      it->second.last_use = tick_;
      return it->second.table;
    }
    auto table = std::make_shared<DegradationTable>();
    table->cpu_levels = cpu_classes.empty() ? 0 : cpu_classes.front().size();
    table->gpu_levels = gpu_classes.empty() ? 0 : gpu_classes.front().size();
    table->gpu_classes = gpu_classes.size();
    table->cells.reserve(cpu_classes.size() * table->cpu_levels *
                         gpu_classes.size() * table->gpu_levels);
    for (const auto& cpu_bw : cpu_classes) {
      for (const GBps cb : cpu_bw) {
        for (const auto& gpu_bw : gpu_classes) {
          for (const GBps gb : gpu_bw) {
            table->cells.push_back(DegradationCell{
                interp.cpu_degradation(cb, gb), interp.gpu_degradation(cb, gb)});
          }
        }
      }
    }
    trace::counter_add("model.degradation_tables", 1.0);
    trace::counter_add("model.degradation_interpolations",
                       2.0 * static_cast<double>(table->cells.size()));
    if (entries_.size() >= kMaxTables) {
      const auto oldest = std::min_element(
          entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
            return a.second.last_use < b.second.last_use;
          });
      entries_.erase(oldest);
    }
    entries_.emplace(std::move(key), Entry{table, tick_});
    return table;
  }

 private:
  static constexpr std::size_t kMaxTables = 32;

  struct Entry {
    std::shared_ptr<const DegradationTable> table;
    std::uint64_t last_use = 0;
  };

  std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t tick_ = 0;
};

/// Appends the exact cap to a memo key: its bit pattern, not a quantized
/// bucket. The pair search and the lower-bound minimum both compute with
/// the exact cap, so a key that merged neighbouring caps would serve one
/// cap's answer for another. The raw bytes are as exact as a %.17g
/// rendering and cost no formatting on the memo-hit path.
void append_cap_key(std::string& key, std::optional<Watts> cap) {
  if (!cap) {
    key += "none";
    return;
  }
  const Watts value = *cap;
  key += 'w';
  key.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Inserts into a pair-search memo, first dropping every entry once the
/// memo holds kMemoEntryBound of them. The memos are pure functions of
/// their keys, so clearing costs recomputation, never a different answer.
template <typename Map, typename Value>
void memo_insert(Map& memo, std::string key, const Value& value) {
  if (memo.size() >= CoRunPredictor::kMemoEntryBound) memo.clear();
  memo.emplace(std::move(key), value);
}

}  // namespace

/// The analytic tables of one predictor. Rows exist only for (job, device)
/// pairs the DB has profiles for; everything else falls back to the legacy
/// on-demand path. Standalone entries are per row; the degradation cells
/// live in a shared table indexed by each row's bandwidth class. pair()
/// assembles a cell with the legacy expressions, so a table answer and a
/// fallback answer are the same bits.
struct CoRunPredictor::AnalyticCore {
  std::unordered_map<std::string, std::size_t> cpu_index;  ///< job -> row
  std::unordered_map<std::string, std::size_t> gpu_index;
  std::size_t cpu_levels = 0;  ///< ladder size (max_level + 1)
  std::size_t gpu_levels = 0;
  std::vector<profile::ProfileEntry> cpu_entries;  ///< [row][level]
  std::vector<profile::ProfileEntry> gpu_entries;
  std::vector<std::size_t> cpu_class;  ///< row -> bandwidth class
  std::vector<std::size_t> gpu_class;
  Watts idle_power = 0.0;
  std::shared_ptr<const DegradationTable> degradation;

  [[nodiscard]] const profile::ProfileEntry* entry(
      sim::DeviceKind device, const std::string& job,
      sim::FreqLevel level) const {
    const bool cpu = device == sim::DeviceKind::kCpu;
    const std::size_t n = cpu ? cpu_levels : gpu_levels;
    if (level < 0 || static_cast<std::size_t>(level) >= n) return nullptr;
    const auto& index = cpu ? cpu_index : gpu_index;
    const auto it = index.find(job);
    if (it == index.end()) return nullptr;
    const auto& entries = cpu ? cpu_entries : gpu_entries;
    return &entries[it->second * n + static_cast<std::size_t>(level)];
  }

  /// Table rows of one (cpu job, gpu job) pair.
  struct Rows {
    std::size_t cpu = 0;
    std::size_t gpu = 0;
  };

  [[nodiscard]] std::optional<Rows> rows(const std::string& cpu_job,
                                         const std::string& gpu_job) const {
    const auto ci = cpu_index.find(cpu_job);
    if (ci == cpu_index.end()) return std::nullopt;
    const auto gi = gpu_index.find(gpu_job);
    if (gi == gpu_index.end()) return std::nullopt;
    return Rows{ci->second, gi->second};
  }

  [[nodiscard]] bool in_range(sim::FreqLevel cpu_level,
                              sim::FreqLevel gpu_level) const {
    return cpu_level >= 0 &&
           static_cast<std::size_t>(cpu_level) < cpu_levels &&
           gpu_level >= 0 && static_cast<std::size_t>(gpu_level) < gpu_levels;
  }

  /// predict_power's table arithmetic; levels must be in_range.
  [[nodiscard]] Watts power_at(Rows r, sim::FreqLevel cpu_level,
                               sim::FreqLevel gpu_level) const {
    return cpu_entries[r.cpu * cpu_levels + static_cast<std::size_t>(cpu_level)]
               .avg_power +
           gpu_entries[r.gpu * gpu_levels + static_cast<std::size_t>(gpu_level)]
               .avg_power -
           idle_power;
  }

  /// predict's legacy arithmetic over the table; levels must be in_range.
  [[nodiscard]] PairPrediction pair_at(Rows r, sim::FreqLevel cpu_level,
                                       sim::FreqLevel gpu_level) const {
    const auto cl = static_cast<std::size_t>(cpu_level);
    const auto gl = static_cast<std::size_t>(gpu_level);
    const profile::ProfileEntry& ce = cpu_entries[r.cpu * cpu_levels + cl];
    const profile::ProfileEntry& ge = gpu_entries[r.gpu * gpu_levels + gl];
    const DegradationCell& d =
        degradation->at(cpu_class[r.cpu], cl, gpu_class[r.gpu], gl);
    PairPrediction p;
    p.cpu_degradation = d.cpu;
    p.gpu_degradation = d.gpu;
    p.cpu_solo_time = ce.time;
    p.gpu_solo_time = ge.time;
    p.cpu_time = ce.time * (1.0 + p.cpu_degradation);
    p.gpu_time = ge.time * (1.0 + p.gpu_degradation);
    p.power = ce.avg_power + ge.avg_power - idle_power;
    return p;
  }

  [[nodiscard]] std::optional<PairPrediction> pair(
      const std::string& cpu_job, sim::FreqLevel cpu_level,
      const std::string& gpu_job, sim::FreqLevel gpu_level) const {
    if (!in_range(cpu_level, gpu_level)) return std::nullopt;
    const std::optional<Rows> r = rows(cpu_job, gpu_job);
    if (!r) return std::nullopt;
    return pair_at(*r, cpu_level, gpu_level);
  }
};

/// A (cpu job, gpu job) pair resolved once for the pair searches, which
/// sweep every level pair: the table rows when both jobs have them, the
/// name-keyed queries otherwise. feasible() and predict() answer exactly
/// as corun_feasible() and predict() do, minus two job-name lookups per
/// level pair.
class CoRunPredictor::PairView {
 public:
  PairView(const CoRunPredictor& model, const std::string& cpu_job,
           const std::string& gpu_job)
      : model_(model),
        cpu_job_(cpu_job),
        gpu_job_(gpu_job),
        core_(model.analytic_core()) {
    if (core_ != nullptr) rows_ = core_->rows(cpu_job, gpu_job);
  }

  [[nodiscard]] bool feasible(sim::FreqLevel fc, sim::FreqLevel fg,
                              std::optional<Watts> cap) const {
    if (!cap) return true;
    if (rows_ && core_->in_range(fc, fg)) {
      model_.count_analytic_hit();
      return core_->power_at(*rows_, fc, fg) <= *cap;
    }
    return model_.predict_power(cpu_job_, fc, gpu_job_, fg) <= *cap;
  }

  [[nodiscard]] PairPrediction predict(sim::FreqLevel fc,
                                       sim::FreqLevel fg) const {
    if (rows_ && core_->in_range(fc, fg)) {
      model_.count_analytic_hit();
      return core_->pair_at(*rows_, fc, fg);
    }
    return model_.predict(cpu_job_, fc, gpu_job_, fg);
  }

 private:
  const CoRunPredictor& model_;
  const std::string& cpu_job_;
  const std::string& gpu_job_;
  const AnalyticCore* core_;
  std::optional<AnalyticCore::Rows> rows_;
};

CoRunPredictor::CoRunPredictor(const profile::ProfileDB& db,
                               DegradationGrid grid, sim::MachineConfig config,
                               PredictorOptions options)
    : db_(db),
      interp_(std::move(grid)),
      config_(std::move(config)),
      options_(options) {
  CORUN_CHECK_MSG(db_.idle_power() > 0.0,
                  "profile DB lacks the idle-power measurement");
}

CoRunPredictor::CoRunPredictor(const CoRunPredictor& other,
                               PredictorOptions options)
    : db_(other.db_),
      interp_(other.interp_),
      config_(other.config_),
      options_(options) {}

CoRunPredictor::~CoRunPredictor() {
  const std::uint64_t hits = analytic_hits_.load(std::memory_order_relaxed);
  if (hits != 0) {
    trace::counter_add("backend.analytic_hits", static_cast<double>(hits));
  }
}

std::unique_ptr<CoRunPredictor::AnalyticCore> CoRunPredictor::build_core()
    const {
  auto core = std::make_unique<AnalyticCore>();
  core->cpu_levels =
      static_cast<std::size_t>(config_.cpu_ladder.max_level()) + 1;
  core->gpu_levels =
      static_cast<std::size_t>(config_.gpu_ladder.max_level()) + 1;
  core->idle_power = db_.idle_power();
  // Rows whose per-level bandwidth vectors are bit-identical share a class
  // (scaled instances and drifted jobs keep their anchor's bandwidths).
  // Classes are numbered in first-seen row order.
  std::vector<std::vector<GBps>> cpu_classes;
  std::vector<std::vector<GBps>> gpu_classes;
  std::unordered_map<std::string, std::size_t> cpu_class_of;
  std::unordered_map<std::string, std::size_t> gpu_class_of;
  // Row order follows the insertion order of the index maps (db_.jobs() is
  // sorted, so the layout is deterministic).
  for (const std::string& job : db_.jobs()) {
    for (const sim::DeviceKind device :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      if (db_.levels(job, device).empty()) continue;
      const bool cpu = device == sim::DeviceKind::kCpu;
      auto& index = cpu ? core->cpu_index : core->gpu_index;
      auto& entries = cpu ? core->cpu_entries : core->gpu_entries;
      const std::size_t n = cpu ? core->cpu_levels : core->gpu_levels;
      index.emplace(job, index.size());
      std::vector<GBps> bw(n);
      for (std::size_t l = 0; l < n; ++l) {
        entries.push_back(
            entry_at(job, device, static_cast<sim::FreqLevel>(l)));
        bw[l] = entries.back().avg_bw;
      }
      auto& classes = cpu ? cpu_classes : gpu_classes;
      auto& class_of = cpu ? cpu_class_of : gpu_class_of;
      const auto [it, fresh] = class_of.emplace(
          std::string(reinterpret_cast<const char*>(bw.data()),
                      bw.size() * sizeof(GBps)),
          classes.size());
      if (fresh) classes.push_back(std::move(bw));
      (cpu ? core->cpu_class : core->gpu_class).push_back(it->second);
    }
  }
  core->degradation =
      DegradationRegistry::instance().get(interp_, cpu_classes, gpu_classes);
  return core;
}

const CoRunPredictor::AnalyticCore* CoRunPredictor::analytic_core() const {
  if (!options_.analytic_tables) return nullptr;
  if (const AnalyticCore* core = core_.load(std::memory_order_acquire)) {
    return core;
  }
  const std::lock_guard<std::mutex> lock(core_mutex_);
  if (const AnalyticCore* core = core_.load(std::memory_order_relaxed)) {
    return core;
  }
  core_storage_ = build_core();
  core_.store(core_storage_.get(), std::memory_order_release);
  return core_storage_.get();
}

void CoRunPredictor::count_analytic_hit() const {
  // The tally only feeds the backend.analytic_hits trace counter; skip the
  // shared-cache-line increment entirely when tracing is off.
  if (trace::enabled()) {
    analytic_hits_.fetch_add(1, std::memory_order_relaxed);
  }
}

profile::ProfileEntry CoRunPredictor::entry_at(const std::string& job,
                                               sim::DeviceKind device,
                                               sim::FreqLevel level) const {
  if (db_.contains(job, device, level)) {
    return db_.at(job, device, level);
  }
  // Sub-sampled DB: interpolate between the nearest recorded levels by
  // frequency. Extrapolation is clamped to the recorded range.
  const auto levels = db_.levels(job, device);
  CORUN_CHECK_MSG(!levels.empty(), "no profiles for " + job);
  const sim::FrequencyLadder& ladder = config_.ladder(device);
  const GHz f = ladder.at(ladder.clamp(level));

  const profile::ProfileEntry* lo = nullptr;
  const profile::ProfileEntry* hi = nullptr;
  GHz f_lo = 0.0;
  GHz f_hi = 0.0;
  for (const sim::FreqLevel l : levels) {
    const GHz fl = ladder.at(l);
    const profile::ProfileEntry& e = db_.at(job, device, l);
    if (fl <= f && (lo == nullptr || fl > f_lo)) {
      lo = &e;
      f_lo = fl;
    }
    if (fl >= f && (hi == nullptr || fl < f_hi)) {
      hi = &e;
      f_hi = fl;
    }
  }
  if (lo == nullptr) return *hi;
  if (hi == nullptr) return *lo;
  if (f_hi <= f_lo) return *lo;
  const double t = (f - f_lo) / (f_hi - f_lo);
  auto lerp = [t](double a, double b) { return a * (1.0 - t) + b * t; };
  return profile::ProfileEntry{.time = lerp(lo->time, hi->time),
                               .avg_bw = lerp(lo->avg_bw, hi->avg_bw),
                               .avg_power = lerp(lo->avg_power, hi->avg_power),
                               .energy = lerp(lo->energy, hi->energy)};
}

Seconds CoRunPredictor::standalone_time(const std::string& job,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const profile::ProfileEntry* e = core->entry(device, job, level)) {
      count_analytic_hit();
      return e->time;
    }
  }
  return entry_at(job, device, level).time;
}

GBps CoRunPredictor::standalone_bw(const std::string& job,
                                   sim::DeviceKind device,
                                   sim::FreqLevel level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const profile::ProfileEntry* e = core->entry(device, job, level)) {
      count_analytic_hit();
      return e->avg_bw;
    }
  }
  return entry_at(job, device, level).avg_bw;
}

Watts CoRunPredictor::standalone_power(const std::string& job,
                                       sim::DeviceKind device,
                                       sim::FreqLevel level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const profile::ProfileEntry* e = core->entry(device, job, level)) {
      count_analytic_hit();
      return e->avg_power;
    }
  }
  return entry_at(job, device, level).avg_power;
}

PairPrediction CoRunPredictor::predict(const std::string& cpu_job,
                                       sim::FreqLevel cpu_level,
                                       const std::string& gpu_job,
                                       sim::FreqLevel gpu_level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const std::optional<PairPrediction> p =
            core->pair(cpu_job, cpu_level, gpu_job, gpu_level)) {
      count_analytic_hit();
      return *p;
    }
  }
  const profile::ProfileEntry cpu_entry =
      entry_at(cpu_job, sim::DeviceKind::kCpu, cpu_level);
  const profile::ProfileEntry gpu_entry =
      entry_at(gpu_job, sim::DeviceKind::kGpu, gpu_level);

  PairPrediction out;
  out.cpu_degradation =
      interp_.cpu_degradation(cpu_entry.avg_bw, gpu_entry.avg_bw);
  out.gpu_degradation =
      interp_.gpu_degradation(cpu_entry.avg_bw, gpu_entry.avg_bw);
  out.cpu_solo_time = cpu_entry.time;
  out.gpu_solo_time = gpu_entry.time;
  out.cpu_time = cpu_entry.time * (1.0 + out.cpu_degradation);
  out.gpu_time = gpu_entry.time * (1.0 + out.gpu_degradation);
  out.power = cpu_entry.avg_power + gpu_entry.avg_power - db_.idle_power();
  return out;
}

Watts CoRunPredictor::predict_power(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const auto rows = core->rows(cpu_job, gpu_job);
        rows && core->in_range(cpu_level, gpu_level)) {
      count_analytic_hit();
      return core->power_at(*rows, cpu_level, gpu_level);
    }
  }
  return standalone_power(cpu_job, sim::DeviceKind::kCpu, cpu_level) +
         standalone_power(gpu_job, sim::DeviceKind::kGpu, gpu_level) -
         db_.idle_power();
}

bool CoRunPredictor::corun_feasible(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level,
                                    std::optional<Watts> cap) const {
  if (!cap) return true;
  return predict_power(cpu_job, cpu_level, gpu_job, gpu_level) <= *cap;
}

bool CoRunPredictor::solo_feasible(const std::string& job,
                                   sim::DeviceKind device, sim::FreqLevel level,
                                   std::optional<Watts> cap) const {
  if (!cap) return true;
  return standalone_power(job, device, level) <= *cap;
}

std::optional<sim::FreqLevel> CoRunPredictor::best_solo_level(
    const std::string& job, sim::DeviceKind device,
    std::optional<Watts> cap) const {
  const sim::FrequencyLadder& ladder = config_.ladder(device);
  std::optional<sim::FreqLevel> best;
  Seconds best_time = std::numeric_limits<Seconds>::infinity();
  for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) {
    if (!solo_feasible(job, device, l, cap)) continue;
    const Seconds t = standalone_time(job, device, l);
    if (t < best_time) {
      best_time = t;
      best = l;
    }
  }
  return best;
}

Seconds CoRunPredictor::best_solo_time(const std::string& job,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap) const {
  const auto level = best_solo_level(job, device, cap);
  CORUN_CHECK_MSG(level.has_value(),
                  "no cap-feasible standalone level for " + job);
  return standalone_time(job, device, *level);
}

Seconds CoRunPredictor::min_corun_time(const std::string& job,
                                       sim::DeviceKind device,
                                       const std::string& partner,
                                       std::optional<Watts> cap,
                                       bool include_floor_pair) const {
  std::string key = job;
  key += device == sim::DeviceKind::kCpu ? "|c|" : "|g|";
  key += partner;
  key += '|';
  append_cap_key(key, cap);
  key += include_floor_pair ? "|f" : "|s";
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    if (const auto it = corun_min_cache_.find(key);
        it != corun_min_cache_.end()) {
      return it->second;
    }
  }

  const std::string& cpu_job = device == sim::DeviceKind::kCpu ? job : partner;
  const std::string& gpu_job = device == sim::DeviceKind::kCpu ? partner : job;
  const PairView view(*this, cpu_job, gpu_job);
  Seconds best = std::numeric_limits<Seconds>::infinity();
  for (sim::FreqLevel fc = 0; fc <= config_.cpu_ladder.max_level(); ++fc) {
    for (sim::FreqLevel fg = 0; fg <= config_.gpu_ladder.max_level(); ++fg) {
      if (!view.feasible(fc, fg, cap) &&
          !(include_floor_pair && fc == 0 && fg == 0)) {
        continue;
      }
      const PairPrediction p = view.predict(fc, fg);
      best = std::min(best,
                      device == sim::DeviceKind::kCpu ? p.cpu_time : p.gpu_time);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    memo_insert(corun_min_cache_, std::move(key), best);
  }
  return best;
}

CoRunPredictor::MemoSizes CoRunPredictor::memo_sizes() const {
  const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
  return MemoSizes{pair_cache_.size(), corun_min_cache_.size()};
}

std::optional<FreqPair> CoRunPredictor::best_pair_min_makespan(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap) const {
  return best_pair_weighted(cpu_job, gpu_job, cap, 1.0, 1.0);
}

std::optional<FreqPair> CoRunPredictor::best_pair_weighted(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap, double cpu_weight, double gpu_weight) const {
  CORUN_CHECK(cpu_weight > 0.0 && gpu_weight > 0.0);

  // Only the weight ratio matters; quantize it to quarter-octaves (clamped
  // to +-6 octaves) so repeated near-identical queries hit the memo cache.
  const double log_ratio =
      std::clamp(std::log2(gpu_weight / cpu_weight), -6.0, 6.0);
  const int bucket = static_cast<int>(std::lround(log_ratio * 4.0));
  const double wc = 1.0;
  const double wg = std::exp2(static_cast<double>(bucket) / 4.0);
  std::string key = cpu_job;
  key += '|';
  key += gpu_job;
  key += '|';
  append_cap_key(key, cap);
  key += '|';
  key += std::to_string(bucket);
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    if (const auto it = pair_cache_.find(key); it != pair_cache_.end()) {
      return it->second;
    }
  }
  const double cpu_weight_q = wc;
  const double gpu_weight_q = wg;

  const PairView view(*this, cpu_job, gpu_job);
  std::optional<FreqPair> best;
  double best_metric = std::numeric_limits<double>::infinity();
  for (sim::FreqLevel fc = 0; fc <= config_.cpu_ladder.max_level(); ++fc) {
    for (sim::FreqLevel fg = 0; fg <= config_.gpu_ladder.max_level(); ++fg) {
      if (!view.feasible(fc, fg, cap)) continue;
      const PairPrediction p = view.predict(fc, fg);
      // Tiny secondary objective: among near-equal maxima prefer the pair
      // that also finishes the lighter side sooner.
      const double metric =
          std::max(cpu_weight_q * p.cpu_time, gpu_weight_q * p.gpu_time) +
          1e-4 * (cpu_weight_q * p.cpu_time + gpu_weight_q * p.gpu_time);
      if (metric < best_metric) {
        best_metric = metric;
        best = FreqPair{fc, fg};
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    memo_insert(pair_cache_, std::move(key), best);
  }
  return best;
}

std::optional<FreqPair> CoRunPredictor::best_pair_min_degradation(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap) const {
  const PairView view(*this, cpu_job, gpu_job);
  std::optional<FreqPair> best;
  double best_metric = std::numeric_limits<double>::infinity();
  for (sim::FreqLevel fc = 0; fc <= config_.cpu_ladder.max_level(); ++fc) {
    for (sim::FreqLevel fg = 0; fg <= config_.gpu_ladder.max_level(); ++fg) {
      if (!view.feasible(fc, fg, cap)) continue;
      const PairPrediction p = view.predict(fc, fg);
      // Among equal degradations prefer the higher-frequency (faster) pair;
      // folding a small negative frequency bonus into the metric does that
      // without a separate tie-break pass.
      const double freq_bonus =
          1e-3 * (config_.cpu_ladder.fraction(fc) + config_.gpu_ladder.fraction(fg));
      const double metric = p.cpu_degradation + p.gpu_degradation - freq_bonus;
      if (metric < best_metric) {
        best_metric = metric;
        best = FreqPair{fc, fg};
      }
    }
  }
  return best;
}

std::optional<sim::FreqLevel> CoRunPredictor::best_level_against(
    const std::string& job, sim::DeviceKind device, const std::string& partner,
    sim::FreqLevel partner_level, std::optional<Watts> cap) const {
  const sim::FrequencyLadder& ladder = config_.ladder(device);
  const std::string& cpu_job = device == sim::DeviceKind::kCpu ? job : partner;
  const std::string& gpu_job = device == sim::DeviceKind::kCpu ? partner : job;
  const PairView view(*this, cpu_job, gpu_job);
  std::optional<sim::FreqLevel> best;
  double best_time = std::numeric_limits<double>::infinity();
  for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) {
    const sim::FreqLevel fc = device == sim::DeviceKind::kCpu ? l : partner_level;
    const sim::FreqLevel fg = device == sim::DeviceKind::kCpu ? partner_level : l;
    if (!view.feasible(fc, fg, cap)) continue;
    const PairPrediction p = view.predict(fc, fg);
    const double t = device == sim::DeviceKind::kCpu ? p.cpu_time : p.gpu_time;
    if (t < best_time) {
      best_time = t;
      best = l;
    }
  }
  return best;
}

}  // namespace corun::model
