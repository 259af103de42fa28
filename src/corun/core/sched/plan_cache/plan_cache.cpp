#include "corun/core/sched/plan_cache/plan_cache.hpp"

#include <unistd.h>

#include <iterator>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "corun/common/check.hpp"
#include "corun/common/csv.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::sched {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

PlanCache::PlanCache(PlanCacheConfig config) : config_(std::move(config)) {
  CORUN_CHECK_MSG(config_.capacity > 0, "plan cache capacity must be > 0");
  CORUN_CHECK_MSG(config_.shards > 0, "plan cache shard count must be > 0");
  shards_ = std::vector<Shard>(config_.shards);
  if (!config_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
  }
}

Expected<std::shared_ptr<PlanCache>> PlanCache::from_spec(
    const std::string& spec) {
  if (spec.empty() || spec == "off") return std::shared_ptr<PlanCache>{};
  PlanCacheConfig config;
  if (spec == "mem") return std::make_shared<PlanCache>(config);
  if (spec.rfind("mem:", 0) == 0) {
    // mem:<capacity> or mem:<capacity>:<shards>.
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.find(':');
    const std::string cap_text = rest.substr(0, colon);
    try {
      std::size_t consumed = 0;
      const long long capacity = std::stoll(cap_text, &consumed);
      if (consumed != cap_text.size() || capacity <= 0) {
        throw std::invalid_argument("capacity");
      }
      config.capacity = static_cast<std::size_t>(capacity);
      if (colon != std::string::npos) {
        const std::string shard_text = rest.substr(colon + 1);
        const long long shards = std::stoll(shard_text, &consumed);
        if (consumed != shard_text.size() || shards <= 0) {
          throw std::invalid_argument("shards");
        }
        config.shards = static_cast<std::size_t>(shards);
      }
    } catch (const std::exception&) {
      return fail("plan cache: bad capacity/shards in '" + spec + "'",
                  ErrorCategory::kParse);
    }
    return std::make_shared<PlanCache>(config);
  }
  if (spec.rfind("dir:", 0) == 0 && spec.size() > 4) {
    config.dir = spec.substr(4);
    return std::make_shared<PlanCache>(config);
  }
  return fail("plan cache: spec must be off|mem|mem:<capacity>[:<shards>]"
              "|dir:<path>, got '" + spec + "'",
              ErrorCategory::kParse);
}

std::optional<Schedule> PlanCache::lookup(
    const PlanSignature& sig, const std::vector<std::string>& batch_names) {
  Shard& shard = shard_for(sig);
  std::string schedule_csv;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(sig.canonical);
    if (it == shard.index.end()) {
      if (auto loaded = load_from_disk(shard, sig)) {
        shard.stats.disk_hits.fetch_add(1, kRelaxed);
        insert_locked(shard, std::move(*loaded));
        it = shard.index.find(sig.canonical);
      }
    }
    if (it == shard.index.end()) {
      shard.stats.misses.fetch_add(1, kRelaxed);
      CORUN_TRACE_COUNTER("plan_cache.misses", 1);
      return std::nullopt;
    }
    // Touch: splice to the MRU end. The CSV text is copied out so the
    // (comparatively expensive) parse below runs outside the lock.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second);
    it->second = std::prev(shard.lru.end());
    schedule_csv = it->second->schedule_csv;
  }
  auto schedule = schedule_from_csv(schedule_csv, batch_names);
  if (!schedule.has_value()) {
    // A stored plan that no longer resolves (should not happen for an
    // exact signature match) is treated as a miss rather than an error.
    shard.stats.misses.fetch_add(1, kRelaxed);
    CORUN_TRACE_COUNTER("plan_cache.misses", 1);
    return std::nullopt;
  }
  shard.stats.hits.fetch_add(1, kRelaxed);
  CORUN_TRACE_COUNTER("plan_cache.hits", 1);
  return std::move(schedule).value();
}

void PlanCache::count_warm_start(const PlanSignature& sig) {
  shard_for(sig).stats.warm_hits.fetch_add(1, kRelaxed);
  CORUN_TRACE_COUNTER("plan_cache.warm_hits", 1);
}

void PlanCache::store(const PlanSignature& sig, const Schedule& schedule,
                      const std::vector<std::string>& batch_names) {
  std::ostringstream oss;
  schedule_to_csv(schedule, batch_names, oss);
  Entry entry{.canonical = sig.canonical,
              .job_names = sig.job_names,
              .schedule_csv = oss.str()};
  Shard& shard = shard_for(sig);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.stats.stores.fetch_add(1, kRelaxed);
  CORUN_TRACE_COUNTER("plan_cache.stores", 1);
  if (!config_.dir.empty()) save_to_disk(shard, entry, sig.hash);
  insert_locked(shard, std::move(entry));
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats total;
  for (const Shard& shard : shards_) {
    total.hits += shard.stats.hits.load(kRelaxed);
    total.misses += shard.stats.misses.load(kRelaxed);
    total.warm_hits += shard.stats.warm_hits.load(kRelaxed);
    total.evictions += shard.stats.evictions.load(kRelaxed);
    total.disk_hits += shard.stats.disk_hits.load(kRelaxed);
    total.stores += shard.stats.stores.load(kRelaxed);
    total.io_failures += shard.stats.io_failures.load(kRelaxed);
  }
  return total;
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

std::vector<std::string> PlanCache::lru_keys() const {
  std::vector<std::string> keys;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& e : shard.lru) keys.push_back(e.canonical);
  }
  return keys;
}

void PlanCache::insert_locked(Shard& shard, Entry entry) {
  const auto it = shard.index.find(entry.canonical);
  if (it != shard.index.end()) {
    *it->second = std::move(entry);
    shard.lru.splice(shard.lru.end(), shard.lru, it->second);
    it->second = std::prev(shard.lru.end());
    return;
  }
  if (shard.lru.size() >= config_.capacity) {
    shard.index.erase(shard.lru.front().canonical);
    shard.lru.pop_front();
    shard.stats.evictions.fetch_add(1, kRelaxed);
    CORUN_TRACE_COUNTER("plan_cache.evictions", 1);
  }
  shard.lru.push_back(std::move(entry));
  shard.index[shard.lru.back().canonical] = std::prev(shard.lru.end());
}

std::string PlanCache::entry_path(std::uint64_t hash) const {
  return config_.dir + "/plan_" + hex64(hash) + ".csv";
}

std::string plan_cache_entry_to_csv(const std::string& canonical,
                                    const std::vector<std::string>& job_names,
                                    const std::string& schedule_csv) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  writer.write_row({"sig", canonical});
  std::vector<std::string> jobs_row{"jobs"};
  jobs_row.insert(jobs_row.end(), job_names.begin(), job_names.end());
  writer.write_row(jobs_row);
  oss << schedule_csv;
  return oss.str();
}

std::optional<PlanCache::Entry> PlanCache::load_from_disk(
    Shard& shard, const PlanSignature& sig) {
  if (config_.dir.empty()) return std::nullopt;
  std::ifstream in(entry_path(sig.hash), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream content;
  content << in.rdbuf();
  if (in.bad()) {
    shard.stats.io_failures.fetch_add(1, kRelaxed);
    return std::nullopt;
  }
  const auto rows = parse_csv(content.str());
  // An unparsable file, or one in another layout (the older one with
  // `family` and `makespan` rows), is a miss; the next store of this
  // signature overwrites it.
  if (!rows.has_value() || rows.value().size() < 2) {
    shard.stats.io_failures.fetch_add(1, kRelaxed);
    return std::nullopt;
  }
  const auto& r = rows.value();
  if (r[0].size() != 2 || r[0][0] != "sig" || r[1].empty() ||
      r[1][0] != "jobs") {
    shard.stats.io_failures.fetch_add(1, kRelaxed);
    return std::nullopt;
  }
  // The full signature is stored precisely so a file-name hash collision or
  // stale artifact can never alias: mismatches are plain misses.
  if (r[0][1] != sig.canonical) return std::nullopt;
  Entry entry;
  entry.canonical = r[0][1];
  entry.job_names.assign(r[1].begin() + 1, r[1].end());
  std::ostringstream schedule;
  CsvWriter writer(schedule);
  for (std::size_t i = 2; i < r.size(); ++i) {
    if (r[i].empty()) continue;
    writer.write_row(r[i]);
  }
  entry.schedule_csv = schedule.str();
  return entry;
}

void PlanCache::save_to_disk(Shard& shard, const Entry& entry,
                             std::uint64_t hash) {
  // Write-then-rename: processes sharing one dir: tier (CORUN_PLAN_CACHE)
  // may store the same signature concurrently, and interleaved writes to
  // the final path would leave a torn file that reads as a miss yet
  // squats on the slot until overwritten. The temp name carries the pid
  // *and* a process-wide counter: two shards of one process (or a
  // recycled pid on a shared dir: tier) can flush the same signature hash
  // concurrently, and a pid-only suffix would let their writes interleave
  // in one temp file. rename() within one directory then atomically
  // publishes a complete file.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string path = entry_path(hash);
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(tmp_serial.fetch_add(1, kRelaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      shard.stats.io_failures.fetch_add(1, kRelaxed);
      return;
    }
    out << plan_cache_entry_to_csv(entry.canonical, entry.job_names,
                                   entry.schedule_csv);
    out.close();
    if (!out) {
      shard.stats.io_failures.fetch_add(1, kRelaxed);
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    shard.stats.io_failures.fetch_add(1, kRelaxed);
    std::filesystem::remove(tmp, ec);
  }
}

}  // namespace corun::sched
