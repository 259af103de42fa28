#include "corun/core/sched/schedule.hpp"

#include <ostream>
#include <sstream>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/csv.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

void Schedule::validate(std::size_t batch_size) const {
  if (shared_queue) {
    CORUN_CHECK_MSG(cpu.empty() && gpu.empty(),
                    "shared-queue schedule must not also use per-device lists");
  } else {
    CORUN_CHECK_MSG(shared.empty(),
                    "per-device schedule must not carry a shared queue");
  }
  std::vector<int> seen(batch_size, 0);
  auto mark = [&](std::size_t job) {
    CORUN_CHECK_MSG(job < batch_size, "schedule references job out of range");
    ++seen[job];
  };
  for (const ScheduledJob& j : cpu) mark(j.job);
  for (const ScheduledJob& j : gpu) mark(j.job);
  for (const ScheduledJob& j : shared) mark(j.job);
  for (const SoloJob& j : solo) mark(j.job);
  for (std::size_t i = 0; i < batch_size; ++i) {
    CORUN_CHECK_MSG(seen[i] == 1, "job " + std::to_string(i) +
                                      " scheduled " + std::to_string(seen[i]) +
                                      " times (expected exactly once)");
  }
}

std::string Schedule::to_string(
    const std::vector<std::string>& job_names) const {
  auto name = [&](std::size_t job) {
    return job < job_names.size() ? job_names[job]
                                  : "#" + std::to_string(job);
  };
  std::ostringstream oss;
  if (shared_queue) {
    oss << "shared:";
    for (const ScheduledJob& j : shared) {
      oss << ' ' << name(j.job);
    }
    return oss.str();
  }
  oss << "CPU:";
  for (const ScheduledJob& j : cpu) {
    oss << ' ' << name(j.job) << "@L" << j.level;
  }
  if (cpu_batch_launch) oss << " (batch launch)";
  oss << " | GPU:";
  for (const ScheduledJob& j : gpu) {
    oss << ' ' << name(j.job) << "@L" << j.level;
  }
  if (!solo.empty()) {
    oss << " | solo:";
    for (const SoloJob& j : solo) {
      oss << ' ' << name(j.job) << '/'
          << sim::device_name(j.device) << "@L" << j.level;
    }
  }
  return oss.str();
}

const workload::Batch& SchedulerContext::jobs() const {
  CORUN_CHECK(batch != nullptr);
  return *batch;
}

const model::CoRunPredictor& SchedulerContext::model() const {
  CORUN_CHECK(predictor != nullptr);
  return *predictor;
}

std::string SchedulerContext::job_name(std::size_t i) const {
  return jobs().job(i).instance_name;
}

std::vector<std::string> SchedulerContext::job_names() const {
  std::vector<std::string> names;
  names.reserve(jobs().size());
  for (const workload::BatchJob& j : jobs().jobs()) {
    names.push_back(j.instance_name);
  }
  return names;
}

std::optional<std::string> cap_infeasibility(const SchedulerContext& ctx) {
  if (!ctx.cap) return std::nullopt;
  const model::CoRunPredictor& m = ctx.model();
  for (std::size_t i = 0; i < ctx.jobs().size(); ++i) {
    const std::string name = ctx.job_name(i);
    if (!m.best_solo_level(name, sim::DeviceKind::kCpu, ctx.cap) &&
        !m.best_solo_level(name, sim::DeviceKind::kGpu, ctx.cap)) {
      std::ostringstream oss;
      oss << "cap " << *ctx.cap << " W is below the predicted power of job '"
          << name << "' at every frequency level on both devices";
      return oss.str();
    }
  }
  return std::nullopt;
}

void schedule_to_csv(const Schedule& schedule,
                     const std::vector<std::string>& job_names,
                     std::ostream& out) {
  schedule.validate(job_names.size());
  CsvWriter writer(out);
  writer.write_row({"flags", schedule.cpu_batch_launch ? "1" : "0",
                    schedule.shared_queue ? "1" : "0",
                    schedule.model_dvfs ? "1" : "0"});
  auto emit = [&](const char* section, std::size_t pos, std::size_t job,
                  sim::FreqLevel level, const char* device) {
    writer.write_row({"entry", section, std::to_string(pos), job_names[job],
                      std::to_string(level), device});
  };
  for (std::size_t i = 0; i < schedule.cpu.size(); ++i) {
    emit("cpu", i, schedule.cpu[i].job, schedule.cpu[i].level, "-");
  }
  for (std::size_t i = 0; i < schedule.gpu.size(); ++i) {
    emit("gpu", i, schedule.gpu[i].job, schedule.gpu[i].level, "-");
  }
  for (std::size_t i = 0; i < schedule.shared.size(); ++i) {
    emit("shared", i, schedule.shared[i].job, schedule.shared[i].level, "-");
  }
  for (std::size_t i = 0; i < schedule.solo.size(); ++i) {
    emit("solo", i, schedule.solo[i].job, schedule.solo[i].level,
         sim::device_name(schedule.solo[i].device));
  }
}

Expected<Schedule> schedule_from_csv(const std::string& text,
                                     const std::vector<std::string>& job_names) {
  const auto rows = parse_csv(text);
  if (!rows.has_value()) return rows.error();
  auto job_index = [&](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < job_names.size(); ++i) {
      if (job_names[i] == name) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };

  Schedule schedule;
  bool flags_seen = false;
  for (const auto& row : rows.value()) {
    if (row.empty()) continue;
    if (row[0] == "flags") {
      if (row.size() != 4) return fail("schedule CSV: flags row arity != 4", ErrorCategory::kParse);
      schedule.cpu_batch_launch = row[1] == "1";
      schedule.shared_queue = row[2] == "1";
      schedule.model_dvfs = row[3] == "1";
      flags_seen = true;
      continue;
    }
    if (row[0] != "entry") return fail("schedule CSV: unknown row '" + row[0] + "'", ErrorCategory::kParse);
    if (row.size() != 6) return fail("schedule CSV: entry row arity != 6", ErrorCategory::kParse);
    const std::ptrdiff_t job = job_index(row[3]);
    if (job < 0) return fail("schedule CSV: unknown job '" + row[3] + "'", ErrorCategory::kNotFound);
    int level = 0;
    try {
      level = std::stoi(row[4]);
    } catch (const std::exception&) {
      return fail("schedule CSV: bad level '" + row[4] + "'", ErrorCategory::kParse);
    }
    const std::size_t j = static_cast<std::size_t>(job);
    if (row[1] == "cpu") {
      schedule.cpu.push_back({j, level});
    } else if (row[1] == "gpu") {
      schedule.gpu.push_back({j, level});
    } else if (row[1] == "shared") {
      schedule.shared.push_back({j, level});
    } else if (row[1] == "solo") {
      const sim::DeviceKind device =
          row[5] == "CPU" ? sim::DeviceKind::kCpu : sim::DeviceKind::kGpu;
      schedule.solo.push_back({j, device, level});
    } else {
      return fail("schedule CSV: unknown section '" + row[1] + "'", ErrorCategory::kParse);
    }
  }
  if (!flags_seen) return fail("schedule CSV: missing flags row", ErrorCategory::kParse);
  try {
    schedule.validate(job_names.size());
  } catch (const ContractViolation& e) {
    return fail(std::string("schedule CSV invalid: ") + e.what(), ErrorCategory::kParse);
  }
  return schedule;
}

}  // namespace corun::sched
