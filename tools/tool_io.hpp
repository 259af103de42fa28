// Shared file IO, usage, and parallelism plumbing for the corun
// command-line tools.
#pragma once

#include <memory>
#include <string>

#include "corun/common/expected.hpp"
#include "corun/common/flags.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/engine.hpp"

namespace corun::tools {

/// Reads a whole file; fails with a readable message on IO errors.
[[nodiscard]] Expected<std::string> read_file(const std::string& path);

/// Writes text to a file (truncating); returns false on IO failure.
bool write_file(const std::string& path, const std::string& text);

/// Prints `message` and the usage string to stderr; returns 2 (usage error).
int usage_error(const std::string& message, const std::string& usage);

/// Applies the shared `--jobs N` flag (default 0 = one worker per hardware
/// thread) to the library's task pool and returns the resolved worker
/// count. Every sweep is deterministic by construction, so any N produces
/// byte-identical artifacts; N only changes wall-clock time.
std::size_t configure_jobs(const Flags& flags);

/// Applies the shared `--engine tick|event` flag to the simulator's default
/// stepping mode (default: event). The two modes are bit-identical — tick is
/// the slow reference oracle — so, like --jobs, the flag only changes
/// wall-clock time. Returns an error on an unrecognized mode name.
[[nodiscard]] Expected<sim::EngineMode> configure_engine(const Flags& flags);

/// Applies the shared `--backend event|analytic|replay:PATH` flag (falling
/// back to the CORUN_BACKEND environment variable; default event) and
/// installs the spec process-wide via sim::set_default_backend. Call it
/// after configure_engine: `--backend analytic` switches the default
/// stepping mode to the closed-form core, while `--backend event` keeps an
/// explicit `--engine tick` pin. For replay specs the trace file is
/// pre-validated here, so a missing or malformed CSV is a usage error
/// rather than a mid-run contract violation.
[[nodiscard]] Expected<sim::BackendSpec> configure_backend(const Flags& flags);

/// Applies the shared `--thermal on|off` flag (falling back to the
/// CORUN_THERMAL environment variable; default off) process-wide via
/// sim::set_default_thermal. Thermal simulation is strictly additive: with
/// it off every tool's output is byte-identical to a build without the
/// thermal model at all. Returns the resolved enable state, or a parse
/// error for anything other than on/1/off/0.
[[nodiscard]] Expected<bool> configure_thermal(const Flags& flags);

/// Applies the shared `--trace <file.json>` flag (falling back to the
/// CORUN_TRACE environment variable, mirroring --engine/CORUN_ENGINE): when
/// a path is given, starts a fresh trace session and arms recording.
/// Returns the output path, or "" when tracing stays off.
std::string configure_trace(const Flags& flags);

/// Ends the trace session started by configure_trace: disarms recording,
/// writes the Chrome trace-event JSON to `path`, and prints the flat
/// metrics summary to stderr. No-op (returning true) when `path` is empty;
/// false when the trace file cannot be written.
bool finish_trace(const std::string& path);

/// Applies the shared `--plan-cache off|mem|mem:<capacity>|dir:<path>` flag
/// (falling back to the CORUN_PLAN_CACHE environment variable; default
/// off). Returns the constructed cache, null when caching stays off, or a
/// parse error for a malformed spec. Cache state never changes emitted
/// schedules or reports — only how much search work they cost. (Exact hits
/// replay identical requests; a truncated B&B search is the one exception,
/// and the default budget never truncates within the default job limit.)
/// `default_spec` applies when neither the flag nor the environment picks a
/// spec: one-shot tools keep the historical "" (off); the serving daemon
/// passes "mem" so a bare `corun-served` answers exact repeats from cache.
[[nodiscard]] Expected<std::shared_ptr<sched::PlanCache>> configure_plan_cache(
    const Flags& flags, const std::string& default_spec = "");

/// Prints the cache's activity counters to stderr (mirroring the trace
/// metrics summary, and keeping stdout byte-identical to uncached runs).
/// No-op when `cache` is null.
void report_plan_cache(const sched::PlanCache* cache);

}  // namespace corun::tools
