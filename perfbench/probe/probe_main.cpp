#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "corun/common/flags.hpp"
#include "corun/core/fleet/fleet.hpp"
#include "calib.hpp"
#include "corun/sim/fault_injector.hpp"
#include "probe.hpp"

namespace perfbench {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "perfbench-probe: cannot read '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

namespace {

const char kUsage[] =
    "perfbench-probe gen-faults --seed S --count N --out-prefix P\n"
    "perfbench-probe gen-fleet --seed S --machines N --out F\n"
    "perfbench-probe load --socket PATH --requests R.csv --window W "
    "[--seconds T] [--expect E] [--bodies B] [--cpu-pid PID --calib-core C] "
    "[--slice-ms MS] --out-prefix P\n"
    "perfbench-probe trace --workload W --dir D --seconds T [--max-ops N] "
    "--out-prefix P\n"
    "perfbench-probe calib [--reps N]\n"
    "perfbench-probe stamp\n";

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

/// Plan i of seed S draws from FaultInjector seed S * 1000 + i: arrivals,
/// cap moves and profile noise inside the batch's first two minutes.
int gen_faults(const corun::Flags& f) {
  const auto seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  const std::int64_t count = f.get_int("count", 8);
  const std::string prefix = f.get("out-prefix", "");
  if (prefix.empty() || count <= 0) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  corun::sim::FaultInjectorOptions opts;
  opts.arrivals = 2;
  opts.cap_changes = 2;
  opts.noise_events = 2;
  opts.horizon = 120.0;
  opts.cap_low = 10.0;
  opts.cap_high = 20.0;
  for (std::int64_t i = 0; i < count; ++i) {
    const corun::sim::FaultInjector injector(
        opts, seed * 1000 + static_cast<std::uint64_t>(i));
    std::ostringstream oss;
    corun::sim::fault_plan_to_csv(injector.generate(), oss);
    if (!write_text(prefix + std::to_string(i) + ".csv", oss.str())) return 1;
  }
  return 0;
}

/// One arrival wave, one dropout and one global-cap raise from the default
/// 11 W to 11.5..13 W per machine. The seed draws the wave, the victim and
/// the cap. Event times are fixed at 20, 30 and 40 s, and the cap always
/// rises: when an event lands and which way the cap moves decide how many
/// machines re-plan, and that should not vary from seed to seed.
int gen_fleet(const corun::Flags& f) {
  const auto seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  const std::int64_t machines = f.get_int("machines", 1024);
  const std::string out = f.get("out", "");
  if (out.empty() || machines <= 0) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string spec =
      "random:dropouts=1,caps=1,waves=1,horizon=60,wave_jobs=4,cap_low=11.5,"
      "cap_high=13,seed=" +
      std::to_string(seed);
  const auto plan = corun::fleet::generate_fleet_plan_from_spec(
      spec, static_cast<std::size_t>(machines));
  if (!plan.has_value()) {
    std::fprintf(stderr, "perfbench-probe: %s\n",
                 plan.error().message.c_str());
    return 1;
  }
  corun::fleet::FleetPlan pinned = plan.value();
  for (corun::fleet::FleetEvent& event : pinned.events) {
    switch (event.kind) {
      case corun::fleet::FleetEventKind::kWave: event.time = 20.0; break;
      case corun::fleet::FleetEventKind::kDropout: event.time = 30.0; break;
      case corun::fleet::FleetEventKind::kGlobalCap: event.time = 40.0; break;
    }
  }
  pinned.sort();
  std::ostringstream oss;
  corun::fleet::fleet_plan_to_csv(pinned, oss);
  return write_text(out, oss.str()) ? 0 : 1;
}

/// Runs the calibration loop --reps times on the calling core; prints the
/// ns of each run on its own line.
int calib(const corun::Flags& f) {
  const std::int64_t reps = f.get_int("reps", 1);
  for (std::int64_t i = 0; i < reps; ++i) {
    std::printf("%lld\n", static_cast<long long>(calibration_ns()));
  }
  return 0;
}

int stamp() {
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  std::printf("compiler=%s build_type=%s asserts=%s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE, asserts);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = corun::Flags::parse(
      argc - 1, argv + 1,
      {"seed", "count", "out-prefix", "machines", "out", "socket", "requests",
       "window", "seconds", "expect", "bodies", "cpu-pid", "slice-ms",
       "workload", "dir", "max-ops", "calib-core", "reps"},
      {});
  if (!flags.has_value()) {
    std::fprintf(stderr, "perfbench-probe: %s\n%s",
                 flags.error().message.c_str(), kUsage);
    return 2;
  }
  if (cmd == "gen-faults") return gen_faults(flags.value());
  if (cmd == "gen-fleet") return gen_fleet(flags.value());
  if (cmd == "load") return run_load(flags.value());
  if (cmd == "trace") return run_trace(flags.value());
  if (cmd == "calib") return calib(flags.value());
  if (cmd == "stamp") return stamp();
  std::fputs(kUsage, stderr);
  return 2;
}
