// The serve load generator: one single-threaded client on one Unix-socket
// connection, closed loop with a fixed window of requests in flight.
//
// Two modes over a request trace (the replay-corpus CSV of protocol.hpp):
//   - once:  every row is sent once, in file order (set-up fills, and the
//            serve-miss timed phase where every request is new);
//   - cycle: rows are sent round-robin (--expect given) and every response
//            body must equal the expected body of its row byte for byte
//            (the serve-hit timed phase).
// With --seconds T > 0 no request is sent after T seconds; those in flight
// are still drained and counted. Writes <prefix>.summary (counts and the
// timed wall), <prefix>.lat ("<completion ns> <latency ns>" per ok
// response, times from the first send) and, with --bodies, every ok body
// keyed by send index.
//
// With --cpu-pid and --calib-core the timed phase is cut into slices of
// --slice-ms (default 250) milliseconds. At the end of a slice no new
// request is sent; once the window has drained, the client runs the
// calibration loop (calib/calib.hpp) on --calib-core, the program's core,
// which is idle meanwhile, and then starts the next slice. One loop runs
// before the first slice. <prefix>.slices holds "<start ns> <end ns> <ok>
// <CPU ns of process --cpu-pid>" per slice, times from the first send, and
// <prefix>.calib the ns of each loop run.
#include <dirent.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "corun/core/serve/protocol.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

int connect_unix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// CPU time of every thread of process `pid` (schedstat, ns); 0 when the
/// process cannot be read.
std::uint64_t process_cpu_ns(long pid) {
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  std::uint64_t total = 0;
  if (DIR* dir = ::opendir(tasks.c_str())) {
    while (const struct dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      std::ifstream stat(tasks + "/" + entry->d_name + "/schedstat");
      std::uint64_t ns = 0;
      if (stat >> ns) total += ns;
    }
    ::closedir(dir);
  }
  return total;
}

/// One run of the calibration loop on `core`; the calling thread moves
/// there for the run and back afterwards.
std::int64_t calibrate_on(int core) {
  cpu_set_t home;
  CPU_ZERO(&home);
  if (::sched_getaffinity(0, sizeof(home), &home) != 0) return -1;
  cpu_set_t target;
  CPU_ZERO(&target);
  CPU_SET(core, &target);
  if (::sched_setaffinity(0, sizeof(target), &target) != 0) return -1;
  const std::int64_t ns = calibration_ns();
  if (::sched_setaffinity(0, sizeof(home), &home) != 0) return -1;
  return ns;
}

/// Body files: records of "<key> <length>\n<bytes>".
std::map<std::uint64_t, std::string> read_bodies(const std::string& path) {
  const std::string text = slurp(path);
  std::map<std::uint64_t, std::string> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;
    unsigned long long key = 0;
    unsigned long long len = 0;
    if (std::sscanf(text.c_str() + pos, "%llu %llu", &key, &len) != 2 ||
        eol + 1 + len > text.size()) {
      break;
    }
    out[key] = text.substr(eol + 1, len);
    pos = eol + 1 + len;
  }
  return out;
}

}  // namespace

int run_load(const corun::Flags& f) {
  const std::string socket_path = f.get("socket", "");
  const std::string prefix = f.get("out-prefix", "");
  const auto window = static_cast<std::size_t>(f.get_int("window", 8));
  const double seconds = f.get_double("seconds", 0.0);
  if (socket_path.empty() || prefix.empty() || !f.has("requests") ||
      window == 0) {
    std::fputs("perfbench-probe load: --socket, --requests, --out-prefix "
               "and a positive --window are required\n",
               stderr);
    return 2;
  }
  const auto trace = corun::serve::load_request_trace(f.get("requests", ""));
  if (!trace.has_value() || trace.value().empty()) {
    std::fprintf(stderr, "perfbench-probe load: bad request trace: %s\n",
                 trace.has_value() ? "empty" : trace.error().message.c_str());
    return 2;
  }
  const std::vector<corun::serve::PlanRequest>& rows = trace.value();
  const bool cycle = f.has("expect");
  std::map<std::uint64_t, std::string> expected;
  if (cycle) {
    expected = read_bodies(f.get("expect", ""));
    if (expected.size() != rows.size()) {
      std::fprintf(stderr,
                   "perfbench-probe load: %zu expected bodies for %zu rows\n",
                   expected.size(), rows.size());
      return 2;
    }
  }
  const bool keep_bodies = f.has("bodies");

  const int fd = connect_unix(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "perfbench-probe load: cannot connect to %s\n",
                 socket_path.c_str());
    return 1;
  }

  const long cpu_pid = static_cast<long>(f.get_int("cpu-pid", 0));
  const auto calib_core = static_cast<int>(f.get_int("calib-core", -1));
  const bool sliced = cpu_pid > 0 && calib_core >= 0;
  const auto slice_len = std::chrono::milliseconds(f.get_int("slice-ms", 250));
  struct Slice {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t ok;
    std::uint64_t cpu_ns;
  };
  std::vector<Slice> slices;
  std::vector<std::int64_t> calibrations;
  std::vector<Clock::time_point> sent_at;
  std::vector<std::pair<std::int64_t, std::int64_t>> latencies;
  std::vector<std::pair<std::uint64_t, std::string>> bodies;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  bool exhausted = false;

  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto may_send = [&]() {
    if (seconds > 0.0 && Clock::now() >= deadline) return false;
    if (!cycle && sent_at.size() >= rows.size()) {
      exhausted = seconds > 0.0;
      return false;
    }
    return true;
  };
  auto send_next = [&]() {
    const std::uint64_t k = sent_at.size();
    corun::serve::PlanRequest request = rows[k % rows.size()];
    request.seq = k;
    const std::string payload = corun::serve::request_to_payload(request);
    sent_at.push_back(Clock::now());
    return corun::serve::write_frame(fd, payload);
  };

  Clock::time_point slice_start = start;
  std::uint64_t slice_ok = 0;
  std::uint64_t slice_cpu = 0;
  if (sliced) calibrations.push_back(calibrate_on(calib_core));
  auto begin_slice = [&]() {
    slice_start = Clock::now();
    slice_ok = ok;
    slice_cpu = sliced ? process_cpu_ns(cpu_pid) : 0;
  };
  auto end_slice = [&]() {
    const Clock::time_point end = Clock::now();
    const std::uint64_t cpu = process_cpu_ns(cpu_pid);
    slices.push_back({ns_between(start, slice_start), ns_between(start, end),
                      ok - slice_ok, cpu - slice_cpu});
    calibrations.push_back(calibrate_on(calib_core));
  };
  auto slice_open = [&]() {
    return !sliced || Clock::now() - slice_start < slice_len;
  };

  std::size_t in_flight = 0;
  auto fill_window = [&]() {
    while (in_flight < window && slice_open() && may_send()) {
      if (!send_next()) return false;
      ++in_flight;
    }
    return true;
  };
  begin_slice();
  bool io_ok = fill_window();
  Clock::time_point last = start;
  while (io_ok && in_flight > 0) {
    const auto frame = corun::serve::read_frame(fd);
    if (!frame.has_value() || !frame.value().has_value()) {
      io_ok = false;
      break;
    }
    last = Clock::now();
    --in_flight;
    const auto response =
        corun::serve::response_from_payload(*frame.value());
    bool good = response.has_value() &&
                response.value().status == corun::serve::ResponseStatus::kOk &&
                response.value().seq < sent_at.size();
    if (good && cycle) {
      const std::uint64_t row = response.value().seq % rows.size();
      good = response.value().body == expected[row];
    }
    if (good) {
      ++ok;
      latencies.emplace_back(ns_between(start, last),
                             ns_between(sent_at[response.value().seq], last));
      if (keep_bodies) {
        bodies.emplace_back(response.value().seq, response.value().body);
      }
    } else {
      if (failed == 0) {
        std::fprintf(stderr, "perfbench-probe load: bad response: %s\n",
                     frame.value()->substr(0, 200).c_str());
      }
      ++failed;
    }
    if (slice_open() && may_send()) {
      if (!send_next()) {
        io_ok = false;
        break;
      }
      ++in_flight;
    }
    if (sliced && in_flight == 0) {
      // The window has drained: this slice is over, and maybe the phase.
      end_slice();
      begin_slice();
      io_ok = fill_window();
    }
  }
  ::close(fd);
  if (!io_ok) {
    std::fputs("perfbench-probe load: transport failure\n", stderr);
    failed += in_flight;
  }

  std::ostringstream summary;
  summary << "attempted " << sent_at.size() << "\nok " << ok << "\nfailed "
          << failed << "\nwall_ns " << ns_between(start, last)
          << "\nexhausted " << (exhausted ? 1 : 0) << "\n";
  std::ofstream(prefix + ".summary") << summary.str();
  {
    std::ofstream lat(prefix + ".lat");
    for (const auto& [at, ns] : latencies) lat << at << ' ' << ns << '\n';
  }
  if (sliced) {
    std::ofstream out(prefix + ".slices");
    for (const Slice& slice : slices) {
      out << slice.start_ns << ' ' << slice.end_ns << ' ' << slice.ok << ' '
          << slice.cpu_ns << '\n';
    }
    std::ofstream calib(prefix + ".calib");
    for (const std::int64_t ns : calibrations) calib << ns << '\n';
  }
  if (keep_bodies) {
    std::ofstream out(f.get("bodies", ""), std::ios::binary);
    for (const auto& [key, body] : bodies) {
      out << key << ' ' << body.size() << '\n' << body;
    }
  }
  return io_ok ? 0 : 1;
}

}  // namespace perfbench
