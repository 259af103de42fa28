// corun-served: the long-running scheduling daemon.
//
// Loads the offline artifacts (batch, profiles, degradation grid) and the
// machine backend ONCE, then serves length-prefixed planning requests (see
// corun/core/serve/protocol.hpp) until end-of-stream or SIGTERM/SIGINT:
//
//   corun-served --batch batch.csv --profiles profiles.csv --grid grid.csv
//                [--socket /tmp/corun.sock]        # default: stdin/stdout
//                [--queue-capacity 256] [--deadline-ms 0]
//                [--jobs N] [--engine event|tick]
//                [--backend event|analytic|replay:PATH] [--trace t.json]
//                [--plan-cache off|mem|mem:N[:S]|dir:PATH]   # default: mem
//
// Natural batching: every frame already readable on the transport is
// drained into one chunk before planning, so a pipelining client amortizes
// the plan-cache and task-pool costs while an interactive client keeps
// per-request latency. Responses of a chunk are emitted in ascending seq
// order, each as soon as it and those ahead of it are planned; `ok` bodies
// are byte-identical to `corun-schedule` over the same artifacts
// regardless of batch composition, arrival interleaving, or `--jobs`.
//
// Shutdown: SIGTERM/SIGINT (or client EOF in stdin mode) ends the serve
// loop; the daemon prints its session counters and the plan-cache report
// to stderr and exits 0.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "corun/common/flags.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/core/serve/server.hpp"
#include "tool_io.hpp"

namespace {

const char kUsage[] =
    "corun-served --batch batch.csv --profiles profiles.csv --grid grid.csv "
    "[--socket PATH] [--queue-capacity 256] [--deadline-ms 0] [--jobs N] "
    "[--engine event|tick] [--backend event|analytic|replay:PATH] "
    "[--thermal on|off] [--trace trace.json] "
    "[--plan-cache off|mem|mem:N[:S]|dir:PATH]";

volatile sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

/// Installs SIGTERM/SIGINT handlers WITHOUT SA_RESTART so a signal makes
/// the blocking poll() below return EINTR instead of restarting silently.
void install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = handle_stop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A client that disconnects mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
}

/// Waits until `fd` is readable. Returns false when the daemon should stop
/// (signal) instead of reading.
bool wait_readable(int fd) {
  while (g_stop == 0) {
    struct pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, -1);
    if (r > 0) return true;
    if (r < 0 && errno != EINTR) return false;
  }
  return false;
}

/// True when `fd` has bytes ready right now (drain probe; never blocks).
bool readable_now(int fd) {
  struct pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0;
}

/// Serves one connected stream until clean EOF, IO error, or stop signal.
/// Frames that fail to parse are answered `error` with seq 0 (the seq is
/// unknowable); they sort ahead of the chunk's planned responses.
void serve_stream(int in_fd, int out_fd, corun::serve::ServeSession& session) {
  using corun::serve::PlanResponse;
  using corun::serve::ResponseStatus;
  using corun::serve::TimedRequest;
  while (g_stop == 0) {
    if (!wait_readable(in_fd)) return;

    // Drain every frame already on the transport into one chunk.
    std::vector<TimedRequest> chunk;
    std::vector<PlanResponse> malformed;
    do {
      auto frame = corun::serve::read_frame(in_fd);
      if (!frame.has_value()) {
        std::fprintf(stderr, "corun-served: %s\n",
                     frame.error().message.c_str());
        return;
      }
      if (!frame.value().has_value()) {  // clean EOF
        if (chunk.empty() && malformed.empty()) return;
        break;
      }
      auto request = corun::serve::request_from_payload(*frame.value());
      if (!request.has_value()) {
        PlanResponse bad;
        bad.status = ResponseStatus::kError;
        bad.message = request.error().message;
        malformed.push_back(std::move(bad));
        continue;
      }
      chunk.push_back(TimedRequest{std::move(request).value(),
                                   std::chrono::steady_clock::now()});
    } while (readable_now(in_fd));

    // Each response is written as soon as the session hands it out, so a
    // pipelining client refills the transport while the rest of the chunk
    // plans, and the next chunk is already waiting when this one ends.
    // The malformed answers (seq 0) go out just ahead of the first planned
    // response with a higher seq, where an ascending-seq sort puts them.
    bool written = true;
    auto write = [&](const PlanResponse& response) {
      written = written && corun::serve::write_frame(
                               out_fd,
                               corun::serve::response_to_payload(response));
    };
    std::size_t malformed_sent = 0;
    auto write_malformed = [&] {
      while (malformed_sent < malformed.size()) {
        write(malformed[malformed_sent++]);
      }
    };
    session.serve_chunk(std::move(chunk), [&](PlanResponse response) {
      if (response.seq > 0) write_malformed();
      write(response);
    });
    write_malformed();
    if (!written) {
      std::fprintf(stderr, "corun-served: response write failed\n");
      return;
    }
  }
}

/// Binds and listens on a fresh Unix stream socket at `path` (replacing a
/// stale file). Returns the listening fd, or -1 with a message on stderr.
int listen_unix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "corun-served: socket path too long: %s\n",
                 path.c_str());
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "corun-served: socket: %s\n", std::strerror(errno));
    return -1;
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 8) < 0) {
    std::fprintf(stderr, "corun-served: bind/listen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun;
  const auto flags = Flags::parse(
      argc, argv,
      {"batch", "profiles", "grid", "socket", "queue-capacity", "deadline-ms",
       "jobs", "engine", "backend", "thermal", "trace", "plan-cache"},
      {});
  if (!flags.has_value()) {
    return tools::usage_error(flags.error().message, kUsage);
  }
  const Flags& f = flags.value();
  for (const char* required : {"batch", "profiles", "grid"}) {
    if (!f.has(required)) {
      return tools::usage_error(std::string("--") + required + " is required",
                                kUsage);
    }
  }

  // Startup cost paid once: artifacts, predictor, backend, plan cache.
  const auto batch_text = tools::read_file(f.get("batch", ""));
  const auto profile_text = tools::read_file(f.get("profiles", ""));
  const auto grid_text = tools::read_file(f.get("grid", ""));
  for (const auto* t : {&batch_text, &profile_text, &grid_text}) {
    if (!t->has_value()) return tools::usage_error(t->error().message, kUsage);
  }
  const auto batch = workload::batch_from_csv(batch_text.value());
  if (!batch.has_value())
    return tools::usage_error(batch.error().message, kUsage);
  const auto db = profile::ProfileDB::read_csv(profile_text.value());
  if (!db.has_value()) return tools::usage_error(db.error().message, kUsage);
  const auto grid = model::DegradationGrid::read_csv(grid_text.value());
  if (!grid.has_value()) return tools::usage_error(grid.error().message, kUsage);

  const sim::MachineConfig config = sim::ivy_bridge();
  const model::CoRunPredictor predictor(db.value(), grid.value(), config);
  (void)tools::configure_jobs(f);
  const auto engine_mode = tools::configure_engine(f);
  if (!engine_mode.has_value()) {
    return tools::usage_error(engine_mode.error().message, kUsage);
  }
  const auto backend = tools::configure_backend(f);
  if (!backend.has_value()) {
    return tools::usage_error(backend.error().message, kUsage);
  }
  const auto thermal = tools::configure_thermal(f);
  if (!thermal.has_value()) {
    return tools::usage_error(thermal.error().message, kUsage);
  }
  const std::string trace_path = tools::configure_trace(f);
  const auto plan_cache = tools::configure_plan_cache(f, "mem");
  if (!plan_cache.has_value()) {
    return tools::usage_error(plan_cache.error().message, kUsage);
  }

  serve::ServeOptions options;
  const std::int64_t queue_capacity = f.get_int("queue-capacity", 256);
  if (queue_capacity <= 0) {
    return tools::usage_error("--queue-capacity must be > 0", kUsage);
  }
  options.queue_capacity = static_cast<std::size_t>(queue_capacity);
  const std::int64_t deadline_ms = f.get_int("deadline-ms", 0);
  if (deadline_ms < 0) {
    return tools::usage_error("--deadline-ms must be >= 0", kUsage);
  }
  options.deadline_seconds = static_cast<double>(deadline_ms) / 1000.0;

  serve::PlanService service(batch.value(), predictor, plan_cache.value());
  serve::ServeSession session(service, options);
  install_signal_handlers();

  const std::string socket_path = f.get("socket", "");
  if (socket_path.empty()) {
    serve_stream(STDIN_FILENO, STDOUT_FILENO, session);
  } else {
    const int listen_fd = listen_unix(socket_path);
    if (listen_fd < 0) return 1;
    std::fprintf(stderr, "corun-served: listening on %s\n",
                 socket_path.c_str());
    while (g_stop == 0) {
      if (!wait_readable(listen_fd)) break;
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "corun-served: accept: %s\n",
                     std::strerror(errno));
        break;
      }
      serve_stream(client, client, session);
      ::close(client);
    }
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
  }

  const serve::ServeStats& stats = session.stats();
  std::fprintf(stderr,
               "corun-served: received=%llu ok=%llu busy=%llu errors=%llu\n",
               static_cast<unsigned long long>(stats.received),
               static_cast<unsigned long long>(stats.ok),
               static_cast<unsigned long long>(stats.busy),
               static_cast<unsigned long long>(stats.errors));
  tools::report_plan_cache(plan_cache.value().get());
  if (!tools::finish_trace(trace_path)) return 1;
  return 0;
}
