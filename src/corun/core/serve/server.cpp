#include "corun/core/serve/server.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::serve {

namespace {

PlanResponse make_response(std::uint64_t seq, ResponseStatus status,
                           std::string message, std::string body = {}) {
  PlanResponse response;
  response.seq = seq;
  response.status = status;
  response.message = std::move(message);
  response.body = std::move(body);
  return response;
}

PlanResponse make_busy(std::uint64_t seq, std::string reason) {
  return make_response(seq, ResponseStatus::kBusy, std::move(reason));
}

}  // namespace

ServeSession::ServeSession(const PlanService& service, ServeOptions options,
                           ServeClock clock)
    : service_(&service), options_(options), clock_(std::move(clock)) {
  CORUN_CHECK_MSG(options_.queue_capacity > 0,
                  "serve queue capacity must be > 0");
}

void ServeSession::serve_chunk(std::vector<TimedRequest> chunk,
                               const ResponseSink& emit) {
  CORUN_TRACE_SPAN("serve", "serve.chunk");
  const std::size_t n = chunk.size();
  stats_.received += n;

  // Emission order: ascending seq, stable so duplicate client seqs keep
  // arrival order. It is fixed before anything plans, so the reply stream
  // is independent of which worker finished first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return chunk[a].request.seq < chunk[b].request.seq;
                   });

  // Bounded queue: arrival order decides who gets a slot; the rest are
  // answered busy without buffering further.
  const std::size_t admitted = std::min(n, options_.queue_capacity);
  std::vector<std::optional<PlanResponse>> ready(n);
  for (std::size_t i = admitted; i < n; ++i) {
    ready[i] = make_busy(chunk[i].request.seq, "queue full");
  }

  // Hands out every response whose turn has come; emit_mutex held.
  std::mutex emit_mutex;
  std::size_t next = 0;
  auto flush = [&] {
    for (; next < n && ready[order[next]].has_value(); ++next) {
      PlanResponse& response = *ready[order[next]];
      switch (response.status) {
        case ResponseStatus::kOk: ++stats_.ok; break;
        case ResponseStatus::kBusy: ++stats_.busy; break;
        case ResponseStatus::kError: ++stats_.errors; break;
      }
      emit(std::move(response));
    }
  };
  {
    const std::lock_guard<std::mutex> lock(emit_mutex);
    flush();
  }

  common::TaskPool::shared().parallel_for_index(
      admitted, [&](std::size_t i) {
        PlanResponse response = plan_one(chunk[i]);
        const std::lock_guard<std::mutex> lock(emit_mutex);
        ready[i] = std::move(response);
        flush();
      });
}

std::vector<PlanResponse> ServeSession::serve_chunk(
    std::vector<TimedRequest> chunk) {
  std::vector<PlanResponse> responses;
  responses.reserve(chunk.size());
  serve_chunk(std::move(chunk), [&](PlanResponse response) {
    responses.push_back(std::move(response));
  });
  return responses;
}

PlanResponse ServeSession::plan_one(const TimedRequest& timed) const {
  const std::uint64_t seq = timed.request.seq;
  const Seconds deadline = options_.deadline_seconds;
  if (deadline > 0.0) {
    const Seconds age =
        std::chrono::duration<double>(clock_() - timed.arrival).count();
    if (age > deadline) return make_busy(seq, "deadline exceeded");
  }
  try {
    auto result = service_->plan(timed.request);
    if (!result.has_value()) {
      return make_response(seq, ResponseStatus::kError,
                           result.error().message);
    }
    return make_response(seq, ResponseStatus::kOk, "",
                         std::move(result).value().text);
  } catch (const ContractViolation&) {
    // A planner contract violation on one request must degrade to an
    // error response, never take the daemon down. Its text names source
    // files, so the client only learns that the planner failed.
    return make_response(seq, ResponseStatus::kError, "internal planner error");
  } catch (const std::exception& e) {
    return make_response(seq, ResponseStatus::kError, e.what());
  }
}

}  // namespace corun::serve
