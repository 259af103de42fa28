// Serving subsystem: wire-protocol round trips, framing, the amortized
// signature builder, PlanService byte-identity with direct planning, and
// ServeSession's graceful-degradation triage.
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/core/serve/server.hpp"

namespace corun::serve {
namespace {

using corun::testing::motivation_fixture;

PlanRequest sample_request() {
  PlanRequest request;
  request.seq = 7;
  request.cap = 1.0 / 3.0;  // only survives the wire via %.17g
  request.scheduler = "bnb";
  request.policy = "cpu";
  request.seed = 9;
  request.jobs = {"sc", "lud"};
  return request;
}

TEST(ServeProtocol, RequestPayloadRoundTripsExactly) {
  const PlanRequest request = sample_request();
  const auto parsed = request_from_payload(request_to_payload(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().seq, request.seq);
  ASSERT_TRUE(parsed.value().cap.has_value());
  EXPECT_EQ(*parsed.value().cap, *request.cap);  // bit-exact, not approximate
  EXPECT_EQ(parsed.value().scheduler, request.scheduler);
  EXPECT_EQ(parsed.value().policy, request.policy);
  EXPECT_EQ(parsed.value().seed, request.seed);
  EXPECT_EQ(parsed.value().jobs, request.jobs);

  PlanRequest uncapped = request;
  uncapped.cap.reset();
  uncapped.jobs.clear();
  const auto parsed2 = request_from_payload(request_to_payload(uncapped));
  ASSERT_TRUE(parsed2.has_value());
  EXPECT_FALSE(parsed2.value().cap.has_value());
  EXPECT_TRUE(parsed2.value().jobs.empty());
}

TEST(ServeProtocol, MalformedRequestPayloadsAreRejectedNotGuessed) {
  // The CLI's garbage-parses-as-0 flag idiom stops at the wire: every
  // malformed frame must be a parse error the daemon answers `error`.
  for (const char* bad : {
           "",                          // empty
           "plan",                      // too few fields
           "nope,1,15,bnb,gpu,42",      // wrong verb
           "plan,x,15,bnb,gpu,42",      // bad seq
           "plan,1,cap,bnb,gpu,42",     // bad cap
           "plan,1,15,,gpu,42",         // empty scheduler
           "plan,1,15,bnb,gpu,seed",    // bad seed
           "plan,1,15,bnb,gpu,42,,sc",  // empty job name
       }) {
    EXPECT_FALSE(request_from_payload(bad).has_value()) << bad;
  }
}

TEST(ServeProtocol, ResponsePayloadRoundTripsBodyVerbatim) {
  PlanResponse response;
  response.seq = 3;
  response.status = ResponseStatus::kOk;
  response.body = "scheduler: BnB\nplan:      cpu[]\n";  // embedded newlines
  const auto parsed = response_from_payload(response_to_payload(response));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().seq, 3u);
  EXPECT_EQ(parsed.value().status, ResponseStatus::kOk);
  EXPECT_EQ(parsed.value().body, response.body);

  PlanResponse busy;
  busy.seq = 4;
  busy.status = ResponseStatus::kBusy;
  busy.message = "queue full";
  const auto parsed2 = response_from_payload(response_to_payload(busy));
  ASSERT_TRUE(parsed2.has_value());
  EXPECT_EQ(parsed2.value().status, ResponseStatus::kBusy);
  EXPECT_EQ(parsed2.value().message, "queue full");
  EXPECT_TRUE(parsed2.value().body.empty());
}

TEST(ServeProtocol, FramesRoundTripOverAPipeAndEofIsClean) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(write_frame(fds[1], "hello"));
  ASSERT_TRUE(write_frame(fds[1], ""));  // zero-length payload is legal
  ::close(fds[1]);

  auto one = read_frame(fds[0]);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(one.value().has_value());
  EXPECT_EQ(*one.value(), "hello");
  auto two = read_frame(fds[0]);
  ASSERT_TRUE(two.has_value());
  ASSERT_TRUE(two.value().has_value());
  EXPECT_EQ(*two.value(), "");
  auto eof = read_frame(fds[0]);
  ASSERT_TRUE(eof.has_value());
  EXPECT_FALSE(eof.value().has_value());  // clean end-of-stream
  ::close(fds[0]);
}

TEST(ServeProtocol, TornFrameIsAnErrorNotACleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char partial[] = {8, 0, 0, 0, 'h', 'i'};  // announces 8, sends 2
  ASSERT_EQ(::write(fds[1], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[1]);
  const auto torn = read_frame(fds[0]);
  EXPECT_FALSE(torn.has_value());
  ::close(fds[0]);
}

TEST(ServeProtocol, RequestTraceCsvRoundTripsIncludingSeventeenG) {
  std::vector<PlanRequest> requests{sample_request()};
  requests.push_back(PlanRequest{});  // defaults: uncapped, full batch
  std::ostringstream oss;
  request_trace_to_csv(requests, oss);
  const auto parsed = request_trace_from_csv(oss.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(*parsed.value()[0].cap, 1.0 / 3.0);
  EXPECT_EQ(parsed.value()[0].jobs, (std::vector<std::string>{"sc", "lud"}));
  EXPECT_FALSE(parsed.value()[1].cap.has_value());
  EXPECT_TRUE(parsed.value()[1].jobs.empty());

  EXPECT_FALSE(request_trace_from_csv("not,a,header\n1,2,3").has_value());
}

TEST(SignatureBuilder, ByteIdenticalToMakeSignature) {
  const auto& f = motivation_fixture();
  const sched::SignatureBuilder builder(*f.predictor);
  for (const auto cap : {std::optional<Watts>{12.0}, std::optional<Watts>{},
                         std::optional<Watts>{17.5}}) {
    const auto ctx = f.context(cap);
    for (const char* scheduler : {"bnb", "hcs+"}) {
      const sched::PlanSignature a = sched::make_signature(ctx, scheduler, 42);
      const sched::PlanSignature b = builder.build(ctx, scheduler, 42);
      EXPECT_EQ(a.canonical, b.canonical);
      EXPECT_EQ(a.hash, b.hash);
      EXPECT_EQ(a.job_names, b.job_names);
    }
  }
}

/// The service under test, over the shared fixture with a small cache.
class PlanServiceTest : public ::testing::Test {
 protected:
  PlanServiceTest()
      : cache_(sched::PlanCache::from_spec("mem").value()),
        service_(motivation_fixture().batch, *motivation_fixture().predictor,
                 cache_) {}
  std::shared_ptr<sched::PlanCache> cache_;
  PlanService service_;
};

TEST_F(PlanServiceTest, FullBatchPlanMatchesDirectSchedulerByteForByte) {
  const auto& f = motivation_fixture();
  PlanRequest request;
  request.cap = 15.0;
  request.scheduler = "bnb";
  request.seed = 42;
  const auto planned = service_.plan(request);
  ASSERT_TRUE(planned.has_value());

  const auto ctx = f.context(15.0);
  auto direct = sched::make_scheduler("bnb", 42);
  const sched::Schedule expect = direct->plan(ctx);
  const sched::MakespanEvaluator evaluator(ctx);
  EXPECT_EQ(planned.value().text,
            render_plan_report(direct->name(),
                               expect.to_string(ctx.job_names()),
                               evaluator.makespan(expect),
                               sched::compute_lower_bound(ctx).t_low_tight));

  // Replanning the identical request is answered from the cache with the
  // identical bytes.
  const auto again = service_.plan(request);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again.value().text, planned.value().text);
  EXPECT_EQ(cache_->stats().hits, 1u);
}

TEST_F(PlanServiceTest, SubsetRequestPlansTheSubBatchInRequestOrder) {
  const auto& f = motivation_fixture();
  std::vector<std::string> names;
  for (const auto& job : f.batch.jobs()) names.push_back(job.instance_name);
  ASSERT_GE(names.size(), 3u);

  PlanRequest request;
  request.cap = 14.0;
  request.scheduler = "hcs+";
  // Deliberately not batch order: the request order defines the sub-batch.
  request.jobs = {names[2], names[0]};
  const auto planned = service_.plan(request);
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(planned.value().job_names,
            (std::vector<std::string>{names[2], names[0]}));

  workload::Batch sub;
  for (const std::string& name : request.jobs) {
    for (const auto& job : f.batch.jobs()) {
      if (job.instance_name == name) {
        sub.add(job.descriptor, job.seed, job.instance_name);
      }
    }
  }
  sched::SchedulerContext ctx = f.context(14.0);
  ctx.batch = &sub;
  auto direct = sched::make_scheduler("hcs+", 42);
  EXPECT_EQ(planned.value().text,
            render_plan_report(
                direct->name(), direct->plan(ctx).to_string(ctx.job_names()),
                sched::MakespanEvaluator(ctx).makespan(direct->plan(ctx)),
                sched::compute_lower_bound(ctx).t_low_tight));
}

TEST_F(PlanServiceTest, BadRequestsFailWithoutPlanning) {
  PlanRequest unknown_scheduler;
  unknown_scheduler.scheduler = "simulated-annealing";
  EXPECT_FALSE(service_.plan(unknown_scheduler).has_value());

  PlanRequest unknown_policy;
  unknown_policy.policy = "npu";
  EXPECT_FALSE(service_.plan(unknown_policy).has_value());

  PlanRequest unknown_job;
  unknown_job.jobs = {"not-a-job"};
  EXPECT_FALSE(service_.plan(unknown_job).has_value());

  PlanRequest duplicate_job;
  const auto& f = motivation_fixture();
  duplicate_job.jobs = {f.batch.jobs()[0].instance_name,
                        f.batch.jobs()[0].instance_name};
  EXPECT_FALSE(service_.plan(duplicate_job).has_value());
}

TEST_F(PlanServiceTest, ServeChunkOrdersBySeqAndTriagesOverloadHonestly) {
  auto timed = [](std::uint64_t seq) {
    TimedRequest t;
    t.request.seq = seq;
    t.request.cap = 15.0;
    t.request.scheduler = "hcs+";
    t.arrival = std::chrono::steady_clock::now();
    return t;
  };

  // Out-of-order seqs come back ascending, all ok.
  {
    ServeSession session(service_, ServeOptions{});
    auto responses = session.serve_chunk({timed(5), timed(1), timed(3)});
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].seq, 1u);
    EXPECT_EQ(responses[1].seq, 3u);
    EXPECT_EQ(responses[2].seq, 5u);
    for (const auto& r : responses) {
      EXPECT_EQ(r.status, ResponseStatus::kOk);
      EXPECT_EQ(r.body, responses[0].body);  // identical request, same bytes
    }
    EXPECT_EQ(session.stats().ok, 3u);
  }

  // Queue overflow: arrival order keeps the slot, the tail is busy.
  {
    ServeOptions options;
    options.queue_capacity = 1;
    ServeSession session(service_, options);
    auto responses = session.serve_chunk({timed(9), timed(2), timed(4)});
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].seq, 2u);
    EXPECT_EQ(responses[0].status, ResponseStatus::kBusy);
    EXPECT_EQ(responses[2].seq, 9u);
    EXPECT_EQ(responses[2].status, ResponseStatus::kOk);
    EXPECT_EQ(session.stats().busy, 2u);
  }

  // Deadline: a request that aged past the budget is busy, not planned.
  // The session reads a fixed fake "now", so the fresh request is exactly
  // 0 s old however long the host takes to reach the check.
  {
    ServeOptions options;
    options.deadline_seconds = 0.001;
    const auto now = std::chrono::steady_clock::now();
    ServeSession session(service_, options, [now] { return now; });
    TimedRequest stale = timed(1);
    stale.arrival = now - std::chrono::seconds(5);
    TimedRequest fresh = timed(2);
    fresh.arrival = now;
    auto responses = session.serve_chunk({std::move(stale), std::move(fresh)});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, ResponseStatus::kBusy);
    EXPECT_EQ(responses[0].message, "deadline exceeded");
    EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  }

  // A failing request degrades to an error response in its seq slot.
  {
    ServeSession session(service_, ServeOptions{});
    TimedRequest bad = timed(2);
    bad.request.scheduler = "nonsense";
    auto responses = session.serve_chunk({timed(3), std::move(bad)});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].seq, 2u);
    EXPECT_EQ(responses[0].status, ResponseStatus::kError);
    EXPECT_EQ(responses[1].seq, 3u);
    EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
    EXPECT_EQ(session.stats().errors, 1u);
  }
}

TEST_F(PlanServiceTest, ServeChunkEmitsEachResponseAsSoonAsItsTurnComes) {
  // The deadline clock is read right before each plan starts, so a fake
  // clock that counts its calls tells how many requests had started
  // planning when the sink saw each response. One worker plans the chunk
  // in arrival order.
  common::set_default_jobs(1);
  int plans_started = 0;
  const auto now = std::chrono::steady_clock::now();
  ServeOptions options;
  options.deadline_seconds = 3600.0;
  auto timed = [&](std::uint64_t seq) {
    TimedRequest t;
    t.request.seq = seq;
    t.request.cap = 15.0;
    t.request.scheduler = "hcs+";
    t.arrival = now;
    return t;
  };
  using Seen = std::vector<std::pair<std::uint64_t, int>>;
  auto serve = [&](ServeSession& session, std::vector<TimedRequest> chunk) {
    Seen seen;
    plans_started = 0;
    session.serve_chunk(std::move(chunk), [&](PlanResponse response) {
      seen.emplace_back(response.seq, plans_started);
    });
    return seen;
  };
  ServeSession session(service_, options, [&] {
    ++plans_started;
    return now;
  });

  // In-order arrivals: each response goes out before the next plan starts.
  EXPECT_EQ(serve(session, {timed(1), timed(2), timed(3)}),
            (Seen{{1, 1}, {2, 2}, {3, 3}}));
  // Seq 3 arrived first but waits for seq 1 and 2 ahead of it.
  EXPECT_EQ(serve(session, {timed(3), timed(1), timed(2)}),
            (Seen{{1, 2}, {2, 3}, {3, 3}}));

  // Queue-full answers need no planning and go out before any plan starts.
  options.queue_capacity = 1;
  ServeSession small(service_, options, [&] {
    ++plans_started;
    return now;
  });
  EXPECT_EQ(serve(small, {timed(9), timed(2), timed(4)}),
            (Seen{{2, 0}, {4, 0}, {9, 1}}));
  EXPECT_EQ(small.stats().busy, 2u);
  EXPECT_EQ(small.stats().ok, 1u);
  common::set_default_jobs(0);
}

TEST_F(PlanServiceTest, ServeChunkEmitsInSeqOrderFromParallelWorkers) {
  common::set_default_jobs(4);
  std::vector<TimedRequest> chunk;
  for (const std::uint64_t seq : {7, 3, 11, 5, 3, 1, 9, 2}) {
    TimedRequest t;
    t.request.seq = seq;
    t.request.cap = 12.0 + static_cast<double>(seq);
    t.request.scheduler = seq % 2 == 0 ? "hcs+" : "bnb";
    t.arrival = std::chrono::steady_clock::now();
    chunk.push_back(std::move(t));
  }
  ServeSession session(service_, ServeOptions{});
  const std::vector<PlanResponse> streamed = session.serve_chunk(chunk);
  common::set_default_jobs(0);
  ASSERT_EQ(streamed.size(), chunk.size());
  for (std::size_t i = 1; i < streamed.size(); ++i) {
    EXPECT_LE(streamed[i - 1].seq, streamed[i].seq);
  }
  // Bodies match one-at-a-time planning of the same requests.
  for (const PlanResponse& response : streamed) {
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    PlanRequest request;
    request.seq = response.seq;
    request.cap = 12.0 + static_cast<double>(response.seq);
    request.scheduler = response.seq % 2 == 0 ? "hcs+" : "bnb";
    EXPECT_EQ(response.body, service_.plan(request).value().text);
  }
  EXPECT_EQ(session.stats().ok, chunk.size());
}

}  // namespace
}  // namespace corun::serve
