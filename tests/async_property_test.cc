// The async ≡ sync differential property suite (docs/async.md).
//
// The AsyncRing's contract is that pipelining is invisible except in time:
// N calls submitted through a ring and flushed as one batch must produce
// the same results, the same statuses and the same core kernel-event
// multiset as the same N calls issued synchronously. These tests run
// hundreds of seeded schedules through two identical worlds — one driving
// LrpcRuntime::Call, one driving Submit/Flush/Reap — and compare them
// call-for-call, on the deterministic simulator and on the parallel-host
// backend. The kernel invariant checker and the A-stack conservation audit
// ride along in the async world, so every claim-at-submit reservation is
// audited at every kernel event (invariant I5).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/kern/invariant_checker.h"
#include "src/lrpc/async_call.h"
#include "src/lrpc/chaos_testbed.h"
#include "src/lrpc/testbed.h"
#include "src/par/par_world.h"

namespace lrpc {
namespace {

class EventRecorder : public KernelEventListener {
 public:
  void OnKernelEvent(Kernel& kernel, KernelEventKind kind) override {
    (void)kernel;
    events.push_back(kind);
  }

  int Count(KernelEventKind kind) const {
    return static_cast<int>(std::count(events.begin(), events.end(), kind));
  }

  std::vector<KernelEventKind> events;
};

// One call of a seeded schedule: which procedure, with which bytes.
struct PlannedCall {
  int kind = 0;  // 0 = Null, 1 = Add, 2 = BigIn, 3 = BigInOut.
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::uint8_t big[kBigSize] = {};
};

// The observed outcome of one call, comparable across worlds.
struct Outcome {
  ErrorCode code = ErrorCode::kOk;
  std::int32_t sum = 0;
  std::uint8_t big_out[kBigSize] = {};

  bool operator==(const Outcome& other) const {
    return code == other.code && sum == other.sum &&
           std::memcmp(big_out, other.big_out, kBigSize) == 0;
  }
};

std::vector<PlannedCall> PlanSchedule(std::mt19937_64& rng, int max_calls) {
  const int n = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(max_calls));
  std::vector<PlannedCall> plan(static_cast<std::size_t>(n));
  for (PlannedCall& call : plan) {
    call.kind = static_cast<int>(rng() % 4);
    call.a = static_cast<std::int32_t>(rng() % 1000);
    call.b = static_cast<std::int32_t>(rng() % 1000);
    for (std::uint8_t& byte : call.big) {
      byte = static_cast<std::uint8_t>(rng());
    }
  }
  return plan;
}

int ProcOf(const PlannedCall& call, int null_proc, int add_proc,
           int bigin_proc, int biginout_proc) {
  switch (call.kind) {
    case 0: return null_proc;
    case 1: return add_proc;
    case 2: return bigin_proc;
    default: return biginout_proc;
  }
}

// Builds the CallArg/CallRet views of one planned call against the
// caller-owned outcome storage (destinations must outlive the reap).
void BindViews(const PlannedCall& call, Outcome& out,
               std::vector<CallArg>& args, std::vector<CallRet>& rets) {
  args.clear();
  rets.clear();
  switch (call.kind) {
    case 0:
      break;
    case 1:
      args.push_back(CallArg::Of(call.a));
      args.push_back(CallArg::Of(call.b));
      rets.push_back(CallRet::Of(&out.sum));
      break;
    case 2:
      args.push_back(CallArg(call.big, kBigSize));
      break;
    default:
      args.push_back(CallArg(call.big, kBigSize));
      rets.push_back(CallRet(out.big_out, kBigSize));
      break;
  }
}

// Runs the schedule synchronously in its own world; returns the outcomes
// and fills the core-event counts.
std::vector<Outcome> RunSync(const std::vector<PlannedCall>& plan,
                             EventRecorder& recorder) {
  Testbed bed;
  std::vector<Outcome> outcomes(plan.size());
  bed.kernel().set_event_listener(&recorder);
  std::vector<CallArg> args;
  std::vector<CallRet> rets;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    BindViews(plan[i], outcomes[i], args, rets);
    const int proc = ProcOf(plan[i], bed.null_proc(), bed.add_proc(),
                            bed.bigin_proc(), bed.biginout_proc());
    outcomes[i].code = bed.runtime()
                           .Call(bed.cpu(), bed.client_thread(), bed.binding(),
                                 proc, args, rets)
                           .code();
  }
  bed.kernel().set_event_listener(nullptr);
  return outcomes;
}

TEST(AsyncProperty, AsyncEqualsSyncAcrossSeededSchedules) {
  // 200 seeds; each schedule is 1..16 mixed calls, submitted as one batch.
  for (int seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 2654435761u);
    const std::vector<PlannedCall> plan = PlanSchedule(rng, AsyncRing::kMaxDepth);

    EventRecorder sync_events;
    const std::vector<Outcome> sync = RunSync(plan, sync_events);

    // The async world carries the invariant checker and the conservation
    // audit through every kernel event of the batch.
    Testbed bed;
    InvariantChecker checker(bed.kernel());
    RegisterAStackConservationCheck(checker, bed.runtime());
    // The kernel has one listener slot; the recorder takes it for the
    // batch, so the checker runs via CheckNow afterwards.
    EventRecorder async_events;
    bed.kernel().set_event_listener(&async_events);
    AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(),
                   static_cast<int>(plan.size()));

    std::vector<Outcome> async_outcomes(plan.size());
    std::vector<CallToken> tokens(plan.size());
    std::vector<CallArg> args;
    std::vector<CallRet> rets;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      BindViews(plan[i], async_outcomes[i], args, rets);
      const int proc = ProcOf(plan[i], bed.null_proc(), bed.add_proc(),
                              bed.bigin_proc(), bed.biginout_proc());
      Result<CallToken> token =
          ring.Submit(bed.cpu(), proc, args, rets);
      ASSERT_TRUE(token.ok()) << "seed " << seed << " call " << i << ": "
                              << token.status().detail();
      tokens[i] = *token;
    }
    ASSERT_EQ(ring.pending(), static_cast<int>(plan.size()));
    ring.Drain(bed.cpu());
    ASSERT_EQ(ring.pending(), 0);
    bed.kernel().set_event_listener(nullptr);

    // Every submitted call completed, once, in submit order.
    ASSERT_EQ(ring.results().size(), plan.size()) << "seed " << seed;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const AsyncCompletion* completion = ring.Find(tokens[i]);
      ASSERT_NE(completion, nullptr) << "seed " << seed << " call " << i;
      async_outcomes[i].code = completion->status.code();
      EXPECT_EQ(ring.results()[i].token, tokens[i]) << "seed " << seed;
    }

    // The differential property: same statuses, same results.
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_TRUE(async_outcomes[i] == sync[i])
          << "seed " << seed << " call " << i << " kind " << plan[i].kind
          << ": async=" << ErrorCodeName(async_outcomes[i].code)
          << " sum=" << async_outcomes[i].sum
          << " sync=" << ErrorCodeName(sync[i].code) << " sum=" << sync[i].sum;
    }

    // The kernel-event multiset: per-call events match exactly; the
    // transfer pair is the amortized cost and is excluded by design.
    const int n = static_cast<int>(plan.size());
    for (const KernelEventKind kind :
         {KernelEventKind::kLinkageClaimed, KernelEventKind::kEStackEnsured,
          KernelEventKind::kCallReturned}) {
      EXPECT_EQ(async_events.Count(kind), sync_events.Count(kind))
          << "seed " << seed << " event " << KernelEventKindName(kind);
    }
    EXPECT_EQ(async_events.Count(KernelEventKind::kAsyncSubmitted), n);
    EXPECT_EQ(async_events.Count(KernelEventKind::kAsyncCompleted), n);
    EXPECT_EQ(sync_events.Count(KernelEventKind::kAsyncSubmitted), 0);
    // Fewer transfers than two-per-call is the whole point.
    EXPECT_LE(async_events.Count(KernelEventKind::kTransfer),
              sync_events.Count(KernelEventKind::kTransfer));

    checker.CheckNow("after async batch");
    EXPECT_TRUE(checker.ok())
        << "seed " << seed << ": " << checker.violations().front();
  }
}

TEST(AsyncProperty, AsyncEqualsSyncOnTheParallelBackend) {
  // One worker drives both worlds deterministically through the parallel
  // backend's structures: par free lists, the sharded binding mirror and
  // EnsureEStackParallel.
  for (int seed = 1; seed <= 50; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 40503u + 7);
    ParWorldOptions options;
    options.workers = 1;
    options.astacks_per_group = AsyncRing::kMaxDepth;
    const std::vector<PlannedCall> plan = PlanSchedule(rng, AsyncRing::kMaxDepth);

    // Sync world.
    ParWorld sync_world(options);
    std::vector<Outcome> sync(plan.size());
    {
      std::vector<CallArg> args;
      std::vector<CallRet> rets;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        BindViews(plan[i], sync[i], args, rets);
        const int proc =
            ProcOf(plan[i], sync_world.null_proc(), sync_world.add_proc(),
                   sync_world.bigin_proc(), sync_world.biginout_proc());
        sync[i].code = sync_world.runtime()
                           .Call(sync_world.machine().processor(0),
                                 sync_world.worker_thread(0),
                                 sync_world.worker_binding(0), proc, args,
                                 rets)
                           .code();
      }
    }

    // Async world.
    ParWorld async_world(options);
    AsyncRing ring(async_world.runtime(), async_world.worker_binding(0),
                   async_world.worker_thread(0),
                   static_cast<int>(plan.size()));
    std::vector<Outcome> async_outcomes(plan.size());
    std::vector<CallToken> tokens(plan.size());
    {
      std::vector<CallArg> args;
      std::vector<CallRet> rets;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        BindViews(plan[i], async_outcomes[i], args, rets);
        const int proc =
            ProcOf(plan[i], async_world.null_proc(), async_world.add_proc(),
                   async_world.bigin_proc(), async_world.biginout_proc());
        Result<CallToken> token = ring.Submit(
            async_world.machine().processor(0), proc, args, rets);
        ASSERT_TRUE(token.ok()) << "seed " << seed << " call " << i;
        tokens[i] = *token;
      }
    }
    ring.Drain(async_world.machine().processor(0));

    for (std::size_t i = 0; i < plan.size(); ++i) {
      const AsyncCompletion* completion = ring.Find(tokens[i]);
      ASSERT_NE(completion, nullptr) << "seed " << seed << " call " << i;
      async_outcomes[i].code = completion->status.code();
      EXPECT_TRUE(async_outcomes[i] == sync[i])
          << "seed " << seed << " call " << i << " kind " << plan[i].kind;
    }

    InvariantChecker checker(async_world.kernel());
    RegisterAStackConservationCheck(checker, async_world.runtime());
    checker.CheckNow("after parallel async batch");
    EXPECT_TRUE(checker.ok())
        << "seed " << seed << ": " << checker.violations().front();
  }
}

TEST(AsyncProperty, DepthOneCostsExactlyOneSyncCall) {
  // A depth-1 flush runs the synchronous call's phases, with the client
  // stub's return half after the return transfer, so in steady state one
  // Submit+Drain advances the clock, every cost-ledger category and the TLB
  // miss count by exactly one sync Call's worth — on one processor, and with
  // an idle processor parked in the server (the exchange path).
  struct Delta {
    SimDuration clock = 0;
    CostLedger ledger;
    std::uint64_t misses = 0;
  };
  for (const bool parked : {false, true}) {
    for (int kind = 0; kind < 4; ++kind) {
      TestbedOptions options;
      options.processors = parked ? 2 : 1;
      options.park_idle_in_server = parked;
      Testbed bed(options);
      AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 1);
      PlannedCall call;
      call.kind = kind;
      Outcome out;
      std::vector<CallArg> args;
      std::vector<CallRet> rets;
      BindViews(call, out, args, rets);
      const int proc = ProcOf(call, bed.null_proc(), bed.add_proc(),
                              bed.bigin_proc(), bed.biginout_proc());
      auto sync_call = [&] {
        return bed.runtime().Call(bed.cpu(), bed.client_thread(), bed.binding(),
                                  proc, args, rets);
      };
      auto ring_call = [&] {
        const Result<CallToken> token = ring.Submit(bed.cpu(), proc, args, rets);
        ring.Drain(bed.cpu());
        const std::vector<AsyncCompletion> done = ring.TakeResults();
        return token.ok() && done.size() == 1 ? done[0].status
                                               : Status(ErrorCode::kCallFailed);
      };
      // Each path is measured in its own steady state: the E-stack is
      // associated and the TLB holds what the previous call of the same
      // path left behind.
      auto measure = [&](const auto& one_call) {
        for (int i = 0; i < 3; ++i) {
          EXPECT_TRUE(one_call().ok());
        }
        Processor& cpu = bed.cpu();
        const SimTime clock = cpu.clock();
        const CostLedger ledger = cpu.ledger();
        const std::uint64_t misses = cpu.tlb().miss_count();
        EXPECT_TRUE(one_call().ok());
        return Delta{cpu.clock() - clock, cpu.ledger().Diff(ledger),
                     cpu.tlb().miss_count() - misses};
      };
      const Delta sync = measure(sync_call);
      const Delta async = measure(ring_call);

      const std::string where = std::string(parked ? "parked" : "one cpu") +
                                ", kind " + std::to_string(kind);
      EXPECT_EQ(async.clock, sync.clock) << where;
      for (int c = 0; c < static_cast<int>(CostCategory::kCategoryCount); ++c) {
        const auto category = static_cast<CostCategory>(c);
        EXPECT_EQ(async.ledger.total(category), sync.ledger.total(category))
            << where << ", " << CostCategoryName(category);
      }
      EXPECT_EQ(async.misses, sync.misses) << where;
    }
  }
}

TEST(AsyncProperty, TwoConcurrentRingsOnTheParallelBackend) {
  // The multi-worker smoke: two real threads, each with its own ring on
  // its own (binding, thread, processor), pipeline batches concurrently.
  ParWorldOptions options;
  options.workers = 2;
  options.domains = 2;
  options.astacks_per_group = AsyncRing::kMaxDepth;
  ParWorld world(options);

  constexpr int kBatches = 25;
  constexpr int kDepth = 8;
  std::atomic<int> failures{0};
  auto driver = [&](int w) {
    AsyncRing ring(world.runtime(), world.worker_binding(w),
                   world.worker_thread(w), kDepth);
    Processor& cpu = world.machine().processor(w);
    for (int batch = 0; batch < kBatches; ++batch) {
      std::int32_t sums[kDepth] = {};
      for (int i = 0; i < kDepth; ++i) {
        const std::int32_t a = w * 1000 + batch * kDepth + i;
        const std::int32_t b = 7 * i + 1;
        const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
        const CallRet rets[] = {CallRet::Of(&sums[i])};
        if (!ring.Submit(cpu, world.add_proc(), args, rets).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ring.Drain(cpu);
      for (int i = 0; i < kDepth; ++i) {
        const std::int32_t a = w * 1000 + batch * kDepth + i;
        const std::int32_t b = 7 * i + 1;
        if (sums[i] != a + b) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (const AsyncCompletion& completion : ring.TakeResults()) {
        if (!completion.status.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::thread t0(driver, 0);
  std::thread t1(driver, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(world.server_calls_seen(),
            static_cast<std::uint64_t>(2 * kBatches * kDepth));

  InvariantChecker checker(world.kernel());
  RegisterAStackConservationCheck(checker, world.runtime());
  checker.CheckNow("after concurrent rings");
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST(AsyncProperty, QueueFullUntilReaped) {
  Testbed bed;
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 2);
  ASSERT_TRUE(ring.Submit(bed.cpu(), bed.null_proc(), {}, {}).ok());
  ASSERT_TRUE(ring.Submit(bed.cpu(), bed.null_proc(), {}, {}).ok());
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.Submit(bed.cpu(), bed.null_proc(), {}, {}).status().code(),
            ErrorCode::kAsyncQueueFull);

  // A flush alone publishes but does not free ring capacity: completions
  // occupy their cells until reaped.
  ring.Flush(bed.cpu());
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.Submit(bed.cpu(), bed.null_proc(), {}, {}).status().code(),
            ErrorCode::kAsyncQueueFull);

  EXPECT_EQ(ring.Reap(), 2);
  EXPECT_FALSE(ring.full());
  ASSERT_TRUE(ring.Submit(bed.cpu(), bed.null_proc(), {}, {}).ok());
  ring.Drain(bed.cpu());
  EXPECT_EQ(ring.results().size(), 3u);
  for (const AsyncCompletion& completion : ring.results()) {
    EXPECT_TRUE(completion.status.ok()) << completion.status.detail();
  }
}

TEST(AsyncProperty, CallbacksFireOnceInCompletionOrder) {
  Testbed bed;
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
  std::vector<CallToken> fired;
  std::int32_t sum = 0;
  const std::int32_t a = 19, b = 23;
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  std::vector<CallToken> submitted;
  for (int i = 0; i < 4; ++i) {
    Result<CallToken> token = ring.Submit(
        bed.cpu(), bed.add_proc(), args, rets,
        [&fired](const AsyncCompletion& completion) {
          fired.push_back(completion.token);
          EXPECT_TRUE(completion.status.ok());
        });
    ASSERT_TRUE(token.ok());
    submitted.push_back(*token);
  }
  EXPECT_TRUE(fired.empty());  // Nothing fires before the reap.
  ring.Flush(bed.cpu());
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(ring.Reap(), 4);
  EXPECT_EQ(fired, submitted);
  EXPECT_EQ(sum, a + b);
  // Callback completions never land in the parked result set.
  EXPECT_TRUE(ring.results().empty());
  // A second reap consumes nothing: no double fire.
  EXPECT_EQ(ring.Reap(), 0);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(AsyncProperty, FuturesPollAndWait) {
  Testbed bed;
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
  std::int32_t sum = 0;
  const std::int32_t a = 40, b = 2;
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  Result<CallFuture> future =
      ring.SubmitFuture(bed.cpu(), bed.add_proc(), args, rets);
  ASSERT_TRUE(future.ok());
  CallFuture handle = *future;
  ASSERT_TRUE(handle.valid());
  EXPECT_FALSE(handle.Poll());  // Submitted, not flushed.
  const AsyncCompletion& completion = handle.Wait(bed.cpu());
  EXPECT_TRUE(completion.status.ok()) << completion.status.detail();
  EXPECT_EQ(completion.token, handle.token());
  EXPECT_EQ(sum, a + b);
  EXPECT_TRUE(handle.Poll());
  EXPECT_EQ(&handle.result(), &completion);
}

TEST(AsyncProperty, RepeatedBurstsConserveAStacks) {
  // Ten full-depth bursts against one binding: every A-stack claimed at
  // submit returns to its free list by the end of each drain, and the
  // invariant checker audits every event along the way.
  Testbed bed;
  InvariantChecker checker(bed.kernel());
  RegisterAStackConservationCheck(checker, bed.runtime());
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(),
                 AsyncRing::kMaxDepth);
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < AsyncRing::kMaxDepth; ++i) {
      ASSERT_TRUE(ring.Submit(bed.cpu(), bed.null_proc(), {}, {}).ok())
          << "burst " << burst << " call " << i;
    }
    ring.Drain(bed.cpu());
    checker.CheckNow("after burst");
    ASSERT_TRUE(checker.ok()) << checker.violations().front();
  }
  EXPECT_EQ(ring.TakeResults().size(),
            static_cast<std::size_t>(10 * AsyncRing::kMaxDepth));
  EXPECT_FALSE(ring.dead());
  EXPECT_GT(checker.events_seen(), 0u);
}

}  // namespace
}  // namespace lrpc
