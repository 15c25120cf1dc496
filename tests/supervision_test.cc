// The call supervision layer (docs/supervision.md): per-call deadlines
// enforced by the kernel watchdog, seeded retry/backoff over transient
// errors, the per-binding circuit breaker, and graceful degradation on
// revocation/termination — rebind through the nameserver, then failover to
// message RPC. Each uncommon-case path is forced with scripted fault
// injection and checked down to thread and A-stack accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/kern/invariant_checker.h"
#include "src/lrpc/chaos_testbed.h"
#include "src/lrpc/circuit_breaker.h"
#include "src/lrpc/supervised_call.h"
#include "src/lrpc/testbed.h"
#include "src/rpc/msg_rpc.h"
#include "src/sim/fault_injector.h"

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

// A hand-built world whose interface carries, besides the paper's four
// procedures, a Stall procedure that burns `stall` of simulated server time
// per call — the stuck server the watchdog exists for.
struct StallWorld {
  explicit StallWorld(SimDuration stall)
      : machine(MachineModel::CVaxFirefly(), 1),
        kernel(machine, /*seed=*/7),
        runtime(kernel) {
    server = kernel.CreateDomain({.name = "sup.server"});
    iface = runtime.CreateInterface(server, "sup.svc");
    AddPaperProcedures(iface, &null_proc, &add_proc, &bigin_proc,
                       &biginout_proc, counters);
    ProcedureDef def;
    def.name = "Stall";
    def.handler = [stall](ServerFrame& frame) {
      frame.cpu().AdvanceTo(frame.cpu().clock() + stall);
      return Status::Ok();
    };
    stall_proc = iface->AddProcedure(std::move(def));
    EXPECT_TRUE(runtime.Export(iface).ok());
    client = kernel.CreateDomain({.name = "sup.client"});
    thread = kernel.CreateThread(client);
    Result<ClientBinding*> bound = runtime.Import(cpu(), client, "sup.svc");
    EXPECT_TRUE(bound.ok());
    binding = *bound;
  }
  Processor& cpu() { return machine.processor(0); }

  Machine machine;
  Kernel kernel;
  LrpcRuntime runtime;
  DomainId server = kNoDomain;
  DomainId client = kNoDomain;
  ThreadId thread = kNoThread;
  Interface* iface = nullptr;
  ClientBinding* binding = nullptr;
  int null_proc = -1;
  int add_proc = -1;
  int bigin_proc = -1;
  int biginout_proc = -1;
  int stall_proc = -1;
  PaperCounters counters;
};

// --- The circuit breaker's state machine, in isolation. ---

TEST(CircuitBreakerTest, TripsCoolsDownAndProbes) {
  BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.open_cooldown = 100 * kMicrosecond;
  policy.probe_budget = 1;
  CircuitBreaker breaker(policy);

  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_TRUE(breaker.AllowCall(0));
  breaker.OnFailure(0);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  breaker.OnFailure(10);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);

  // Open: calls fail fast until the cooldown elapses.
  EXPECT_FALSE(breaker.AllowCall(10 + 50 * kMicrosecond));
  EXPECT_EQ(breaker.rejected(), 1u);

  // Cooldown over: half-open, exactly one probe passes.
  EXPECT_TRUE(breaker.AllowCall(10 + 101 * kMicrosecond));
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowCall(10 + 102 * kMicrosecond));

  // A failed probe re-opens; a successful one re-closes.
  breaker.OnFailure(10 + 103 * kMicrosecond);
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_TRUE(breaker.AllowCall(10 + 300 * kMicrosecond));
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);

  EXPECT_EQ(CircuitStateName(CircuitState::kClosed), "closed");
  EXPECT_EQ(CircuitStateName(CircuitState::kOpen), "open");
  EXPECT_EQ(CircuitStateName(CircuitState::kHalfOpen), "half-open");
}

// --- Retry/backoff over transient errors. ---

TEST(SupervisionTest, RetryRecoversFromTransientExhaustion) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kAStackExhaustion}}));
  bed.kernel().set_fault_injector(&injector);

  SupervisedCall supervisor(bed.runtime(), {}, /*seed=*/11);
  SupervisionOutcome out = supervisor.Call(bed.cpu(0), bed.client_thread(),
                                           &bed.binding(), bed.null_proc(),
                                           {}, {});
  bed.kernel().set_fault_injector(nullptr);

  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.recovered);
  ASSERT_EQ(out.backoffs.size(), 1u);
  EXPECT_GT(out.backoffs[0], 0);
  EXPECT_EQ(supervisor.stats().retries, 1u);
  EXPECT_EQ(supervisor.stats().recovered_calls, 1u);
}

TEST(SupervisionTest, PersistentTransientsExhaustTheBudget) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  FaultInjector injector(FaultPlan::Scripted(
      {{.kind = FaultKind::kAStackExhaustion, .repeat = true,
        .max_fires = 100}}));
  bed.kernel().set_fault_injector(&injector);

  EventRecorder recorder;
  bed.kernel().set_event_listener(&recorder);
  SupervisionPolicy policy;
  policy.retry.max_attempts = 3;
  policy.breaker_enabled = false;
  SupervisedCall supervisor(bed.runtime(), policy, /*seed=*/11);
  SupervisionOutcome out = supervisor.Call(bed.cpu(0), bed.client_thread(),
                                           &bed.binding(), bed.null_proc(),
                                           {}, {});
  bed.kernel().set_event_listener(nullptr);
  bed.kernel().set_fault_injector(nullptr);

  EXPECT_EQ(out.status.code(), ErrorCode::kRetriesExhausted);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.backoffs.size(), 2u);
  EXPECT_FALSE(out.recovered);
  EXPECT_EQ(recorder.Count(KernelEventKind::kSupervisorRetry), 2);
  // Backoffs grow (exponential base 2, jitter at most 25% either way).
  EXPECT_GT(out.backoffs[1], out.backoffs[0]);
}

TEST(SupervisionTest, MidExecutionFailureIsNeverReissued) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kDomainTermination}}));
  bed.kernel().set_fault_injector(&injector);

  SupervisedCall supervisor(bed.runtime(), {}, /*seed=*/11);
  SupervisionOutcome out = supervisor.Call(bed.cpu(0), bed.client_thread(),
                                           &bed.binding(), bed.null_proc(),
                                           {}, {});
  bed.kernel().set_fault_injector(nullptr);

  // The handler may have executed: one attempt, no backoffs, the failure
  // surfaces as-is (Status::Retryable() is false for kCallFailed).
  EXPECT_EQ(out.status.code(), ErrorCode::kCallFailed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_TRUE(out.backoffs.empty());
}

// --- The call watchdog: deadlines on a stuck server. ---

TEST(SupervisionTest, WatchdogAbandonsAStuckCall) {
  StallWorld world(/*stall=*/5 * kMillisecond);
  InvariantChecker checker(world.kernel);
  RegisterAStackConservationCheck(checker, world.runtime);

  SupervisionPolicy policy;
  policy.deadline = 1 * kMillisecond;
  SupervisedCall supervisor(world.runtime, policy, /*seed=*/3);
  const ThreadId original = world.thread;
  SupervisionOutcome out = supervisor.Call(world.cpu(), original,
                                           world.binding, world.stall_proc,
                                           {}, {});

  EXPECT_EQ(out.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(out.deadline_expired);
  EXPECT_TRUE(out.watchdog_abandoned);
  EXPECT_EQ(world.kernel.watchdog_fires(), 1u);
  EXPECT_EQ(supervisor.stats().deadline_expiries, 1u);

  // The stuck thread died in the kernel on release; the supervisor hands
  // back the replacement, already alive and usable.
  EXPECT_NE(out.thread, original);
  EXPECT_EQ(world.kernel.thread(original).state(), ThreadState::kDead);
  EXPECT_NE(world.kernel.thread(out.thread).state(), ThreadState::kDead);
  EXPECT_EQ(world.kernel.thread(out.thread).home_domain(), world.client);

  // Nothing leaked: the abandoned A-stack went back on its queue, and the
  // replacement can call through the same binding immediately.
  checker.CheckNow("after watchdog abandonment");
  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? ""
                                    : checker.violations().front());
  EXPECT_TRUE(world.runtime
                  .Call(world.cpu(), out.thread, *world.binding,
                        world.null_proc, {}, {})
                  .ok());
}

TEST(SupervisionTest, WatchdogEmitsExpiryAndAbandonEvents) {
  StallWorld world(/*stall=*/5 * kMillisecond);
  EventRecorder recorder;
  world.kernel.set_event_listener(&recorder);

  SupervisionPolicy policy;
  policy.deadline = 1 * kMillisecond;
  SupervisedCall supervisor(world.runtime, policy, /*seed=*/3);
  SupervisionOutcome out = supervisor.Call(world.cpu(), world.thread,
                                           world.binding, world.stall_proc,
                                           {}, {});
  world.kernel.set_event_listener(nullptr);

  EXPECT_EQ(out.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(recorder.Count(KernelEventKind::kWatchdogExpired), 1);
  EXPECT_EQ(recorder.Count(KernelEventKind::kAbandon), 1);
}

TEST(SupervisionTest, FastCallUnderDeadlineIsUntouched) {
  StallWorld world(/*stall=*/50 * kMicrosecond);
  SupervisionPolicy policy;
  policy.deadline = 10 * kMillisecond;
  SupervisedCall supervisor(world.runtime, policy, /*seed=*/3);

  for (int i = 0; i < 3; ++i) {
    SupervisionOutcome out = supervisor.Call(world.cpu(), world.thread,
                                             world.binding, world.stall_proc,
                                             {}, {});
    ASSERT_TRUE(out.status.ok());
    EXPECT_FALSE(out.deadline_expired);
    EXPECT_EQ(out.thread, world.thread);  // Same thread throughout.
  }
  EXPECT_EQ(world.kernel.watchdog_fires(), 0u);
}

TEST(SupervisionTest, LateFiringWatchdogStillSurfacesTheOverrun) {
  StallWorld world(/*stall=*/5 * kMillisecond);
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kWatchdogLateFire}}));
  world.kernel.set_fault_injector(&injector);

  SupervisionPolicy policy;
  policy.deadline = 1 * kMillisecond;
  SupervisedCall supervisor(world.runtime, policy, /*seed=*/3);
  const ThreadId original = world.thread;
  SupervisionOutcome out = supervisor.Call(world.cpu(), original,
                                           world.binding, world.stall_proc,
                                           {}, {});
  world.kernel.set_fault_injector(nullptr);

  // The poll was suppressed, so the call ran to completion on the original
  // thread — but the overrun is still detected after the return.
  EXPECT_EQ(injector.fired(FaultKind::kWatchdogLateFire), 1u);
  EXPECT_EQ(out.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(out.deadline_expired);
  EXPECT_FALSE(out.watchdog_abandoned);
  EXPECT_EQ(out.thread, original);
  EXPECT_EQ(world.kernel.watchdog_fires(), 0u);
  EXPECT_NE(world.kernel.thread(original).state(), ThreadState::kDead);
}

// --- Graceful degradation: rebind, then message-RPC failover. ---

TEST(SupervisionTest, RevokedBindingIsTransparentlyReimported) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kBindingRevocation}}));
  bed.kernel().set_fault_injector(&injector);

  EventRecorder recorder;
  bed.kernel().set_event_listener(&recorder);
  SupervisedCall supervisor(bed.runtime(), {}, /*seed=*/5);
  const std::int32_t a = 20;
  const std::int32_t b = 22;
  std::int32_t sum = 0;
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  SupervisionOutcome out = supervisor.Call(bed.cpu(0), bed.client_thread(),
                                           &bed.binding(), bed.add_proc(),
                                           args, rets);
  bed.kernel().set_event_listener(nullptr);
  bed.kernel().set_fault_injector(nullptr);

  // The revocation was absorbed: a fresh import replaced the binding and
  // the retried call computed the real result.
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(sum, 42);
  EXPECT_EQ(out.rebinds, 1);
  EXPECT_NE(out.binding, &bed.binding());
  EXPECT_TRUE(out.recovered);
  EXPECT_FALSE(out.msg_failover);
  EXPECT_EQ(recorder.Count(KernelEventKind::kFailover), 1);
  // The original binding really is dead, not merely sidelined.
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kRevokedBinding);
}

TEST(SupervisionTest, FailsOverToMessageRpcWhenReimportIsImpossible) {
  StallWorld world(/*stall=*/0);
  MsgRpcSystem msg(world.kernel, MsgRpcMode::kSrcFirefly);
  const DomainId fallback_domain =
      world.kernel.CreateDomain({.name = "sup.fallback"});
  ASSERT_TRUE(msg.ExportFallback(fallback_domain, world.iface).ok());
  ASSERT_TRUE(msg.Serves("sup.svc"));

  // Terminate the LRPC server outright: its export is withdrawn, so the
  // rebind fails and only the message transport remains.
  ASSERT_TRUE(world.runtime.TerminateDomain(world.server).ok());

  SupervisedCall supervisor(world.runtime, {}, /*seed=*/5);
  supervisor.set_fallback(&msg);
  const std::int32_t a = -3;
  const std::int32_t b = 10;
  std::int32_t sum = 0;
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  SupervisionOutcome out = supervisor.Call(world.cpu(), world.thread,
                                           world.binding, world.add_proc,
                                           args, rets);

  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(sum, 7);
  EXPECT_TRUE(out.msg_failover);
  EXPECT_EQ(out.rebinds, 0);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(supervisor.stats().msg_failovers, 1u);

  // Subsequent calls through the same supervisor keep working (they fail
  // fast on the revoked binding and ride the fallback again).
  SupervisionOutcome again = supervisor.Call(world.cpu(), out.thread,
                                             out.binding, world.null_proc,
                                             {}, {});
  EXPECT_TRUE(again.status.ok());
}

TEST(SupervisionTest, DeadFailoverTargetSurfacesTheOriginalError) {
  Testbed bed;
  FaultInjector injector(FaultPlan::Scripted(
      {{.kind = FaultKind::kBindingRevocation},
       {.kind = FaultKind::kFailoverTargetDead}}));
  bed.kernel().set_fault_injector(&injector);

  SupervisedCall supervisor(bed.runtime(), {}, /*seed=*/5);
  SupervisionOutcome out = supervisor.Call(bed.cpu(0), bed.client_thread(),
                                           &bed.binding(), bed.null_proc(),
                                           {}, {});
  bed.kernel().set_fault_injector(nullptr);

  // The uncommon case of the uncommon case: recovery itself reads as dead,
  // so no rebind is attempted and the revocation surfaces unchanged.
  EXPECT_EQ(injector.fired(FaultKind::kFailoverTargetDead), 1u);
  EXPECT_EQ(out.status.code(), ErrorCode::kRevokedBinding);
  EXPECT_EQ(out.rebinds, 0);
  EXPECT_FALSE(out.msg_failover);
  EXPECT_FALSE(out.recovered);
}

// --- The breaker wired into supervised calls. ---

TEST(SupervisionTest, BreakerOpensFailsFastAndRecloses) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  FaultInjector injector(FaultPlan::Scripted(
      {{.kind = FaultKind::kAStackExhaustion, .repeat = true,
        .max_fires = 3}}));
  bed.kernel().set_fault_injector(&injector);

  SupervisionPolicy policy;
  policy.retry.max_attempts = 1;  // Isolate the breaker from the retry loop.
  policy.breaker.failure_threshold = 2;
  policy.breaker.open_cooldown = 500 * kMicrosecond;
  policy.breaker.probe_budget = 1;
  EventRecorder recorder;
  bed.kernel().set_event_listener(&recorder);
  SupervisedCall supervisor(bed.runtime(), policy, /*seed=*/9);

  auto call = [&] {
    return supervisor.Call(bed.cpu(0), bed.client_thread(), &bed.binding(),
                           bed.null_proc(), {}, {});
  };
  EXPECT_EQ(call().status.code(), ErrorCode::kAStacksExhausted);
  EXPECT_EQ(call().status.code(), ErrorCode::kAStacksExhausted);
  ASSERT_NE(bed.binding().breaker(), nullptr);
  EXPECT_EQ(bed.binding().breaker()->state(), CircuitState::kOpen);

  // Open: the next call never reaches the kernel.
  SupervisionOutcome rejected = call();
  EXPECT_EQ(rejected.status.code(), ErrorCode::kCircuitOpen);
  EXPECT_TRUE(rejected.breaker_rejected);
  EXPECT_EQ(rejected.attempts, 0);
  EXPECT_EQ(supervisor.stats().breaker_rejections, 1u);

  // After the cooldown a probe is admitted; the fault still fires, so the
  // breaker re-opens.
  bed.cpu(0).AdvanceTo(bed.cpu(0).clock() + 600 * kMicrosecond);
  EXPECT_EQ(call().status.code(), ErrorCode::kAStacksExhausted);
  EXPECT_EQ(bed.binding().breaker()->state(), CircuitState::kOpen);

  // Fault plan exhausted: the next probe succeeds and the circuit closes.
  bed.cpu(0).AdvanceTo(bed.cpu(0).clock() + 600 * kMicrosecond);
  SupervisionOutcome healed = call();
  EXPECT_TRUE(healed.status.ok());
  EXPECT_EQ(bed.binding().breaker()->state(), CircuitState::kClosed);
  EXPECT_GE(recorder.Count(KernelEventKind::kCircuitStateChange), 4);

  bed.kernel().set_event_listener(nullptr);
  bed.kernel().set_fault_injector(nullptr);
}

TEST(SupervisionTest, DisabledBreakerAllocatesNothingOnTheBinding) {
  Testbed bed;
  SupervisionPolicy policy;
  policy.breaker_enabled = false;
  SupervisedCall supervisor(bed.runtime(), policy, /*seed=*/9);
  SupervisionOutcome out = supervisor.Call(bed.cpu(0), bed.client_thread(),
                                           &bed.binding(), bed.null_proc(),
                                           {}, {});
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(bed.binding().breaker(), nullptr);
}

// --- SupervisedAsync: the same policies over a pipelined ring
// (docs/async.md). ---

TEST(SupervisedAsyncTest, SubmitTimeTransientIsRetriedUnderTheBackoff) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kAStackExhaustion}}));
  bed.kernel().set_fault_injector(&injector);

  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
  SupervisedAsync supervisor(bed.runtime(), ring, {}, /*seed=*/11);
  const std::int32_t a = 20;
  const std::int32_t b = 22;
  std::int32_t sum = 0;
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  Result<CallToken> token =
      supervisor.Submit(bed.cpu(0), bed.add_proc(), args, rets);
  ASSERT_TRUE(token.ok());
  std::vector<AsyncSupervisionOutcome> outcomes = supervisor.Drain(bed.cpu(0));
  bed.kernel().set_fault_injector(nullptr);

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[0].attempts, 2);
  EXPECT_TRUE(outcomes[0].recovered);
  ASSERT_EQ(outcomes[0].backoffs.size(), 1u);
  EXPECT_GT(outcomes[0].backoffs[0], 0);
  EXPECT_EQ(sum, 42);
  EXPECT_EQ(supervisor.stats().retries, 1u);
  EXPECT_EQ(supervisor.stats().recovered_calls, 1u);
}

TEST(SupervisedAsyncTest, FlushTimeTransientIsResubmitted) {
  Testbed bed;
  // E-stack association fails inside the batched kernel leg — a transient
  // the supervisor only sees as a completion, never as a Submit error.
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kEStackExhaustion}}));
  bed.kernel().set_fault_injector(&injector);

  EventRecorder recorder;
  bed.kernel().set_event_listener(&recorder);
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
  SupervisedAsync supervisor(bed.runtime(), ring, {}, /*seed=*/11);
  ASSERT_TRUE(supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {}).ok());
  std::vector<AsyncSupervisionOutcome> outcomes = supervisor.Drain(bed.cpu(0));
  bed.kernel().set_event_listener(nullptr);
  bed.kernel().set_fault_injector(nullptr);

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[0].attempts, 2);
  EXPECT_TRUE(outcomes[0].recovered);
  EXPECT_EQ(outcomes[0].backoffs.size(), 1u);
  EXPECT_EQ(recorder.Count(KernelEventKind::kSupervisorRetry), 1);
}

TEST(SupervisedAsyncTest, PersistentTransientsExhaustTheBudget) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  FaultInjector injector(FaultPlan::Scripted(
      {{.kind = FaultKind::kAStackExhaustion, .repeat = true,
        .max_fires = 100}}));
  bed.kernel().set_fault_injector(&injector);

  SupervisionPolicy policy;
  policy.retry.max_attempts = 3;
  policy.breaker_enabled = false;
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
  SupervisedAsync supervisor(bed.runtime(), ring, policy, /*seed=*/11);
  Result<CallToken> token =
      supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {});
  bed.kernel().set_fault_injector(nullptr);

  ASSERT_FALSE(token.ok());
  EXPECT_EQ(token.status().code(), ErrorCode::kRetriesExhausted);
  EXPECT_EQ(supervisor.stats().retries, 2u);
  EXPECT_TRUE(supervisor.Drain(bed.cpu(0)).empty());
}

TEST(SupervisedAsyncTest, WatchdogMapsTheOverrunAndResubmitsTheCollateral) {
  StallWorld world(/*stall=*/5 * kMillisecond);
  InvariantChecker checker(world.kernel);
  RegisterAStackConservationCheck(checker, world.runtime);

  SupervisionPolicy policy;
  policy.deadline = 1 * kMillisecond;
  AsyncRing ring(world.runtime, *world.binding, world.thread, 4);
  SupervisedAsync supervisor(world.runtime, ring, policy, /*seed=*/3);
  const ThreadId original = world.thread;
  ASSERT_TRUE(supervisor.Submit(world.cpu(), world.stall_proc, {}, {}).ok());
  ASSERT_TRUE(supervisor.Submit(world.cpu(), world.null_proc, {}, {}).ok());
  std::vector<AsyncSupervisionOutcome> outcomes = supervisor.Drain(world.cpu());

  // The stalled call overran its deadline: the watchdog abandoned it and
  // the supervisor surfaces kDeadlineExceeded, terminal.
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(outcomes[0].deadline_expired);
  EXPECT_TRUE(outcomes[0].watchdog_abandoned);
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_EQ(world.kernel.watchdog_fires(), 1u);
  EXPECT_EQ(supervisor.stats().deadline_expiries, 1u);

  // The null call behind it was collateral — abandoned before it ever
  // reached the server — so it was re-issued on the replacement thread and
  // completed.
  EXPECT_TRUE(outcomes[1].status.ok());
  EXPECT_EQ(outcomes[1].attempts, 2);
  EXPECT_TRUE(outcomes[1].recovered);

  // The ring was revived onto the replacement AbandonCapturedCall parked in
  // the client domain; nothing leaked.
  EXPECT_FALSE(ring.dead());
  EXPECT_NE(ring.thread(), original);
  EXPECT_EQ(world.kernel.thread(original).state(), ThreadState::kDead);
  EXPECT_EQ(world.kernel.thread(ring.thread()).home_domain(), world.client);
  checker.CheckNow("after async watchdog abandonment");
  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? ""
                                    : checker.violations().front());
}

TEST(SupervisedAsyncTest, RevocationIsTerminalPerCallNoRebind) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kBindingRevocation}}));
  bed.kernel().set_fault_injector(&injector);

  SupervisionPolicy policy;
  policy.breaker_enabled = false;
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
  SupervisedAsync supervisor(bed.runtime(), ring, policy, /*seed=*/5);
  ASSERT_TRUE(supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {}).ok());
  ASSERT_TRUE(supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {}).ok());
  std::vector<AsyncSupervisionOutcome> outcomes = supervisor.Drain(bed.cpu(0));
  bed.kernel().set_fault_injector(nullptr);

  // Unlike SupervisedCall there is no rebind or failover on the async
  // path: the revocation rejects the whole batch, one attempt each.
  ASSERT_EQ(outcomes.size(), 2u);
  for (const AsyncSupervisionOutcome& out : outcomes) {
    EXPECT_EQ(out.status.code(), ErrorCode::kRevokedBinding);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_TRUE(out.backoffs.empty());
  }
  EXPECT_EQ(supervisor.stats().retries, 0u);
}

TEST(SupervisedAsyncTest, BreakerOpensAndFailsFastAtSubmit) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  FaultInjector injector(FaultPlan::Scripted(
      {{.kind = FaultKind::kAStackExhaustion, .repeat = true,
        .max_fires = 100}}));
  bed.kernel().set_fault_injector(&injector);

  SupervisionPolicy policy;
  policy.retry.max_attempts = 1;  // No retry: each failure folds directly.
  policy.breaker.failure_threshold = 2;
  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
  SupervisedAsync supervisor(bed.runtime(), ring, policy, /*seed=*/9);

  EXPECT_EQ(supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {})
                .status()
                .code(),
            ErrorCode::kAStacksExhausted);
  EXPECT_EQ(supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {})
                .status()
                .code(),
            ErrorCode::kAStacksExhausted);
  ASSERT_NE(bed.binding().breaker(), nullptr);
  EXPECT_EQ(bed.binding().breaker()->state(), CircuitState::kOpen);

  // Open circuit: the submission leg fails fast, before any A-stack pop.
  EXPECT_EQ(supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {})
                .status()
                .code(),
            ErrorCode::kCircuitOpen);
  EXPECT_EQ(supervisor.stats().breaker_rejections, 1u);
  bed.kernel().set_fault_injector(nullptr);
}

TEST(SupervisedAsyncTest, BackoffScheduleReplaysFromTheSeed) {
  auto run = [] {
    Testbed bed;
    bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
    FaultInjector injector(FaultPlan::Scripted(
        {{.kind = FaultKind::kAStackExhaustion, .repeat = true,
          .max_fires = 2}}));
    bed.kernel().set_fault_injector(&injector);
    SupervisionPolicy policy;
    policy.retry.max_attempts = 4;
    AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), 4);
    SupervisedAsync supervisor(bed.runtime(), ring, policy, /*seed=*/77);
    Result<CallToken> token =
        supervisor.Submit(bed.cpu(0), bed.null_proc(), {}, {});
    EXPECT_TRUE(token.ok());
    std::vector<AsyncSupervisionOutcome> outcomes =
        supervisor.Drain(bed.cpu(0));
    bed.kernel().set_fault_injector(nullptr);
    EXPECT_EQ(outcomes.size(), 1u);
    return outcomes.empty() ? std::vector<SimDuration>{}
                            : outcomes[0].backoffs;
  };
  const std::vector<SimDuration> first = run();
  const std::vector<SimDuration> second = run();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace lrpc
