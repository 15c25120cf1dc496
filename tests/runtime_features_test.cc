// Tests for runtime-wide statistics, clerk authorization policies, the
// kernel's automatic idle-processor prodding, name-server lifecycle, and
// the register-passing RPC model (the Section 2.2 discontinuity).

#include <gtest/gtest.h>

#include "src/lrpc/server_frame.h"
#include "src/lrpc/testbed.h"
#include "src/rpc/msg_rpc.h"
#include "src/rpc/register_rpc.h"

namespace lrpc {
namespace {

// --- RuntimeStats ---

TEST(RuntimeStats, CountsCallsAndCopies) {
  Testbed bed;
  std::int32_t sum = 0;
  ASSERT_TRUE(bed.CallAdd(1, 2, &sum).ok());
  ASSERT_TRUE(bed.CallNull().ok());

  const auto& stats = bed.runtime().stats();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.failed_calls, 0u);
  EXPECT_EQ(stats.remote_calls, 0u);
  EXPECT_EQ(stats.copies.a, 2u);  // Add's two in-args.
  EXPECT_EQ(stats.copies.f, 1u);  // Add's result.
  EXPECT_EQ(stats.astack_bytes, 12u);
}

TEST(RuntimeStats, CountsFailures) {
  Testbed bed;
  ASSERT_TRUE(bed.runtime().TerminateDomain(bed.server_domain()).ok());
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kRevokedBinding);
  EXPECT_EQ(bed.runtime().stats().failed_calls, 1u);
}

TEST(RuntimeStats, CountsExchanges) {
  Testbed bed({.processors = 2, .park_idle_in_server = true});
  ASSERT_TRUE(bed.CallNull().ok());
  ASSERT_TRUE(bed.CallNull().ok());
  EXPECT_EQ(bed.runtime().stats().exchange_calls, 2u);
}

TEST(RuntimeStats, ResetClearsCounters) {
  Testbed bed;
  ASSERT_TRUE(bed.CallNull().ok());
  bed.runtime().ResetStats();
  EXPECT_EQ(bed.runtime().stats().calls, 0u);
}

// --- Clerk authorization (Section 3.1: "The server, by allowing the
// binding to occur, authorizes the client") ---

TEST(ClerkAuthorization, PolicyCanRefuseBindings) {
  Testbed bed;
  const DomainId stranger = bed.kernel().CreateDomain({.name = "stranger"});
  Clerk& clerk = bed.runtime().clerk(bed.server_domain());
  clerk.set_authorize([&](DomainId client, const Interface&) {
    return client == bed.client_domain();  // Only the original client.
  });

  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "guarded.Svc");
  ProcedureDef def;
  def.name = "P";
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());

  // The stranger is refused...
  EXPECT_EQ(bed.runtime().Import(bed.cpu(0), stranger, "guarded.Svc").code(),
            ErrorCode::kBindingRefused);
  EXPECT_EQ(clerk.imports_refused(), 1u);
  // ...the authorized client binds fine.
  EXPECT_TRUE(
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "guarded.Svc").ok());
  EXPECT_GE(clerk.imports_handled(), 1u);
}

TEST(ClerkAuthorization, RefusedClientCannotForgeItsWayIn) {
  // Even with a refused binding, a made-up Binding Object fails the
  // kernel's validation: binding is the only gate.
  Testbed bed;
  ClientBinding fake(bed.client_domain(), BindingObject{12345, 0x1234, false},
                     bed.interface_spec(), bed.binding().record());
  // A real A-stack, moved to the fake binding's list, gets the stub-level
  // pop past.
  auto real = bed.binding().free_list(0).Pop(bed.cpu(0));
  ASSERT_TRUE(real.ok());
  auto list = std::make_unique<ParFreeList>("fake", /*lock_free=*/true);
  list->Register(*real);
  fake.AddFreeList(std::move(list));
  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), fake, 0, {}, {})
                .code(),
            ErrorCode::kForgedBinding);
}

// --- Automatic idle-processor prodding (Section 3.4: "The kernel uses
// these counters to prod idle processors to spin in domains showing the
// most LRPC activity.") ---

TEST(AutoProd, IdlerMigratesToBusyDomainAutomatically) {
  Testbed bed({.processors = 2});
  bed.kernel().set_auto_prod_threshold(3);
  // Idle processor parked in an UNRELATED domain's context: neither the
  // call leg nor the return leg can use it, so misses accumulate.
  const DomainId elsewhere = bed.kernel().CreateDomain({.name = "elsewhere"});
  bed.kernel().ParkIdleProcessor(bed.cpu(1), elsewhere);
  const VmContextId elsewhere_ctx = bed.kernel().domain(elsewhere).vm_context();

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  // The prod moved the idler out of the dead-end context, and calls have
  // started using the exchange path.
  EXPECT_NE(bed.cpu(1).loaded_context(), elsewhere_ctx);
  EXPECT_GT(bed.runtime().stats().exchange_calls, 0u);
}

TEST(AutoProd, DisabledByDefault) {
  Testbed bed({.processors = 2});
  const DomainId elsewhere = bed.kernel().CreateDomain({.name = "elsewhere"});
  bed.kernel().ParkIdleProcessor(bed.cpu(1), elsewhere);
  const VmContextId elsewhere_ctx = bed.kernel().domain(elsewhere).vm_context();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  // Without auto-prodding the idler never migrates on its own, and no call
  // ever finds it.
  EXPECT_EQ(bed.cpu(1).loaded_context(), elsewhere_ctx);
  EXPECT_EQ(bed.runtime().stats().exchange_calls, 0u);
}

TEST(AutoProd, WronglyParkedIdlerSelfCorrectsViaReturnExchange) {
  // An idler parked in the CLIENT's context is picked up by the first
  // call's return leg; the exchange leaves it idling in the server's
  // context, so subsequent calls exchange on the call leg too — domain
  // caching is self-organizing even without prodding.
  Testbed bed({.processors = 2});
  bed.kernel().ParkIdleProcessor(bed.cpu(1), bed.client_domain());
  CallStats first;
  ASSERT_TRUE(bed.CallNull(&first).ok());
  EXPECT_FALSE(first.exchanged_on_call);
  EXPECT_TRUE(first.exchanged_on_return);
  CallStats second;
  ASSERT_TRUE(bed.CallNull(&second).ok());
  EXPECT_TRUE(second.exchanged_on_call);
}

// --- Name-server lifecycle ---

TEST(NameLifecycle, TerminationFreesTheName) {
  Testbed bed;
  ASSERT_TRUE(bed.runtime().TerminateDomain(bed.server_domain()).ok());
  // The name is withdrawn; a new server domain can export under it.
  const DomainId reborn = bed.kernel().CreateDomain({.name = "server2"});
  Interface* iface = bed.runtime().CreateInterface(reborn, "paper.Measures");
  ProcedureDef def;
  def.name = "Null";
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  iface->AddProcedure(std::move(def));
  EXPECT_TRUE(bed.runtime().Export(iface).ok());
  // And the client can bind to the new incarnation.
  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "paper.Measures");
  ASSERT_TRUE(binding.ok());
  EXPECT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, {}, {})
                  .ok());
}

TEST(NameLifecycle, DuplicateExportRejected) {
  Testbed bed;
  Interface* clash =
      bed.runtime().CreateInterface(bed.server_domain(), "paper.Measures");
  ProcedureDef def;
  def.name = "P";
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  clash->AddProcedure(std::move(def));
  EXPECT_EQ(bed.runtime().Export(clash).code(), ErrorCode::kAlreadyExists);
}

// --- Register-passing RPC (Section 2.2's discontinuity) ---

TEST(RegisterRpc, FitsInRegistersIsFast) {
  const MachineModel cvax = MachineModel::CVaxFirefly();
  RegisterRpcModel model;
  const SimDuration fits = model.CallCost(cvax, 32);
  EXPECT_EQ(fits, Micros(109) + model.register_path_overhead);
  // Faster than LRPC for tiny payloads — registers beat even one copy.
  EXPECT_LT(fits, LrpcCallCostForBytes(cvax, 32));
}

TEST(RegisterRpc, OneByteOverflowFallsOffTheCliff) {
  const MachineModel cvax = MachineModel::CVaxFirefly();
  RegisterRpcModel model;
  const SimDuration fits = model.CallCost(cvax, model.register_capacity);
  const SimDuration spills = model.CallCost(cvax, model.register_capacity + 1);
  // "A performance discontinuity once the parameters overflow the
  // registers": more than 3x in one byte.
  EXPECT_GT(static_cast<double>(spills) / static_cast<double>(fits), 3.0);
  // LRPC degrades smoothly across the same boundary.
  const SimDuration lrpc_fits = LrpcCallCostForBytes(cvax, model.register_capacity);
  const SimDuration lrpc_spills =
      LrpcCallCostForBytes(cvax, model.register_capacity + 1);
  EXPECT_LT(lrpc_spills - lrpc_fits, Micros(1));
}

TEST(RegisterRpc, Figure1MakesOverflowAFrequentProblem) {
  const MachineModel cvax = MachineModel::CVaxFirefly();
  RegisterRpcModel model;
  CallSizeModel sizes;
  const auto expected = model.ExpectedUnderFigure1(cvax, sizes, 1989);
  // Most calls overflow a 32-byte register file under the Figure 1 mix.
  EXPECT_GT(expected.overflow_fraction, 0.5);
  // So the expected cost sits far above the register path's best case...
  EXPECT_GT(expected.mean_us, 300.0);
  // ...and above LRPC's expected cost under the same distribution.
  Rng rng(1989);
  double lrpc_mean = 0;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    lrpc_mean += ToMicros(LrpcCallCostForBytes(cvax, sizes.Sample(rng)));
  }
  lrpc_mean /= kSamples;
  EXPECT_GT(expected.mean_us, lrpc_mean);
}

// --- Fault injection: the Section 5 uncommon cases, forced on demand.
// Each kind maps to the Status documented in docs/fault_injection.md. ---

TEST(FaultInjection, AStackExhaustionFailsThenRetrySucceeds) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kAStackExhaustion}}));
  bed.kernel().set_fault_injector(&injector);
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kAStacksExhausted);
  // "The client can either wait for one to become available" (Section 5.2):
  // the queue was never actually drained, so a retry goes through.
  EXPECT_TRUE(bed.CallNull().ok());
  EXPECT_EQ(injector.fired(FaultKind::kAStackExhaustion), 1u);
}

TEST(FaultInjection, AStackExhaustionGrowsUnderAllocateMore) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kAllocateMore);
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kAStackExhaustion}}));
  bed.kernel().set_fault_injector(&injector);
  // "...or allocate more": the call succeeds off a secondary region.
  CallStats stats;
  EXPECT_TRUE(bed.CallNull(&stats).ok());
  EXPECT_TRUE(stats.used_secondary_astack);
}

TEST(FaultInjection, RevocationIsPermanent) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kBindingRevocation}}));
  bed.kernel().set_fault_injector(&injector);
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kRevokedBinding);
  // The record really is revoked, not just this one call: with the
  // injector gone the nonce still never validates again.
  bed.kernel().set_fault_injector(nullptr);
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kRevokedBinding);
}

TEST(FaultInjection, ServerTerminationMidCallFailsTheCall) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kDomainTermination}}));
  bed.kernel().set_fault_injector(&injector);
  // The server terminates while the call executes: the collector unwinds
  // the thread back into the client with call-failed (Section 5.3).
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kCallFailed);
  EXPECT_FALSE(bed.kernel().domain(bed.server_domain()).alive());
  EXPECT_EQ(bed.kernel().thread(bed.client_thread()).current_domain(),
            bed.client_domain());
  // Calls after the fact find the binding revoked by the collector.
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kRevokedBinding);
}

TEST(FaultInjection, ThreadCaptureAbortsAndReplacesTheThread) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kThreadCapture}}));
  bed.kernel().set_fault_injector(&injector);
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kCallAborted);
  // The captured thread died in the kernel on release; the replacement
  // waits in the client domain carrying the aborted exception.
  EXPECT_EQ(bed.kernel().thread(bed.client_thread()).state(),
            ThreadState::kDead);
  Thread& replacement = bed.kernel().thread(
      static_cast<ThreadId>(bed.kernel().thread_count() - 1));
  EXPECT_EQ(replacement.home_domain(), bed.client_domain());
  EXPECT_EQ(replacement.TakeException(), ThreadException::kCallAborted);
  // The replacement calls normally; the abandoned A-stack was requeued.
  bed.kernel().set_fault_injector(nullptr);
  EXPECT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), replacement.id(), bed.binding(),
                        bed.null_proc(), {}, {})
                  .ok());
}

TEST(FaultInjection, EStackExhaustionFailsInTheKernel) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kEStackExhaustion}}));
  bed.kernel().set_fault_injector(&injector);
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kEStackExhausted);
  // The failed call leaked nothing: the A-stack went back on its queue.
  bed.kernel().set_fault_injector(nullptr);
  EXPECT_TRUE(bed.CallNull().ok());
}

TEST(FaultInjection, ClerkRejectionRefusesTheImport) {
  Testbed bed;
  FaultInjector injector(
      FaultPlan::Scripted({{.kind = FaultKind::kClerkRejection}}));
  bed.kernel().set_fault_injector(&injector);
  const DomainId other = bed.kernel().CreateDomain({.name = "other"});
  Result<ClientBinding*> refused =
      bed.runtime().Import(bed.cpu(0), other, bed.interface_spec()->name());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kBindingRefused);
  EXPECT_EQ(bed.runtime().clerk(bed.server_domain()).imports_refused(), 1u);
  // One-shot rule: the next import binds.
  EXPECT_TRUE(
      bed.runtime().Import(bed.cpu(0), other, bed.interface_spec()->name()).ok());
}

TEST(FaultInjection, ForcedCacheMissDisablesTheExchange) {
  Testbed bed({.processors = 2, .park_idle_in_server = true});
  CallStats stats;
  ASSERT_TRUE(bed.CallNull(&stats).ok());
  ASSERT_TRUE(stats.exchanged_on_call);
  FaultInjector injector(FaultPlan::Scripted(
      {{.kind = FaultKind::kCacheMiss, .repeat = true, .max_fires = 100}}));
  bed.kernel().set_fault_injector(&injector);
  // The call stays correct; it just pays the context switch instead.
  ASSERT_TRUE(bed.CallNull(&stats).ok());
  EXPECT_FALSE(stats.exchanged_on_call);
  EXPECT_FALSE(stats.exchanged_on_return);
  EXPECT_GE(injector.fired(FaultKind::kCacheMiss), 1u);
}

TEST(FaultInjection, SchedulerDelaySlowsOnlyTheMessagePath) {
  // LRPC never touches the scheduler; the delay injection point lives on
  // the message-RPC wakeup path (traditional mode — SRC RPC's handoff
  // scheduling bypasses the wakeup entirely).
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Kernel kernel(machine);
  MsgRpcSystem system(kernel, MsgRpcMode::kTraditional);
  const DomainId client = kernel.CreateDomain({.name = "client"});
  const DomainId server_domain = kernel.CreateDomain({.name = "server"});
  const ThreadId thread = kernel.CreateThread(client);
  Interface iface(0, "paper.Measures", server_domain);
  int null_proc, add_proc, bigin_proc, biginout_proc;
  PaperCounters counters;
  AddPaperProcedures(&iface, &null_proc, &add_proc, &bigin_proc,
                     &biginout_proc, counters);
  iface.Seal();
  MsgServer* server = system.RegisterServer(server_domain, &iface);
  MsgBinding binding = system.Bind(client, server);
  Processor& cpu = machine.processor(0);

  const SimTime before_clean = cpu.clock();
  ASSERT_TRUE(system.Call(cpu, thread, binding, null_proc, {}, {}).ok());
  const SimDuration clean = cpu.clock() - before_clean;

  FaultInjector injector(FaultPlan::Scripted(
      {{.kind = FaultKind::kSchedulerDelay, .repeat = true, .max_fires = 100}}));
  kernel.set_fault_injector(&injector);
  const SimTime before_delayed = cpu.clock();
  ASSERT_TRUE(system.Call(cpu, thread, binding, null_proc, {}, {}).ok());
  const SimDuration delayed = cpu.clock() - before_delayed;

  EXPECT_GE(injector.fired(FaultKind::kSchedulerDelay), 1u);
  // Still correct, just preempted: at least one 100us quantum slower.
  EXPECT_GE(delayed, clean + Micros(100));
}

// --- Determinism regression: the default simulator backend must keep
// producing the seed's bench tables bit-for-bit. The parallel engine
// (src/par) branches off the same call path; these pins catch any
// accidental cost or ordering drift on the deterministic side. The
// expectations are the repo's Table 4 / Table 5 outputs (which match the
// paper's C-VAX Firefly columns); every call is cycle-deterministic, so
// the per-call average is exact, not approximate.

namespace determinism {

constexpr int kPinCalls = 2000;

SimDuration MeasureLrpcTicks(bool multiprocessor, int proc_kind) {
  TestbedOptions options;
  if (multiprocessor) {
    options.processors = 2;
    options.park_idle_in_server = true;
  }
  Testbed bed(options);
  std::uint8_t big_in[kBigSize] = {};
  std::uint8_t big_out[kBigSize];
  std::int32_t sum = 0;
  auto call = [&]() {
    switch (proc_kind) {
      case 0:
        (void)bed.CallNull();
        break;
      case 1:
        (void)bed.CallAdd(1, 2, &sum);
        break;
      case 2:
        (void)bed.CallBigIn(big_in);
        break;
      default:
        (void)bed.CallBigInOut(big_in, big_out);
        break;
    }
  };
  call();  // Warm the context and E-stack association.
  const SimTime start = bed.cpu(0).clock();
  for (int i = 0; i < kPinCalls; ++i) {
    call();
  }
  return bed.cpu(0).clock() - start;
}

}  // namespace determinism

TEST(DeterminismPin, Table4LatenciesAreSeedIdentical) {
  using determinism::MeasureLrpcTicks;
  // Exact simulated-tick totals for 2000 steady-state calls; the per-call
  // averages are Table 4's 157/164/192/227 µs (LRPC) and 125/133/172/219 µs
  // (LRPC/MP). Pinning ticks rather than rounded µs makes any drift — even
  // one tick on one call — fail loudly.
  EXPECT_EQ(MeasureLrpcTicks(false, 0), 314000000);   // Null: 157 us/call
  EXPECT_EQ(MeasureLrpcTicks(false, 1), 328004000);   // Add
  EXPECT_EQ(MeasureLrpcTicks(false, 2), 384000000);   // BigIn: 192 us/call
  EXPECT_EQ(MeasureLrpcTicks(false, 3), 454000000);   // BigInOut: 227 us/call
  // LRPC/MP column (idle-processor domain caching on the second CPU).
  EXPECT_EQ(MeasureLrpcTicks(true, 0), 250000000);    // Null: 125 us/call
  EXPECT_EQ(MeasureLrpcTicks(true, 1), 265444000);    // Add
  EXPECT_EQ(MeasureLrpcTicks(true, 2), 344000000);    // BigIn: 172 us/call
  EXPECT_EQ(MeasureLrpcTicks(true, 3), 438000000);    // BigInOut: 219 us/call
}

TEST(DeterminismPin, Table5BreakdownIsSeedIdentical) {
  Testbed bed;
  for (int i = 0; i < 3; ++i) {
    (void)bed.CallNull();  // Reach steady state, then attribute one call.
  }
  const CostLedger before = bed.cpu(0).ledger();
  const std::uint64_t misses_before = bed.cpu(0).tlb().miss_count();
  ASSERT_TRUE(bed.CallNull().ok());
  const CostLedger d = bed.cpu(0).ledger().Diff(before);
  const std::uint64_t misses = bed.cpu(0).tlb().miss_count() - misses_before;

  EXPECT_DOUBLE_EQ(ToMicros(d.total(CostCategory::kProcedureCall)), 7.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.total(CostCategory::kKernelTrap)), 36.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.total(CostCategory::kContextSwitch)), 66.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.MinimumTotal()), 109.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.total(CostCategory::kClientStub)), 18.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.total(CostCategory::kServerStub)), 3.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.total(CostCategory::kKernelPath)), 27.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.LrpcOverheadTotal()), 48.0);
  EXPECT_DOUBLE_EQ(ToMicros(d.GrandTotal()), 157.0);
  // Section 4's TLB accounting: exactly the paper's 43 misses per call.
  EXPECT_EQ(misses, 43u);
}

}  // namespace
}  // namespace lrpc
