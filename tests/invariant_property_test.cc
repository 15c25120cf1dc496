// Property tests for the kernel invariant checker: random call / terminate
// / revoke sequences across several domains, hundreds of seeds, plus
// structural cases (nested calls, direct revocation) and a tamper test
// proving the checker actually detects broken state.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/kern/invariant_checker.h"
#include "src/lrpc/chaos_testbed.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/testbed.h"

namespace lrpc {
namespace {

std::string Describe(const ChaosResult& result) {
  std::string out;
  for (const std::string& v : result.violations) {
    out += "violation: " + v + "\n";
  }
  for (const std::string& u : result.undocumented) {
    out += "undocumented: " + u + "\n";
  }
  out += "trace:\n" + result.trace;
  return out;
}

TEST(InvariantProperty, RandomSequencesAcrossDomainsHold) {
  // 250 seeds over varied world shapes and fault pressures — including
  // fault-free schedules whose only chaos is random domain termination.
  for (int seed = 1; seed <= 250; ++seed) {
    ChaosOptions options;
    options.seed = static_cast<std::uint64_t>(seed) * 7919;
    options.servers = 3 + seed % 2;
    options.clients = 2 + seed % 3;
    options.operations = 30;
    options.fault_probability = static_cast<double>(seed % 4) * 0.05;
    options.fault_injection = options.fault_probability > 0.0;
    options.allow_termination = seed % 5 != 0;
    const ChaosResult result = RunChaosSchedule(options);
    ASSERT_TRUE(result.ok()) << "seed " << seed << "\n" << Describe(result);
    ASSERT_GT(result.events_seen, 0u);
  }
}

TEST(InvariantProperty, NestedCallsKeepLinkageStacksLifo) {
  // client -> A -> B: A's Relay procedure calls B's Add from inside the
  // handler, so the thread's linkage stack reaches depth two and the
  // checker's LIFO and E-stack conditions are exercised non-trivially.
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Kernel kernel(machine);
  LrpcRuntime runtime(kernel);
  Processor& cpu = machine.processor(0);

  const DomainId client = kernel.CreateDomain({.name = "client"});
  const DomainId a = kernel.CreateDomain({.name = "middle"});
  const DomainId b = kernel.CreateDomain({.name = "inner"});
  const ThreadId thread = kernel.CreateThread(client);

  Interface* inner = runtime.CreateInterface(b, "nested.inner");
  int null_proc, add_proc, bigin_proc, biginout_proc;
  PaperCounters counters;
  AddPaperProcedures(inner, &null_proc, &add_proc, &bigin_proc,
                     &biginout_proc, counters);
  ASSERT_TRUE(runtime.Export(inner).ok());
  Result<ClientBinding*> ab = runtime.Import(cpu, a, "nested.inner");
  ASSERT_TRUE(ab.ok());

  Interface* middle = runtime.CreateInterface(a, "nested.middle");
  int relay_proc = -1;
  {
    ProcedureDef def;
    def.name = "Relay";
    def.params.push_back({.name = "x", .direction = ParamDirection::kIn,
                          .size = 4});
    def.params.push_back({.name = "y", .direction = ParamDirection::kIn,
                          .size = 4});
    def.params.push_back({.name = "sum", .direction = ParamDirection::kOut,
                          .size = 4});
    def.handler = [&](ServerFrame& frame) -> Status {
      Result<std::int32_t> x = frame.Arg<std::int32_t>(0);
      Result<std::int32_t> y = frame.Arg<std::int32_t>(1);
      if (!x.ok() || !y.ok()) {
        return Status(ErrorCode::kInvalidArgument);
      }
      std::int32_t sum = 0;
      const CallArg args[] = {CallArg::Of(*x), CallArg::Of(*y)};
      const CallRet rets[] = {CallRet::Of(&sum)};
      const Status nested =
          runtime.Call(cpu, thread, **ab, add_proc, args, rets);
      if (!nested.ok()) {
        return nested;
      }
      return frame.Result_<std::int32_t>(2, sum);
    };
    relay_proc = middle->AddProcedure(std::move(def));
  }
  ASSERT_TRUE(runtime.Export(middle).ok());
  Result<ClientBinding*> ca = runtime.Import(cpu, client, "nested.middle");
  ASSERT_TRUE(ca.ok());

  InvariantChecker checker(kernel);
  RegisterAStackConservationCheck(checker, runtime);
  for (std::int32_t i = 0; i < 20; ++i) {
    std::int32_t sum = 0;
    const std::int32_t x = i * 3, y = 100 - i;
    const CallArg args[] = {CallArg::Of(x), CallArg::Of(y)};
    const CallRet rets[] = {CallRet::Of(&sum)};
    ASSERT_TRUE(
        runtime.Call(cpu, thread, **ca, relay_proc, args, rets).ok());
    EXPECT_EQ(sum, x + y);
  }
  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? ""
                                    : checker.violations().front());
  EXPECT_GT(checker.events_seen(), 0u);
}

TEST(InvariantProperty, ClaimOrderIsCheckedDownEachThreadsOwnStack) {
  // Each thread stamps its linkages from its own counter
  // (Thread::NextLinkageSeq), so the checker compares seq values only down
  // one thread's stack. client -> middle -> inner: middle's Relay calls
  // inner's Probe on the thread `relay_thread` names, and Probe runs
  // `probe` while both calls are outstanding.
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Kernel kernel(machine);
  LrpcRuntime runtime(kernel);
  Processor& cpu = machine.processor(0);

  const DomainId client = kernel.CreateDomain({.name = "client"});
  const DomainId middle = kernel.CreateDomain({.name = "middle"});
  const DomainId inner = kernel.CreateDomain({.name = "inner"});
  const ThreadId caller = kernel.CreateThread(client);
  const ThreadId middle_thread = kernel.CreateThread(middle);

  std::function<void()> probe;
  Interface* inner_iface = runtime.CreateInterface(inner, "order.inner");
  ProcedureDef probe_def;
  probe_def.name = "Probe";
  probe_def.handler = [&](ServerFrame&) {
    probe();
    return Status::Ok();
  };
  const int probe_proc = inner_iface->AddProcedure(std::move(probe_def));
  ASSERT_TRUE(runtime.Export(inner_iface).ok());
  Result<ClientBinding*> to_inner = runtime.Import(cpu, middle, "order.inner");
  ASSERT_TRUE(to_inner.ok());

  ThreadId relay_thread = kNoThread;
  Interface* middle_iface = runtime.CreateInterface(middle, "order.middle");
  ProcedureDef relay_def;
  relay_def.name = "Relay";
  relay_def.handler = [&](ServerFrame&) {
    return runtime.Call(cpu, relay_thread, **to_inner, probe_proc, {}, {});
  };
  const int relay_proc = middle_iface->AddProcedure(std::move(relay_def));
  ASSERT_TRUE(runtime.Export(middle_iface).ok());
  Result<ClientBinding*> to_middle =
      runtime.Import(cpu, client, "order.middle");
  ASSERT_TRUE(to_middle.ok());

  InvariantChecker checker(kernel);
  const auto stack_of = [&](ThreadId id) -> const std::vector<AStackRef>& {
    return kernel.thread(id).linkage_stack();
  };

  // Two threads' first calls, outstanding at once: the caller's Relay and
  // a middle-domain thread's Probe are both stamped 1. Equal stamps on two
  // stacks are not a violation.
  relay_thread = middle_thread;
  probe = [&] {
    ASSERT_EQ(stack_of(caller).size(), 1u);
    ASSERT_EQ(stack_of(middle_thread).size(), 1u);
    EXPECT_EQ(stack_of(caller)[0].linkage().seq, 1u);
    EXPECT_EQ(stack_of(middle_thread)[0].linkage().seq, 1u);
    checker.CheckNow("coinciding stamps");
  };
  ASSERT_TRUE(runtime.Call(cpu, caller, **to_middle, relay_proc, {}, {}).ok());
  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? ""
                                    : checker.violations().front());

  // The caller's nested call: the inner linkage sits above the outer one
  // and was stamped after it. Re-stamped at or below the outer linkage's
  // seq, it breaks the claim order, and the checker must flag it.
  relay_thread = caller;
  probe = [&] {
    ASSERT_EQ(stack_of(caller).size(), 2u);
    const LinkageRecord& below = stack_of(caller)[0].linkage();
    LinkageRecord& top = stack_of(caller)[1].linkage();
    EXPECT_LT(below.seq, top.seq);
    checker.CheckNow("nested");
    EXPECT_TRUE(checker.ok());
    const std::uint64_t stamped = top.seq;
    for (const std::uint64_t restamp : {below.seq, below.seq - 1}) {
      top.seq = restamp;
      const std::uint64_t before = checker.violation_count();
      checker.CheckNow("re-stamped");
      EXPECT_EQ(checker.violation_count(), before + 1) << "seq " << restamp;
    }
    top.seq = stamped;
  };
  ASSERT_TRUE(runtime.Call(cpu, caller, **to_middle, relay_proc, {}, {}).ok());
  EXPECT_EQ(checker.violation_count(), 2u);
  EXPECT_GT(checker.events_seen(), 0u);
}

TEST(InvariantProperty, DirectRevocationHoldsInvariants) {
  Testbed bed;
  InvariantChecker checker(bed.kernel());
  RegisterAStackConservationCheck(checker, bed.runtime());
  ASSERT_TRUE(bed.CallNull().ok());
  bed.kernel().bindings().RevokeForDomain(bed.server_domain());
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kRevokedBinding);
  checker.CheckNow("after revoke");
  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? ""
                                    : checker.violations().front());
}

TEST(InvariantProperty, CheckerDetectsTamperedState) {
  // Not vacuous: corrupt the kernel's books and the checker must object.
  Testbed bed;
  InvariantChecker checker(bed.kernel());
  RegisterAStackConservationCheck(checker, bed.runtime());
  checker.CheckNow("clean");
  ASSERT_EQ(checker.violation_count(), 0u);

  // A queued A-stack marked in_use is simultaneously free and claimed:
  // conservation must flag it.
  AStackRegion& region = *bed.binding().record()->regions.front();
  region.linkage(0).in_use = true;
  checker.CheckNow("tampered");
  EXPECT_GT(checker.violation_count(), 0u);
  region.linkage(0).in_use = false;

  // The same A-stack on a thread's stack twice is a double claim: the
  // LIFO and uniqueness checks must flag it.
  Thread& t = bed.kernel().thread(bed.client_thread());
  const AStackRef ref{&region, 0};
  t.PushLinkage(ref);
  t.PushLinkage(ref);
  const std::uint64_t before = checker.violation_count();
  checker.CheckNow("double claim");
  EXPECT_GT(checker.violation_count(), before);
  t.PopLinkage();
  t.PopLinkage();

  // Pushing a free A-stack a second time points its node at itself: the
  // lock-free list is now a cycle. The audit's walk is bounded by the
  // registered count, so it reports the corruption instead of hanging.
  ParFreeList& list = bed.binding().free_list(0);
  Result<AStackRef> popped = list.Pop(bed.cpu(0));
  ASSERT_TRUE(popped.ok());
  list.Push(bed.cpu(0), *popped);
  list.Push(bed.cpu(0), *popped);
  const std::uint64_t before_cycle = checker.violation_count();
  checker.CheckNow("cyclic free list");
  EXPECT_GT(checker.violation_count(), before_cycle);
  EXPECT_GT(static_cast<int>(list.Snapshot().size()), list.registered());
}

}  // namespace
}  // namespace lrpc
