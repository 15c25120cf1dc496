#include <gtest/gtest.h>

#include "src/kern/kernel.h"

namespace lrpc {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : machine_(MachineModel::CVaxFirefly(), 2), kernel_(machine_) {}

  Machine machine_;
  Kernel kernel_;
};

// --- Domains and threads ---

TEST_F(KernelTest, CreateDomainAssignsDistinctContexts) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  EXPECT_NE(kernel_.domain(a).vm_context(), kernel_.domain(b).vm_context());
  EXPECT_NE(kernel_.domain(a).page_base(), kernel_.domain(b).page_base());
  EXPECT_TRUE(kernel_.domain(a).alive());
}

TEST_F(KernelTest, FindDomainRejectsBadIds) {
  EXPECT_EQ(kernel_.FindDomain(-1), nullptr);
  EXPECT_EQ(kernel_.FindDomain(99), nullptr);
}

TEST_F(KernelTest, ThreadsBelongToDomains) {
  const DomainId d = kernel_.CreateDomain({.name = "d"});
  const ThreadId t = kernel_.CreateThread(d);
  EXPECT_EQ(kernel_.thread(t).home_domain(), d);
  EXPECT_EQ(kernel_.thread(t).current_domain(), d);
  EXPECT_EQ(kernel_.domain(d).threads().size(), 1u);
}

// --- EnterDomain: context switch vs exchange ---

TEST_F(KernelTest, EnterDomainChargesContextSwitch) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  const ThreadId t = kernel_.CreateThread(a);
  Processor& cpu = machine_.processor(0);
  cpu.LoadContext(kernel_.domain(a).vm_context());

  auto result = kernel_.EnterDomain(cpu, kernel_.thread(t), kernel_.domain(b));
  EXPECT_FALSE(result.exchanged);
  EXPECT_EQ(cpu.ledger().total(CostCategory::kContextSwitch),
            machine_.model().context_switch);
  EXPECT_EQ(kernel_.thread(t).current_domain(), b);
}

TEST_F(KernelTest, EnterDomainUsesIdleProcessorWhenAvailable) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  const ThreadId t = kernel_.CreateThread(a);
  Processor& cpu = machine_.processor(0);
  cpu.LoadContext(kernel_.domain(a).vm_context());
  kernel_.ParkIdleProcessor(machine_.processor(1), b);

  auto result = kernel_.EnterDomain(cpu, kernel_.thread(t), kernel_.domain(b));
  EXPECT_TRUE(result.exchanged);
  EXPECT_EQ(cpu.ledger().total(CostCategory::kContextSwitch), 0);
  EXPECT_EQ(cpu.ledger().total(CostCategory::kProcessorExchange),
            machine_.model().processor_exchange);
  // The idler now spins in the caller's old context (ready for the return).
  EXPECT_EQ(machine_.processor(1).loaded_context(),
            kernel_.domain(a).vm_context());
  EXPECT_TRUE(machine_.processor(1).idle());
}

TEST_F(KernelTest, DomainCachingDisabledForcesSwitch) {
  kernel_.set_domain_caching(false);
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  const ThreadId t = kernel_.CreateThread(a);
  Processor& cpu = machine_.processor(0);
  cpu.LoadContext(kernel_.domain(a).vm_context());
  kernel_.ParkIdleProcessor(machine_.processor(1), b);

  auto result = kernel_.EnterDomain(cpu, kernel_.thread(t), kernel_.domain(b));
  EXPECT_FALSE(result.exchanged);
}

TEST_F(KernelTest, IdleMissesProdIdlersTowardBusyDomains) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  const ThreadId t = kernel_.CreateThread(a);
  Processor& cpu = machine_.processor(0);
  cpu.LoadContext(kernel_.domain(a).vm_context());
  // Idle processor parked in the WRONG domain (a, not b).
  kernel_.ParkIdleProcessor(machine_.processor(1), a);
  // A call into b finds no idler there and records a miss...
  kernel_.EnterDomain(cpu, kernel_.thread(t), kernel_.domain(b));
  EXPECT_GT(machine_.idle_misses(kernel_.domain(b).vm_context()), 0u);
  // ...and prodding moves the idler into b's context.
  kernel_.ProdIdleProcessors();
  EXPECT_EQ(machine_.processor(1).loaded_context(),
            kernel_.domain(b).vm_context());
}

// --- Binding table ---

TEST_F(KernelTest, BindingValidateAcceptsGenuineObject) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  BindingObject obj{rec.id, rec.nonce, false};
  ASSERT_TRUE(kernel_.bindings().Validate(obj, c).ok());
}

TEST_F(KernelTest, BindingValidateDetectsForgedNonce) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  BindingObject forged{rec.id, rec.nonce ^ 1, false};
  EXPECT_EQ(kernel_.bindings().Validate(forged, c).code(),
            ErrorCode::kForgedBinding);
}

TEST_F(KernelTest, BindingValidateDetectsStolenObject) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  const DomainId thief = kernel_.CreateDomain({.name = "thief"});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  BindingObject obj{rec.id, rec.nonce, false};
  EXPECT_EQ(kernel_.bindings().Validate(obj, thief).code(),
            ErrorCode::kForgedBinding);
}

TEST_F(KernelTest, BindingValidateDetectsRevocation) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  kernel_.bindings().RevokeForDomain(s);
  BindingObject obj{rec.id, rec.nonce, false};
  EXPECT_EQ(kernel_.bindings().Validate(obj, c).code(),
            ErrorCode::kRevokedBinding);
}

TEST_F(KernelTest, RevokeForDomainHitsBothDirections) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  const DomainId x = kernel_.CreateDomain({.name = "x"});
  kernel_.bindings().Create(a, b, 0, nullptr, false);  // a imports from b.
  kernel_.bindings().Create(b, a, 1, nullptr, false);  // b imports from a.
  kernel_.bindings().Create(x, b, 2, nullptr, false);  // Unrelated to a.
  const auto affected = kernel_.bindings().RevokeForDomain(a);
  EXPECT_EQ(affected.size(), 2u);
}

// --- E-stacks ---

TEST_F(KernelTest, EStackLazilyAssociatedAndReused) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  AStackRegion* region = kernel_.AllocateAStacks(rec, 128, 2, false);

  Domain& server = kernel_.domain(s);
  AStackRef ref{region, 0};
  Result<int> first = kernel_.EnsureEStack(server, ref, 1000);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(server.estacks().allocated(), 1);

  // Second call on the same A-stack reuses the association: no new E-stack.
  Result<int> second = kernel_.EnsureEStack(server, ref, 2000);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(server.estacks().allocated(), 1);

  // A different A-stack gets its own E-stack.
  AStackRef other{region, 1};
  Result<int> third = kernel_.EnsureEStack(server, other, 3000);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(*third, *first);
  EXPECT_EQ(server.estacks().allocated(), 2);
}

TEST_F(KernelTest, EStackBudgetExhaustionStealsOldestAssociation) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s =
      kernel_.CreateDomain({.name = "s", .estack_capacity = 2});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  AStackRegion* region = kernel_.AllocateAStacks(rec, 128, 3, false);
  Domain& server = kernel_.domain(s);

  ASSERT_TRUE(kernel_.EnsureEStack(server, {region, 0}, 1000).ok());
  ASSERT_TRUE(kernel_.EnsureEStack(server, {region, 1}, 2000).ok());
  EXPECT_EQ(server.estacks().allocated(), 2);

  // Third A-stack: budget is spent, so the oldest association (A-stack 0,
  // last used at t=1000) is reclaimed.
  ASSERT_TRUE(kernel_.EnsureEStack(server, {region, 2}, 3000).ok());
  EXPECT_EQ(server.estacks().allocated(), 2);
  EXPECT_EQ(region->estack_of(0), -1);
  EXPECT_NE(region->estack_of(2), -1);
}

TEST_F(KernelTest, ReclaimSkipsInUseLinkages) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  AStackRegion* region = kernel_.AllocateAStacks(rec, 128, 1, false);
  Domain& server = kernel_.domain(s);
  ASSERT_TRUE(kernel_.EnsureEStack(server, {region, 0}, 1000).ok());
  region->linkage(0).in_use = true;  // Outstanding call.
  EXPECT_EQ(kernel_.ReclaimEStacks(server, /*cutoff=*/5000), 0);
  region->linkage(0).in_use = false;
  EXPECT_EQ(kernel_.ReclaimEStacks(server, /*cutoff=*/5000), 1);
}

// --- Termination collector (Section 5.3) ---

TEST_F(KernelTest, TerminateRevokesAndInvalidates) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  AStackRegion* region = kernel_.AllocateAStacks(rec, 128, 2, false);

  ASSERT_TRUE(kernel_.TerminateDomain(s).ok());
  EXPECT_TRUE(rec.revoked);
  EXPECT_FALSE(region->linkage(0).valid);
  EXPECT_FALSE(kernel_.domain(s).alive());
}

TEST_F(KernelTest, TerminateIsIdempotentError) {
  const DomainId d = kernel_.CreateDomain({.name = "d"});
  ASSERT_TRUE(kernel_.TerminateDomain(d).ok());
  EXPECT_EQ(kernel_.TerminateDomain(d).code(), ErrorCode::kDomainTerminated);
}

TEST_F(KernelTest, VisitingThreadRestartedInCallerWithCallFailed) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  const ThreadId t = kernel_.CreateThread(c);
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  AStackRegion* region = kernel_.AllocateAStacks(rec, 128, 1, false);

  // Simulate an outstanding call: thread t is executing inside s.
  Thread& thread = kernel_.thread(t);
  LinkageRecord& linkage = region->linkage(0);
  linkage.in_use = true;
  linkage.caller_thread = t;
  linkage.caller_domain = c;
  linkage.saved_stack_pointer = 0x1234;
  thread.PushLinkage({region, 0});
  thread.set_current_domain(s);

  ASSERT_TRUE(kernel_.TerminateDomain(s).ok());
  EXPECT_EQ(thread.current_domain(), c);
  EXPECT_EQ(thread.pending_exception(), ThreadException::kCallFailed);
  EXPECT_EQ(thread.user_sp(), 0x1234u);
  EXPECT_FALSE(linkage.in_use);
  EXPECT_EQ(thread.state(), ThreadState::kReady);
}

TEST_F(KernelTest, ThreadWithNoValidLinkageIsDestroyed) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  const ThreadId t = kernel_.CreateThread(c);
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  AStackRegion* region = kernel_.AllocateAStacks(rec, 128, 1, false);

  Thread& thread = kernel_.thread(t);
  LinkageRecord& linkage = region->linkage(0);
  linkage.caller_domain = c;
  linkage.in_use = true;
  thread.PushLinkage({region, 0});
  thread.set_current_domain(s);

  // The caller domain dies first, then the server: nowhere to return.
  ASSERT_TRUE(kernel_.TerminateDomain(c).ok());
  ASSERT_TRUE(kernel_.TerminateDomain(s).ok());
  EXPECT_EQ(thread.state(), ThreadState::kDead);
}

TEST_F(KernelTest, NestedUnwindSkipsDeadIntermediates) {
  // A -> B -> C; both B and C die; the thread must land in A.
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const ThreadId t = kernel_.CreateThread(a);
  BindingRecord& ab = kernel_.bindings().Create(a, b, 0, nullptr, false);
  BindingRecord& bc = kernel_.bindings().Create(b, c, 1, nullptr, false);
  AStackRegion* r_ab = kernel_.AllocateAStacks(ab, 128, 1, false);
  AStackRegion* r_bc = kernel_.AllocateAStacks(bc, 128, 1, false);

  Thread& thread = kernel_.thread(t);
  r_ab->linkage(0).caller_domain = a;
  r_ab->linkage(0).caller_thread = t;
  r_ab->linkage(0).in_use = true;
  r_ab->linkage(0).saved_stack_pointer = 0xa;
  thread.PushLinkage({r_ab, 0});
  r_bc->linkage(0).caller_domain = b;
  r_bc->linkage(0).caller_thread = t;
  r_bc->linkage(0).in_use = true;
  thread.PushLinkage({r_bc, 0});
  thread.set_current_domain(c);

  ASSERT_TRUE(kernel_.TerminateDomain(b).ok());
  // B's death doesn't move the thread (it is in C), but invalidates both
  // linkages B participates in.
  EXPECT_FALSE(r_ab->linkage(0).valid);
  EXPECT_FALSE(r_bc->linkage(0).valid);

  ASSERT_TRUE(kernel_.TerminateDomain(c).ok());
  // Unwinding pops the B->C linkage (caller B is dead) and the A->B linkage
  // (caller A is alive): the thread lands in A with call-failed.
  EXPECT_EQ(thread.current_domain(), a);
  EXPECT_EQ(thread.pending_exception(), ThreadException::kCallFailed);
  EXPECT_EQ(thread.user_sp(), 0xau);
}

// --- Captured threads (Section 5.3) ---

TEST_F(KernelTest, AbandonCapturedCallCreatesReplacementThread) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const DomainId s = kernel_.CreateDomain({.name = "s"});
  const ThreadId t = kernel_.CreateThread(c);
  BindingRecord& rec = kernel_.bindings().Create(c, s, 0, nullptr, false);
  AStackRegion* region = kernel_.AllocateAStacks(rec, 128, 1, false);

  Thread& thread = kernel_.thread(t);
  region->linkage(0).caller_domain = c;
  region->linkage(0).caller_thread = t;
  region->linkage(0).in_use = true;
  region->linkage(0).saved_stack_pointer = 0x99;
  thread.PushLinkage({region, 0});
  thread.set_current_domain(s);  // Captured by the server.

  Result<ThreadId> fresh = kernel_.AbandonCapturedCall(thread);
  ASSERT_TRUE(fresh.ok());
  Thread& replacement = kernel_.thread(*fresh);
  EXPECT_EQ(replacement.home_domain(), c);
  EXPECT_EQ(replacement.pending_exception(), ThreadException::kCallAborted);
  EXPECT_EQ(replacement.user_sp(), 0x99u);
  EXPECT_TRUE(thread.captured());
  // The captured thread keeps running in the server for now.
  EXPECT_EQ(thread.current_domain(), s);
}

TEST_F(KernelTest, AbandonRequiresOutstandingCall) {
  const DomainId c = kernel_.CreateDomain({.name = "c"});
  const ThreadId t = kernel_.CreateThread(c);
  EXPECT_EQ(kernel_.AbandonCapturedCall(kernel_.thread(t)).code(),
            ErrorCode::kInvalidArgument);
}

// --- Scheduler (message-RPC substrate) ---

TEST_F(KernelTest, SchedulerBlockWakeupRoundTrip) {
  const DomainId d = kernel_.CreateDomain({.name = "d"});
  const ThreadId t = kernel_.CreateThread(d);
  Thread& thread = kernel_.thread(t);
  Processor& cpu = machine_.processor(0);

  kernel_.scheduler().Block(cpu, thread);
  EXPECT_EQ(thread.state(), ThreadState::kBlocked);
  kernel_.scheduler().Wakeup(cpu, thread);
  EXPECT_EQ(thread.state(), ThreadState::kReady);
  EXPECT_EQ(kernel_.scheduler().PickNext(cpu), &thread);
  EXPECT_EQ(thread.state(), ThreadState::kRunning);
  EXPECT_EQ(kernel_.scheduler().PickNext(cpu), nullptr);
}

TEST_F(KernelTest, SchedulerHandoffBypassesQueue) {
  const DomainId d = kernel_.CreateDomain({.name = "d"});
  Thread& from = kernel_.thread(kernel_.CreateThread(d));
  Thread& to = kernel_.thread(kernel_.CreateThread(d));
  Processor& cpu = machine_.processor(0);

  kernel_.scheduler().Handoff(cpu, from, to);
  EXPECT_EQ(from.state(), ThreadState::kBlocked);
  EXPECT_EQ(to.state(), ThreadState::kRunning);
  EXPECT_EQ(kernel_.scheduler().ready_count(), 0u);
  EXPECT_EQ(kernel_.scheduler().handoffs(), 1u);
}

}  // namespace
}  // namespace lrpc
