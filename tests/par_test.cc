// Unit tests for the real-thread engine's building blocks: the lock-free
// (and locked-baseline) A-stack free lists, the idle-processor claim
// registry, the kernel binding table's two lock modes, and the
// ParallelMachine facade over an adopted world (docs/concurrency.md).

#include <gtest/gtest.h>

#include <cstdint>

#include "src/kern/binding_table.h"
#include "src/lrpc/testbed.h"
#include "src/par/par_world.h"
#include "src/par/parallel_machine.h"
#include "src/shm/par_free_list.h"
#include "src/sim/idle_registry.h"

namespace lrpc {
namespace {

class ParFreeListTest : public ::testing::TestWithParam<bool> {};

TEST_P(ParFreeListTest, PopsInLifoOrderAndReportsExhaustion) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 3, /*secondary=*/false);
  ParFreeList list("test.group0", /*lock_free=*/GetParam(), /*capacity=*/3);
  for (int i = 0; i < 3; ++i) {
    list.Register(AStackRef{&region, i});
  }
  ASSERT_EQ(list.registered(), 3);

  // LIFO: the most recently registered node comes off first.
  Result<AStackRef> a = list.Pop(cpu);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->index, 2);
  Result<AStackRef> b = list.Pop(cpu);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->index, 1);
  Result<AStackRef> c = list.Pop(cpu);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->index, 0);
  EXPECT_EQ(list.Pop(cpu).code(), ErrorCode::kAStacksExhausted);

  // Push recirculates: a returned node is the next one popped.
  list.Push(cpu, *b);
  Result<AStackRef> again = list.Pop(cpu);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->index, 1);
  // Counters track successful exchanges; the empty pop does not count.
  EXPECT_EQ(list.pops(), 4u);
  EXPECT_EQ(list.pushes(), 1u);
}

TEST_P(ParFreeListTest, SnapshotIsTheFreeSet) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 4, /*secondary=*/false);
  ParFreeList list("test.snapshot", GetParam(), 4);
  for (int i = 0; i < 4; ++i) {
    list.Register(AStackRef{&region, i});
  }
  Result<AStackRef> taken = list.Pop(cpu);
  ASSERT_TRUE(taken.ok());

  std::vector<AStackRef> frees = list.Snapshot();
  EXPECT_EQ(frees.size(), 3u);
  for (const AStackRef& ref : frees) {
    EXPECT_FALSE(ref == *taken);
  }
  list.Push(cpu, *taken);
  EXPECT_EQ(list.Snapshot().size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, ParFreeListTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "LockFree" : "Locked";
                         });

TEST(ParFreeListAba, HeadTagAdvancesOnEveryExchange) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 2, /*secondary=*/false);
  ParFreeList list("test.aba", /*lock_free=*/true, 2);
  list.Register(AStackRef{&region, 0});
  list.Register(AStackRef{&region, 1});

  const std::uint32_t tag0 = list.head_tag();
  Result<AStackRef> popped = list.Pop(cpu);
  ASSERT_TRUE(popped.ok());
  const std::uint32_t tag1 = list.head_tag();
  EXPECT_NE(tag0, tag1);
  // The ABA case: pop and push the same node back. The head points at the
  // same node as before, but the tag has moved — a rival's stale
  // compare-exchange from before this round cannot win.
  list.Push(cpu, *popped);
  EXPECT_NE(list.head_tag(), tag1);
  EXPECT_NE(list.head_tag(), tag0);
}

TEST(IdleRegistry, ClaimIsExclusiveAndContextKeyed) {
  IdleProcessorRegistry registry(/*processor_count=*/4, /*max_contexts=*/8);
  EXPECT_EQ(registry.parked_count(), 0);
  EXPECT_EQ(registry.TryClaimInContext(VmContextId{2}), -1);
  EXPECT_EQ(registry.failed_claims(), 1u);

  registry.Park(/*cpu=*/1, VmContextId{2});
  registry.Park(/*cpu=*/3, VmContextId{5});
  EXPECT_EQ(registry.parked_count(), 2);

  // Wrong context: the parked set does not satisfy it.
  EXPECT_EQ(registry.TryClaimInContext(VmContextId{4}), -1);
  // Right context: claim succeeds exactly once.
  EXPECT_EQ(registry.TryClaimInContext(VmContextId{2}), 1);
  EXPECT_EQ(registry.TryClaimInContext(VmContextId{2}), -1);
  EXPECT_EQ(registry.parked_count(), 1);
  EXPECT_EQ(registry.claims(), 1u);

  registry.Unpark(3);
  EXPECT_EQ(registry.TryClaimInContext(VmContextId{5}), -1);
  EXPECT_EQ(registry.parked_count(), 0);
}

TEST(IdleRegistry, MissCountersSteerProdding) {
  IdleProcessorRegistry registry(2, 8);
  EXPECT_EQ(registry.BusiestMissedContext(), kNoVmContext);
  registry.RecordMiss(VmContextId{3});
  registry.RecordMiss(VmContextId{3});
  registry.RecordMiss(VmContextId{1});
  EXPECT_EQ(registry.misses(VmContextId{3}), 2u);
  EXPECT_EQ(registry.BusiestMissedContext(), VmContextId{3});
}

class BindingTableModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(BindingTableModeTest, KernelTableValidatesInEitherLockMode) {
  Testbed bed;
  BindingTable& table = bed.kernel().bindings();
  table.set_lock_free(GetParam());

  const BindingObject& object = bed.binding().object();
  Result<BindingRecord*> hit = table.Validate(object, bed.client_domain());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->id, object.id);

  // Forged nonce.
  BindingObject forged = object;
  forged.nonce ^= 0x1;
  EXPECT_EQ(table.Validate(forged, bed.client_domain()).code(),
            ErrorCode::kForgedBinding);
  // Wrong holder.
  EXPECT_EQ(table.Validate(object, bed.server_domain()).code(),
            ErrorCode::kForgedBinding);
  // Unknown id.
  BindingObject unknown = object;
  unknown.id = 9999;
  EXPECT_EQ(table.Validate(unknown, bed.client_domain()).code(),
            ErrorCode::kForgedBinding);
  // Revocation is visible to later validations, cached or not.
  ASSERT_TRUE(table.ValidateCached(object, bed.client_domain()).ok());
  EXPECT_EQ(table.RevokeForDomain(bed.server_domain()).size(), 1u);
  EXPECT_EQ(table.Validate(object, bed.client_domain()).code(),
            ErrorCode::kRevokedBinding);
  EXPECT_EQ(table.ValidateCached(object, bed.client_domain()).code(),
            ErrorCode::kRevokedBinding);
}

INSTANTIATE_TEST_SUITE_P(BothModes, BindingTableModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "LockFree" : "Locked";
                         });

TEST(ParWorldTest, SingleWorkerCallsComputeCorrectResults) {
  ParWorldOptions options;
  options.workers = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);

  EXPECT_TRUE(world.CallNull(0).ok());
  std::int32_t sum = 0;
  EXPECT_TRUE(world.CallAdd(0, 40, 2, &sum).ok());
  EXPECT_EQ(sum, 42);

  std::uint8_t in[kParBigSize];
  std::uint8_t out[kParBigSize];
  for (std::size_t i = 0; i < kParBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 3);
  }
  EXPECT_TRUE(world.CallBigInOut(0, in, out).ok());
  for (std::size_t i = 0; i < kParBigSize; ++i) {
    EXPECT_EQ(out[i], in[kParBigSize - 1 - i]);
  }
  EXPECT_EQ(world.server_calls_seen(), 3u);
  EXPECT_TRUE(world.par()->AuditConservation().ok());
}

// Terminating a domain revokes its bindings in the kernel's table (Section
// 5.3), and every backend validates calls against that table: no later call
// may enter the dead server.
TEST(ParWorldTest, TerminatedServerRejectsCallsOnEveryBackend) {
  for (const RuntimeBackend backend :
       {RuntimeBackend::kDeterministicSim, RuntimeBackend::kParallelHost}) {
    SCOPED_TRACE(backend == RuntimeBackend::kParallelHost ? "par" : "sim");
    ParWorldOptions options;
    options.workers = 1;
    options.backend = backend;
    ParWorld world(options);
    ASSERT_TRUE(world.CallNull(0).ok());  // Warms the binding cache.
    const std::uint64_t seen = world.server_calls_seen();

    ASSERT_TRUE(world.runtime().TerminateDomain(world.server_domain()).ok());
    EXPECT_EQ(world.CallNull(0).code(), ErrorCode::kRevokedBinding);
    std::int32_t sum = 0;
    EXPECT_EQ(world.CallAdd(0, 1, 2, &sum).code(), ErrorCode::kRevokedBinding);
    EXPECT_EQ(world.server_calls_seen(), seen);
  }
}

// A binding created after AdoptWorld (a supervised rebind, say) lands in
// the same table the call leg validates against.
TEST(ParWorldTest, BindingImportedAfterAdoptWorldIsCallable) {
  ParWorldOptions options;
  options.workers = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);

  Result<ClientBinding*> late = world.runtime().Import(
      world.machine().processor(0), world.client_domain(0), "par.Measures");
  ASSERT_TRUE(late.ok());
  CallStats stats;
  EXPECT_EQ(world.par()
                ->Call(0, world.worker_thread(0), **late, world.null_proc(),
                       {}, {}, stats)
                .code(),
            ErrorCode::kOk);
  EXPECT_EQ(world.server_calls_seen(), 1u);
}

TEST(ParWorldTest, ParkedProcessorMakesCallsExchange) {
  ParWorldOptions options;
  options.workers = 1;
  options.parked = 1;
  options.domain_caching = true;
  ParWorld world(options);

  CallStats stats;
  ASSERT_TRUE(world.CallNull(0, &stats).ok());
  EXPECT_TRUE(stats.exchanged_on_call);
  EXPECT_GE(world.machine().parallel_idle()->claims(), 1u);
  // After the round trip the idle supply is replenished: the next call can
  // exchange again (the §3.4 steady state).
  ASSERT_TRUE(world.CallNull(0, &stats).ok());
  EXPECT_TRUE(stats.exchanged_on_call);
}

TEST(ParWorldTest, CachingOffNeverExchangesAndCountsMisses) {
  ParWorldOptions options;
  options.workers = 1;
  options.parked = 1;
  options.domain_caching = false;
  ParWorld world(options);

  CallStats stats;
  ASSERT_TRUE(world.CallNull(0, &stats).ok());
  EXPECT_FALSE(stats.exchanged_on_call);
  EXPECT_FALSE(stats.exchanged_on_return);
}

TEST(ParWorldTest, ExhaustionFailsFastInsteadOfGrowing) {
  // One A-stack per group and a handler that recursively calls again would
  // deadlock; instead verify the pinned kFail policy surfaces exhaustion.
  ParWorldOptions options;
  options.workers = 1;
  options.astacks_per_group = 1;
  ParWorld world(options);

  ClientBinding& binding = world.worker_binding(0);
  EXPECT_EQ(binding.exhaustion_policy(), AStackExhaustionPolicy::kFail);
  // Drain the only Null-group A-stack directly, then call: the engine must
  // report exhaustion, not allocate a growth region.
  const Interface* iface = binding.interface_spec();
  const int group = iface->pd(world.null_proc()).astack_group;
  ParFreeList* list = binding.par_queue(group);
  ASSERT_NE(list, nullptr);
  Result<AStackRef> held = list->Pop(world.machine().processor(0));
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(world.CallNull(0).code(), ErrorCode::kAStacksExhausted);
  list->Push(world.machine().processor(0), *held);
  EXPECT_TRUE(world.CallNull(0).ok());
}

TEST(ParWorldTest, DeterministicBackendStillWorksThroughParWorld) {
  ParWorldOptions options;
  options.workers = 1;
  options.backend = RuntimeBackend::kDeterministicSim;
  ParWorld world(options);
  EXPECT_EQ(world.par(), nullptr);
  std::int32_t sum = 0;
  EXPECT_TRUE(world.CallAdd(0, 1, 2, &sum).ok());
  EXPECT_EQ(sum, 3);
}

}  // namespace
}  // namespace lrpc
