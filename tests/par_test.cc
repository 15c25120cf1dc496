// Unit tests for the real-thread engine's building blocks: the lock-free
// (and locked-baseline) A-stack free lists, the kernel binding table's two
// lock modes, and ParWorld, built around a ParallelMachine
// (docs/concurrency.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/kern/binding_table.h"
#include "src/lrpc/testbed.h"
#include "src/par/par_world.h"
#include "src/par/parallel_machine.h"
#include "src/shm/par_free_list.h"

namespace lrpc {
namespace {

class ParFreeListTest : public ::testing::TestWithParam<bool> {};

TEST_P(ParFreeListTest, PopsInLifoOrderAndReportsExhaustion) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 3, /*secondary=*/false);
  ParFreeList list("test.group0", /*lock_free=*/GetParam());
  for (int i = 0; i < 3; ++i) {
    list.Register(AStackRef{&region, i});
  }
  ASSERT_EQ(list.registered(), 3);
  const std::uint32_t tag = list.head_tag();

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
  EXPECT_TRUE(list.Snapshot().empty());
  if (GetParam()) {
    // Four pops and one push exchanged the head; the empty pop did not.
    EXPECT_EQ(list.head_tag(), tag + 5);
  }
}

TEST_P(ParFreeListTest, SnapshotIsTheFreeSet) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Processor& cpu = machine.processor(0);
  AStackRegion region(DomainId{0}, DomainId{1}, 256, 4, /*secondary=*/false);
  ParFreeList list("test.snapshot", GetParam());
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
  ParFreeList list("test.aba", /*lock_free=*/true);
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
  // A host machine never takes the simulator's free-list lock.
  for (ParFreeList* list : world.par()->free_lists()) {
    EXPECT_EQ(list->sim_lock().acquisitions(), 0u);
  }
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

// A binding imported after the world is built (a supervised rebind, say)
// gets its free lists from Import, under the world's lock discipline, so
// four workers may call through it at once.
TEST(ParWorldTest, BindingImportedAfterTheWorldTakesConcurrentCalls) {
  constexpr int kWorkers = 4;
  constexpr int kCallsPerWorker = 2000;
  ParWorldOptions options;
  options.workers = kWorkers;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);

  Result<ClientBinding*> late = world.runtime().Import(
      world.machine().processor(0), world.client_domain(0), "par.Measures");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)->exhaustion_policy(), AStackExhaustionPolicy::kFail);

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kCallsPerWorker; ++i) {
        const std::int32_t a = w * 100000 + i;
        const std::int32_t b = i;
        std::int32_t sum = 0;
        const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
        const CallRet rets[] = {CallRet::Of(&sum)};
        const Status status = world.runtime().Call(
            world.machine().processor(w), world.worker_thread(w), **late,
            world.add_proc(), args, rets);
        // Eight A-stacks per group serve four callers: exhaustion would be
        // a lost A-stack, not admission control.
        if (!status.ok() || sum != a + b) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(world.server_calls_seen(),
            static_cast<std::uint64_t>(kWorkers) * kCallsPerWorker);
  EXPECT_TRUE(world.par()->AuditConservation().ok());
}

// Domain caching (Section 3.4) is the simulator's alone: a host call
// switches contexts on both legs, never looks for an idle processor, and so
// records no idle miss against either domain.
TEST(ParWorldTest, HostCallsNeitherExchangeNorCountIdleMisses) {
  ParWorldOptions options;
  options.workers = 1;
  ParWorld world(options);
  ASSERT_TRUE(world.kernel().domain_caching());
  const ProcedureDescriptor& add =
      world.worker_binding(0).interface_spec()->pd(world.add_proc());
  ASSERT_TRUE(add.inline_eligible);

  for (int i = 0; i < 10; ++i) {
    CallStats null_stats;
    ASSERT_TRUE(world.CallNull(0, &null_stats).ok());
    CallStats add_stats;
    std::int32_t sum = 0;
    ASSERT_TRUE(world.CallAdd(0, i, 1000, &sum, &add_stats).ok());
    EXPECT_EQ(sum, i + 1000);
    CallStats inline_stats;
    std::uint8_t block[kInlineSlotSpanLimit] = {};
    const std::int32_t a = i;
    const std::int32_t b = -7;
    std::memcpy(block + ParamOffset(*add.def, 0), &a, sizeof(a));
    std::memcpy(block + ParamOffset(*add.def, 1), &b, sizeof(b));
    ASSERT_TRUE(world.runtime()
                    .CallInline(world.machine().processor(0),
                                world.worker_thread(0), world.worker_binding(0),
                                world.add_proc(), block, block, &inline_stats)
                    .ok());
    std::memcpy(&sum, block + ParamOffset(*add.def, 2), sizeof(sum));
    EXPECT_EQ(sum, i - 7);
    for (const CallStats* stats : {&null_stats, &add_stats, &inline_stats}) {
      EXPECT_FALSE(stats->exchanged_on_call) << "call " << i;
      EXPECT_FALSE(stats->exchanged_on_return) << "call " << i;
    }
  }
  EXPECT_EQ(world.server_calls_seen(), 30u);
  for (const DomainId domain : {world.server_domain(), world.client_domain(0)}) {
    EXPECT_EQ(world.machine().idle_misses(
                  world.kernel().domain(domain).vm_context()),
              0u);
  }
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
  ParFreeList& list = binding.free_list(group);
  Result<AStackRef> held = list.Pop(world.machine().processor(0));
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(world.CallNull(0).code(), ErrorCode::kAStacksExhausted);
  // One A-stack per group, and no growth region.
  EXPECT_EQ(binding.allocated_astacks(), binding.free_list_count());
  list.Push(world.machine().processor(0), *held);
  EXPECT_TRUE(world.CallNull(0).ok());
}

TEST(ParWorldTest, AStackInAnotherProcessorsSlotIsStolenAndAudited) {
  ParWorldOptions options;
  options.workers = 2;
  options.astacks_per_group = 2;
  ParWorld world(options);
  Processor& cpu0 = world.machine().processor(0);
  Processor& cpu1 = world.machine().processor(1);
  ParFreeList& list = world.worker_binding(0).free_list(0);
  ASSERT_EQ(list.slot_count(), 2);

  // Empty the shared list, then park one A-stack in each processor's slot.
  Result<AStackRef> mine = list.Pop(cpu0);
  Result<AStackRef> theirs = list.Pop(cpu0);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(theirs.ok());
  list.Push(cpu0, *mine);
  list.Push(cpu1, *theirs);
  EXPECT_EQ(list.head_tag(), 4u);  // Two registrations and two pops.

  // The audit counts A-stacks parked in slots as free.
  EXPECT_EQ(list.Snapshot().size(), 2u);
  std::vector<std::string> found;
  world.runtime().AuditAStacks(/*quiescent=*/true, found);
  EXPECT_TRUE(found.empty()) << (found.empty() ? "" : found.front());

  // Processor 0 takes its own slot first, then, with the shared list
  // empty, steals from processor 1's slot; only then is the group empty.
  Result<AStackRef> first = list.Pop(cpu0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, *mine);
  Result<AStackRef> stolen = list.Pop(cpu0);
  ASSERT_TRUE(stolen.ok());
  EXPECT_EQ(*stolen, *theirs);
  EXPECT_EQ(list.Pop(cpu0).code(), ErrorCode::kAStacksExhausted);
  EXPECT_EQ(list.head_tag(), 4u);  // No pop or push touched the head.

  list.Push(cpu1, *stolen);
  list.Push(cpu1, *first);  // Processor 1's slot is full: the shared list.
  EXPECT_EQ(list.head_tag(), 5u);
  EXPECT_TRUE(world.CallNull(0).ok());
  EXPECT_TRUE(world.CallNull(1).ok());
  EXPECT_TRUE(world.par()->AuditConservation().ok());
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
  // The simulator takes the group's lock for the pop and the push, and its
  // lists keep no processor slots.
  ClientBinding& binding = world.worker_binding(0);
  const int group =
      binding.interface_spec()->pd(world.add_proc()).astack_group;
  EXPECT_GE(binding.free_list(group).sim_lock().acquisitions(), 2u);
  EXPECT_EQ(binding.free_list(group).slot_count(), 0);
}

TEST(RuntimeBackendTest, TheBackendDecidesWhetherTheMachineSimulatesCosts) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  EXPECT_TRUE(machine.simulates_costs());
  Kernel kernel(machine);
  LrpcRuntime host(kernel, RuntimeBackend::kParallelHost);
  EXPECT_FALSE(machine.simulates_costs());
  LrpcRuntime other_host(kernel, RuntimeBackend::kMultiProcess);
  EXPECT_FALSE(machine.simulates_costs());
  // A simulator runtime here would read a ledger the host calls never fill.
  EXPECT_DEATH(LrpcRuntime sim(kernel), "LRPC_CHECK failed");
  // A host call never exchanges processors, so none may idle for it.
  const DomainId server = kernel.CreateDomain({.name = "server"});
  EXPECT_DEATH(kernel.ParkIdleProcessor(machine.processor(0), server),
               "LRPC_CHECK failed");
}

}  // namespace
}  // namespace lrpc
