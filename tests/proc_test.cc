// The multi-process backend (src/proc, docs/multiprocess.md): real forked
// server domains, shared-mmap argument windows behind futex doorbells, and
// the death detection and collection that turn a SIGKILLed peer into
// kPeerDied/kCallFailed instead of a hang.
//
// Every test skips cleanly when the sandbox forbids fork.

#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/lrpc/async_call.h"
#include "src/lrpc/chaos_testbed.h"
#include "src/lrpc/supervised_call.h"
#include "src/proc/futex_doorbell.h"
#include "src/proc/proc_host.h"
#include "src/proc/proc_segment.h"
#include "src/proc/proc_world.h"

// Every allocation through the global operator new in this binary, counted
// so a test can ask a forked server how many allocations it has made: after
// fork the child counts its own. The deletes are replaced with them, so
// every pointer these news return goes back to free().
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  // LRPC_MO(stat-counter)
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lrpc {
namespace {

#define SKIP_WITHOUT_FORK()                                       \
  do {                                                            \
    if (!ProcHost::ForkPermitted()) {                             \
      GTEST_SKIP() << "fork is not permitted in this sandbox";    \
    }                                                             \
  } while (false)

// One forked server exporting the given procedures, for the tests whose
// procedures ProcWorld does not export. It is put together the way
// ProcWorld is: export, spawn the server, import, and a client thread
// running in the client domain.
struct CustomProcWorld {
  explicit CustomProcWorld(std::vector<ProcedureDef> procedures) {
    server = kernel.CreateDomain({.name = "custom.server"});
    client = kernel.CreateDomain({.name = "custom.client"});
    Interface* iface = runtime.CreateInterface(server, "custom.Procedures");
    for (ProcedureDef& def : procedures) {
      (void)iface->AddProcedure(std::move(def));
    }
    LRPC_CHECK_OK(runtime.Export(iface));
    spawn = host.SpawnServer(server, iface);
    Result<ClientBinding*> bound = runtime.Import(cpu(), client, iface->name());
    LRPC_CHECK(bound.ok());
    binding = *bound;
    thread = kernel.CreateThread(client);
    cpu().LoadContext(kernel.domain(client).vm_context());
    kernel.thread(thread).set_current_domain(client);
  }

  Processor& cpu() { return machine.processor(0); }
  const ProcedureDef& def(int procedure) const {
    return *binding->interface_spec()->pd(procedure).def;
  }
  Status Call(int procedure, std::span<const CallArg> args,
              std::span<const CallRet> rets) {
    return runtime.Call(cpu(), thread, *binding, procedure, args, rets);
  }

  Machine machine{MachineModel::CVaxFirefly(), 1};
  Kernel kernel{machine};
  LrpcRuntime runtime{kernel, RuntimeBackend::kMultiProcess};
  ProcHost host{runtime};  // After runtime: destroyed first.
  DomainId server = kNoDomain;
  DomainId client = kNoDomain;
  ThreadId thread = kNoThread;
  ClientBinding* binding = nullptr;
  Status spawn;
};

ProcedureDef NullDef() {
  ProcedureDef def;
  def.name = "Null";
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  return def;
}

ProcedureDef AddDef() {
  ProcedureDef def;
  def.name = "Add";
  def.params = {{.name = "a", .direction = ParamDirection::kIn, .size = 4},
                {.name = "b", .direction = ParamDirection::kIn, .size = 4},
                {.name = "sum", .direction = ParamDirection::kOut, .size = 4}};
  def.handler = [](ServerFrame& frame) -> Status {
    Result<std::int32_t> a = frame.Arg<std::int32_t>(0);
    Result<std::int32_t> b = frame.Arg<std::int32_t>(1);
    if (!a.ok() || !b.ok()) {
      return Status(ErrorCode::kInvalidArgument);
    }
    return frame.Result_<std::int32_t>(2, *a + *b);
  };
  return def;
}

// --- The backend executes calls in a real server process. ---

TEST(ProcBackendTest, NullCallRunsInTheServerProcess) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ASSERT_NE(world.host().peer_pid(world.server_domain()), -1);
  EXPECT_NE(world.host().peer_pid(world.server_domain()), getpid());

  // The client's processor keeps its clock but not the simulator's ledger
  // or TLB model.
  const Processor& cpu = world.cpu();
  for (int i = 0; i < 10; ++i) {
    const SimTime clock = cpu.clock();
    const SimDuration ledger = cpu.ledger().GrandTotal();
    const std::uint64_t tlb[] = {cpu.tlb().hit_count(), cpu.tlb().miss_count(),
                                 cpu.tlb().invalidation_count()};
    EXPECT_TRUE(world.CallNull().ok());
    EXPECT_GT(cpu.clock(), clock);
    EXPECT_EQ(cpu.ledger().GrandTotal(), ledger);
    EXPECT_EQ(cpu.tlb().hit_count(), tlb[0]);
    EXPECT_EQ(cpu.tlb().miss_count(), tlb[1]);
    EXPECT_EQ(cpu.tlb().invalidation_count(), tlb[2]);
  }
  // The shared-segment counter moved: the handler ran in the child. (A
  // parent-heap counter would stay 0 — fork copies, it does not share.)
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 10u);
  EXPECT_EQ(world.host().transfers(), 10u);
}

TEST(ProcBackendTest, AddCrossesTheChannelBothWays) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::int32_t sum = 0;
  ASSERT_TRUE(world.CallAdd(1200, 34, &sum).ok());
  EXPECT_EQ(sum, 1234);
  ASSERT_TRUE(world.CallAdd(-7, 7, &sum).ok());
  EXPECT_EQ(sum, 0);
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 2u);

  // A depth-16 ring outruns the bind-time A-stacks, so the binding grows
  // secondary regions (Section 5.2) into its free lists, and every one of
  // them is back on its list once the ring drains.
  ClientBinding& binding = world.binding();
  const int bind_time = binding.allocated_astacks();
  EXPECT_EQ(bind_time, 10);
  AsyncRing ring(world.runtime(), binding, world.client_thread(),
                 /*depth=*/16);
  std::int32_t lhs[16];
  std::int32_t rhs[16];
  std::int32_t sums[16] = {};
  for (int i = 0; i < 16; ++i) {
    lhs[i] = 1000 * i;
    rhs[i] = -i;
    const CallArg args[] = {CallArg::Of(lhs[i]), CallArg::Of(rhs[i])};
    const CallRet rets[] = {CallRet::Of(&sums[i])};
    ASSERT_TRUE(ring.Submit(world.cpu(), world.add_proc(), args, rets).ok());
  }
  ring.Drain(world.cpu());
  ASSERT_EQ(ring.results().size(), 16u);
  for (const AsyncCompletion& done : ring.results()) {
    EXPECT_TRUE(done.status.ok()) << ErrorCodeName(done.status.code());
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(sums[i], 999 * i);
  }
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 18u);
  EXPECT_GT(binding.allocated_astacks(), bind_time);

  std::vector<std::string> found;
  world.runtime().AuditAStacks(/*quiescent=*/true, found);
  EXPECT_TRUE(found.empty()) << (found.empty() ? "" : found.front());
  for (int group = 0; group < binding.free_list_count(); ++group) {
    EXPECT_EQ(static_cast<int>(binding.free_list(group).Snapshot().size()),
              binding.free_list(group).registered());
  }
}

// A handler that ran may not report a retryable status: SupervisedCall
// would read it as a failure before the server accepted the call and run
// the handler again. The handler counts its runs in MAP_SHARED memory, so
// a run in the forked server counts too.
TEST(ProcBackendTest, RetryableStatusFromAHandlerThatRanIsNotRetried) {
  for (const RuntimeBackend backend :
       {RuntimeBackend::kDeterministicSim, RuntimeBackend::kMultiProcess}) {
    const bool proc = backend == RuntimeBackend::kMultiProcess;
    if (proc && !ProcHost::ForkPermitted()) {
      continue;
    }
    SCOPED_TRACE(proc ? "proc" : "sim");
    ProcSegment shared;
    ASSERT_TRUE(shared.Map(sizeof(std::atomic<std::uint64_t>)).ok());
    auto* runs = new (shared.data()) std::atomic<std::uint64_t>(0);

    Machine machine(MachineModel::CVaxFirefly(), 1);
    Kernel kernel(machine);
    LrpcRuntime runtime(kernel, backend);
    std::unique_ptr<ProcHost> host;  // After runtime: destroyed first.
    if (proc) {
      host = std::make_unique<ProcHost>(runtime);
    }
    const DomainId server = kernel.CreateDomain({.name = "claims.server"});
    const DomainId client = kernel.CreateDomain({.name = "claims.client"});
    Interface* iface = runtime.CreateInterface(server, "claims.PeerDied");
    ProcedureDef def;
    def.name = "ClaimsPeerDied";
    def.handler = [runs](ServerFrame&) {
      // LRPC_MO(stat-counter)
      runs->fetch_add(1, std::memory_order_relaxed);
      return Status(ErrorCode::kPeerDied);
    };
    const int procedure = iface->AddProcedure(std::move(def));
    ASSERT_TRUE(runtime.Export(iface).ok());
    if (proc) {
      ASSERT_TRUE(host->SpawnServer(server, iface).ok());
    }
    Processor& cpu = machine.processor(0);
    Result<ClientBinding*> binding =
        runtime.Import(cpu, client, "claims.PeerDied");
    ASSERT_TRUE(binding.ok());
    const ThreadId thread = kernel.CreateThread(client);
    cpu.LoadContext(kernel.domain(client).vm_context());
    kernel.thread(thread).set_current_domain(client);

    SupervisedCall supervisor(runtime, SupervisionPolicy{}, /*seed=*/7);
    const SupervisionOutcome out =
        supervisor.Call(cpu, thread, *binding, procedure, {}, {});
    EXPECT_EQ(out.status.code(), ErrorCode::kCallFailed)
        << ErrorCodeName(out.status.code());
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(runs->load(std::memory_order_acquire), 1u);
  }
}

TEST(ProcBackendTest, BigInOutEchoesReversedThroughSharedMemory) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::uint8_t in[kBigSize];
  std::uint8_t out[kBigSize] = {};
  for (std::size_t i = 0; i < kBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  ASSERT_TRUE(world.CallBigInOut(in, out).ok());
  for (std::size_t i = 0; i < kBigSize; ++i) {
    ASSERT_EQ(out[i], in[kBigSize - 1 - i]) << "at " << i;
  }
  EXPECT_EQ(world.counters().bytes.load(std::memory_order_acquire),
            static_cast<std::uint64_t>(kBigSize));
}

TEST(ProcBackendTest, EachServerGetsItsOwnProcessAndChannel) {
  SKIP_WITHOUT_FORK();
  ProcWorld world(ProcWorld::Options{.servers = 3});
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::set<int> pids;
  for (int s = 0; s < world.servers(); ++s) {
    pids.insert(world.host().peer_pid(world.server_domain(s)));
    EXPECT_TRUE(world.CallNull(s).ok());
  }
  EXPECT_EQ(pids.size(), 3u);  // Three distinct real processes.
  EXPECT_EQ(world.host().live_endpoints(), 3u);
  EXPECT_EQ(world.host().mapped_segments(), 3u);
  for (int s = 0; s < world.servers(); ++s) {
    EXPECT_EQ(world.counters(s).calls.load(std::memory_order_acquire), 1u);
  }
}

TEST(ProcBackendTest, SpawnIsRefusedWithoutAMatchingExport) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  // A domain with no registered export must not be admitted.
  const DomainId rogue = world.kernel().CreateDomain({.name = "rogue"});
  Interface* iface = world.runtime().CreateInterface(rogue, "rogue.Iface");
  int null_proc = -1;
  ProcedureDef def;
  def.name = "Null";
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  null_proc = iface->AddProcedure(std::move(def));
  (void)null_proc;
  iface->Seal();
  const Status status = world.host().SpawnServer(rogue, iface);
  EXPECT_EQ(status.code(), ErrorCode::kNoSuchInterface);
}

// --- The arena's layout rule (ProcEntryLayout; no fork needed). ---

// The cache line of the channel that holds arena byte `offset`.
std::size_t LineOf(std::size_t offset) {
  return (offsetof(ProcChannel, payload) + offset) / kCacheLineSize;
}

// Every header position across two lines, every window length up to two
// lines: a window that fits the rest of its header's line sits right behind
// the header on that line; any other starts the next line.
TEST(ProcChannelLayoutTest, AWindowSharesItsHeadersLineOnlyWhenItFits) {
  for (std::size_t header = 0; header < 2 * kCacheLineSize;
       header += alignof(ProcEntry)) {
    const std::size_t behind = header + sizeof(ProcEntry);
    const std::size_t line_left =
        (LineOf(behind - 1) + 1) * kCacheLineSize -
        (offsetof(ProcChannel, payload) + behind);
    for (std::size_t len = 0; len <= 2 * kCacheLineSize + 1; ++len) {
      SCOPED_TRACE(testing::Message()
                   << "header " << header << ", len " << len);
      const ProcEntrySpan span = ProcEntryLayout(header, len);
      if (len <= line_left) {
        EXPECT_EQ(span.window, behind);
        if (len > 0) {
          EXPECT_EQ(LineOf(span.window + len - 1), LineOf(behind - 1));
        }
      } else {
        EXPECT_EQ((offsetof(ProcChannel, payload) + span.window) %
                      kCacheLineSize,
                  0u);
        EXPECT_EQ(LineOf(span.window), LineOf(behind - 1) + 1);
      }
      EXPECT_GE(span.next, span.window + len);
      EXPECT_LT(span.next, span.window + len + alignof(ProcEntry));
      EXPECT_EQ(span.next % alignof(ProcEntry), 0u);
    }
  }
}

// Seeded batches of up to 16 windows of up to kProcPayloadBytes: no two
// entries overlap, and every batch ends inside the arena; 16 windows of
// 4096 bytes do too.
TEST(ProcChannelLayoutTest, EntriesNeverOverlapAndFullBatchesFitTheArena) {
  Rng rng(104729);
  for (int batch = 0; batch < 2000; ++batch) {
    std::size_t header = 0;
    std::size_t end = 0;  // Where the previous entry's bytes end.
    const std::size_t entries = 1 + rng.Next() % kProcBatchMax;
    for (std::size_t i = 0; i < entries; ++i) {
      const std::size_t len = rng.Next() % 2 == 0
                                  ? rng.Next() % kCacheLineSize
                                  : rng.Next() % (kProcPayloadBytes + 1);
      const ProcEntrySpan span = ProcEntryLayout(header, len);
      ASSERT_GE(header, end) << "batch " << batch << ", entry " << i;
      ASSERT_GE(span.window, header + sizeof(ProcEntry));
      end = span.window + len;
      header = span.next;
    }
    ASSERT_LE(end, kProcArenaBytes) << "batch " << batch;
  }

  std::size_t header = 0;
  std::size_t end = 0;
  for (std::uint32_t i = 0; i < kProcBatchMax; ++i) {
    const ProcEntrySpan span = ProcEntryLayout(header, kProcPayloadBytes);
    end = span.window + kProcPayloadBytes;
    header = span.next;
  }
  EXPECT_LE(end, kProcArenaBytes);
}

// --- The server checks the window length it reads from shared memory. ---

// Through either entry point, a full channel window sent to a procedure
// with a smaller A-stack is refused by the server, which neither copies it
// into its scratch A-stack nor runs the handler, and keeps serving.
TEST(ProcBackendTest, OversizedWindowIsRejectedAndTheServerSurvives) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::vector<std::uint8_t> window(kProcPayloadBytes, 0xab);
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "ExecuteBatch" : "Execute");
    ProcTransport::BatchCall call;
    call.procedure = world.add_proc();
    call.window = window.data();
    call.window_len = window.size();
    if (batch) {
      const std::span<ProcTransport::BatchCall> calls(&call, 1);
      ASSERT_TRUE(world.host()
                      .ExecuteBatch(world.server_domain(),
                                    world.client_domain(), calls,
                                    ProcTransport::KillPhase::kNone)
                      .ok());
    } else {
      call.leg = world.host().Execute(
          world.server_domain(), world.client_domain(), call.procedure,
          call.inline_window, call.window, call.window_len,
          &call.handler_status, ProcTransport::KillPhase::kNone);
    }
    ASSERT_TRUE(call.leg.ok()) << ErrorCodeName(call.leg.code());
    EXPECT_EQ(call.handler_status.code(), ErrorCode::kInvalidArgument);

    std::int32_t sum = 0;
    ASSERT_TRUE(world.CallAdd(1200, 34, &sum).ok());
    EXPECT_EQ(sum, 1234);
  }
  // Only the two Adds reached a handler.
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 2u);
}

// The server accepts only the exact window an honest client sends
// (LrpcRuntime::ProcCallOf): a shorter one would run the handler on a
// reused scratch A-stack that still holds an earlier call's bytes.
TEST(ProcBackendTest, ShortWindowIsRejectedAndTheServerSurvives) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  std::int32_t sum = 0;
  ASSERT_TRUE(world.CallAdd(1200, 34, &sum).ok());
  std::uint8_t window[4] = {1, 2, 3, 4};
  Status handler_status;
  const Status leg = world.host().Execute(
      world.server_domain(), world.client_domain(), world.add_proc(),
      /*inline_window=*/false, window, sizeof(window), &handler_status,
      ProcTransport::KillPhase::kNone);
  ASSERT_TRUE(leg.ok()) << ErrorCodeName(leg.code());
  EXPECT_EQ(handler_status.code(), ErrorCode::kInvalidArgument);

  ASSERT_TRUE(world.CallAdd(-34, 1234, &sum).ok());
  EXPECT_EQ(sum, 1200);
  // The rejected window never reached the handler.
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 2u);
}

// One entry of a batch a hostile client writes straight into the channel.
struct ForgedEntry {
  int procedure;
  std::uint32_t window_len;
};

// Writes `batch` into `ch`, as a hostile client process could, and rings
// it without waiting. Returns the return doorbell's value before the ring.
std::uint32_t PublishForgedBatch(ProcChannel* ch, DomainId client,
                                 std::span<const ForgedEntry> batch) {
  ch->die_mode = kProcDieNone;
  ch->client_domain = static_cast<std::int32_t>(client);
  ch->batch_count = static_cast<std::uint32_t>(batch.size());
  std::size_t header = 0;
  for (const ForgedEntry& forged : batch) {
    if (header > kProcArenaBytes - sizeof(ProcEntry)) {
      break;
    }
    ProcEntry& entry = ch->entry(header);
    entry.procedure = forged.procedure;
    entry.inline_window = 0;
    entry.window_len = forged.window_len;
    // LRPC_MO(pre-publish-reset)
    entry.status.store(kProcPending, std::memory_order_relaxed);
    header = ProcEntryLayout(header, forged.window_len).next;
  }
  const std::uint32_t before = ch->return_seq.load(std::memory_order_acquire);
  ch->call_seq.fetch_add(1, std::memory_order_seq_cst);
  FutexDoorbell::Wake(&ch->call_seq, &ch->call_sleepers);
  return before;
}

// Publishes `batch` into `world`'s channel and waits for the server.
// Returns the return doorbell's value, or the old one if the server never
// rang back.
std::uint32_t RingForgedBatch(ProcWorld& world,
                              std::span<const ForgedEntry> batch) {
  ProcChannel* ch = world.host().channel(world.server_domain());
  const std::uint32_t before =
      PublishForgedBatch(ch, world.client_domain(), batch);
  std::uint32_t now = before;
  for (int waited_ms = 0; now == before && waited_ms < 2000; waited_ms += 50) {
    now = FutexDoorbell::WaitWhile(&ch->return_seq, &ch->return_sleepers,
                                   before, 50);
  }
  return now;
}

// The entries of a forged batch that the server's walk reaches: those whose
// header lies in the arena behind windows that all end inside it. Each must
// read kInvalidArgument. Returns how many there were.
std::size_t ExpectReachedEntriesRefused(ProcChannel* ch,
                                        std::span<const ForgedEntry> batch) {
  std::size_t reached = 0;
  std::size_t header = 0;
  for (const ForgedEntry& forged : batch) {
    if (header > kProcArenaBytes - sizeof(ProcEntry)) {
      break;
    }
    ++reached;
    EXPECT_EQ(ch->entry(header).status.load(std::memory_order_acquire),
              1 + static_cast<std::uint32_t>(ErrorCode::kInvalidArgument))
        << "entry " << reached - 1 << ", window_len " << forged.window_len;
    const ProcEntrySpan span = ProcEntryLayout(header, forged.window_len);
    if (span.window > kProcArenaBytes ||
        forged.window_len > kProcArenaBytes - span.window) {
      break;
    }
    header = span.next;
  }
  return reached;
}

// Window lengths the client writes cannot walk the server out of its
// arena. Forged batches of hostile lengths, of 16 entries that run past the
// arena's end, and of an exact BigInOut window that the line rule pushes
// past the end, are refused entry by entry without running a handler; the
// server still rings back and then serves an Add.
TEST(ProcBackendTest, ForgedWindowLengthsStayInsideTheArena) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ProcChannel* ch = world.host().channel(world.server_domain());
  ASSERT_NE(ch, nullptr);
  const int null_proc = world.null_proc();
  const int big_proc = world.biginout_proc();
  const auto big_window = static_cast<std::uint32_t>(
      world.binding().interface_spec()->pd(big_proc).window_bytes);
  ASSERT_EQ(big_window, 400u);

  std::vector<ForgedEntry> hostile;
  for (const std::uint32_t len : {0u, 24u, 25u, 4096u, 4097u, 0xFFFFFFFFu}) {
    hostile.push_back({null_proc, len});
  }
  const std::vector<ForgedEntry> past_the_end(
      kProcBatchMax,
      ForgedEntry{null_proc, static_cast<std::uint32_t>(kProcArenaBytes / 4)});
  // A first entry whose window ends where the second entry's header must
  // sit; its own window starts the line after the hot line.
  auto filler_to = [null_proc](std::size_t header) {
    const std::size_t window = ProcEntryLayout(0, kProcPayloadBytes).window;
    return ForgedEntry{null_proc, static_cast<std::uint32_t>(header - window)};
  };
  // An exact BigInOut window whose header fits, but which the line rule
  // pushes past the arena's end: 400 bytes behind the header would end at
  // the arena's last byte, and the start of the next line, or the arena's
  // end itself, lies beyond it.
  const std::vector<ForgedEntry> pushed_past = {
      filler_to(kProcArenaBytes - sizeof(ProcEntry) - big_window),
      {big_proc, big_window}};
  const std::vector<ForgedEntry> pushed_beyond = {
      filler_to(kProcArenaBytes - sizeof(ProcEntry)), {big_proc, big_window}};
  ASSERT_GT(ProcEntryLayout(kProcArenaBytes - sizeof(ProcEntry) - big_window,
                            big_window)
                .window,
            kProcArenaBytes - sizeof(ProcEntry) - big_window +
                sizeof(ProcEntry));
  ASSERT_GT(ProcEntryLayout(kProcArenaBytes - sizeof(ProcEntry), big_window)
                .window,
            kProcArenaBytes);

  struct Case {
    const char* name;
    const std::vector<ForgedEntry>* batch;
    std::size_t reached;
  } cases[] = {{"hostile lengths", &hostile, hostile.size()},
               // The fourth window runs past the arena's end.
               {"16 entries past the end", &past_the_end, 4},
               {"window pushed past the end", &pushed_past, 2},
               {"window pushed beyond the end", &pushed_beyond, 2}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::uint32_t returned =
        ch->return_seq.load(std::memory_order_acquire);
    ASSERT_NE(RingForgedBatch(world, *c.batch), returned);
    EXPECT_EQ(ExpectReachedEntriesRefused(ch, *c.batch), c.reached);
  }

  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 0u);
  std::int32_t sum = 0;
  ASSERT_TRUE(world.CallAdd(1200, 34, &sum).ok());
  EXPECT_EQ(sum, 1234);
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 1u);
}

// The server reads the batch header once: entry 0's handler rewrites the
// channel's client_domain, standing in for a client process writing it
// mid-batch, and entry 1's handler still sees the batch's client.
TEST(ProcBackendTest, ClientDomainIsReadOncePerBatch) {
  SKIP_WITHOUT_FORK();
  struct Shared {
    std::atomic<ProcChannel*> channel{nullptr};
    std::atomic<std::int32_t> seen_client{-1};
  };
  ProcSegment segment;
  ASSERT_TRUE(segment.Map(sizeof(Shared)).ok());
  auto* shared = new (segment.data()) Shared();
  constexpr std::int32_t kRewritten = 999;

  ProcedureDef rewrite;
  rewrite.name = "RewriteClient";
  rewrite.handler = [shared](ServerFrame&) {
    shared->channel.load(std::memory_order_acquire)->client_domain = kRewritten;
    return Status::Ok();
  };
  ProcedureDef record;
  record.name = "RecordClient";
  record.handler = [shared](ServerFrame& frame) {
    shared->seen_client.store(static_cast<std::int32_t>(frame.client_domain()),
                              std::memory_order_release);
    return Status::Ok();
  };
  CustomProcWorld world({std::move(rewrite), std::move(record)});
  ASSERT_TRUE(world.spawn.ok()) << world.spawn.detail();
  ProcChannel* channel = world.host.channel(world.server);
  ASSERT_NE(channel, nullptr);
  shared->channel.store(channel, std::memory_order_release);
  ASSERT_NE(static_cast<std::int32_t>(world.client), kRewritten);

  const std::size_t window =
      world.binding->interface_spec()->pd(0).window_bytes;
  std::vector<std::uint8_t> windows(2 * window);
  ProcTransport::BatchCall calls[2];
  for (std::size_t i = 0; i < 2; ++i) {
    calls[i].procedure = static_cast<int>(i);
    calls[i].window = windows.data() + i * window;
    calls[i].window_len = window;
  }
  ASSERT_TRUE(world.host
                  .ExecuteBatch(world.server, world.client,
                                std::span<ProcTransport::BatchCall>(calls),
                                ProcTransport::KillPhase::kNone)
                  .ok());
  for (const ProcTransport::BatchCall& call : calls) {
    ASSERT_TRUE(call.leg.ok()) << ErrorCodeName(call.leg.code());
    EXPECT_TRUE(call.handler_status.ok());
  }
  EXPECT_EQ(channel->client_domain, kRewritten);
  EXPECT_EQ(shared->seen_client.load(std::memory_order_acquire),
            static_cast<std::int32_t>(world.client));
}

// The server reads an inline call's window once, into its own register
// window: a handler that reads its argument, waits while a client thread
// rewrites the channel window, and reads the argument again sees one value.
TEST(ProcBackendTest, InlineWindowIsReadOnceByTheServer) {
  SKIP_WITHOUT_FORK();
  struct Shared {
    std::atomic<std::uint32_t> first_read{0};
    std::atomic<std::uint32_t> rewritten{0};
    std::atomic<std::int32_t> reads[2];
  };
  ProcSegment segment;
  ASSERT_TRUE(segment.Map(sizeof(Shared)).ok());
  auto* shared = new (segment.data()) Shared();

  ProcedureDef def;
  def.name = "ReadTwice";
  def.params = {{.name = "a", .direction = ParamDirection::kIn, .size = 4}};
  def.handler = [shared](ServerFrame& frame) -> Status {
    const Result<std::int32_t> first = frame.Arg<std::int32_t>(0);
    shared->first_read.store(1, std::memory_order_release);
    for (int waited_ms = 0;
         shared->rewritten.load(std::memory_order_acquire) == 0 &&
         waited_ms < 2000;
         ++waited_ms) {
      usleep(1000);
    }
    const Result<std::int32_t> second = frame.Arg<std::int32_t>(0);
    shared->reads[0].store(first.ok() ? *first : -1);
    shared->reads[1].store(second.ok() ? *second : -1);
    // The reads travel back through `shared`, and the call fails, so the
    // client copies no result bytes out of the window the rewriting thread
    // wrote: the two client threads are ordered only through the server
    // process, which ThreadSanitizer cannot see.
    return Status(ErrorCode::kUnimplemented);
  };
  CustomProcWorld world({std::move(def)});
  ASSERT_TRUE(world.spawn.ok()) << world.spawn.detail();
  ASSERT_TRUE(world.binding->interface_spec()->pd(0).inline_eligible);
  ProcChannel* channel = world.host.channel(world.server);
  ASSERT_NE(channel, nullptr);
  const std::size_t a_at = ParamOffset(world.def(0), 0);
  const ProcEntrySpan entry0 = ProcEntryLayout(
      0, world.binding->interface_spec()->pd(0).slot_span);

  std::thread rewriter([shared, channel, a_at, entry0] {
    for (int waited_ms = 0;
         shared->first_read.load(std::memory_order_acquire) == 0 &&
         waited_ms < 2000;
         ++waited_ms) {
      usleep(1000);
    }
    // The client published the window before the handler could read it;
    // this load orders the rewrite after the client's own write.
    (void)channel->call_seq.load(std::memory_order_acquire);
    const std::int32_t rewrite = 222;
    std::memcpy(channel->window(entry0) + a_at, &rewrite, sizeof(rewrite));
    shared->rewritten.store(1, std::memory_order_release);
  });
  std::uint8_t block[kInlineSlotSpanLimit] = {};
  const std::int32_t a = 111;
  std::memcpy(block + a_at, &a, sizeof(a));
  const Status status = world.runtime.CallInline(
      world.cpu(), world.thread, *world.binding, 0, block, block);
  rewriter.join();
  EXPECT_EQ(status.code(), ErrorCode::kUnimplemented)
      << ErrorCodeName(status.code());
  ASSERT_EQ(shared->rewritten.load(), 1u);
  EXPECT_EQ(shared->reads[0].load(), 111);
  EXPECT_EQ(shared->reads[1].load(), 111);
}

// The server builds one scratch A-stack per procedure before it serves and
// reuses it for every call: a seeded mix of general Adds, inline Adds and
// BigInOuts through one server must each come back right.
TEST(ProcBackendTest, ReusedScratchAStacksServeSeededMixedCalls) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  const ProcedureDescriptor& add =
      world.binding().interface_spec()->pd(world.add_proc());
  ASSERT_TRUE(add.inline_eligible);
  const std::size_t a_at = ParamOffset(*add.def, 0);
  const std::size_t b_at = ParamOffset(*add.def, 1);
  const std::size_t sum_at = ParamOffset(*add.def, 2);

  Rng rng(104729);
  constexpr int kCalls = 300;
  for (int i = 0; i < kCalls; ++i) {
    const auto a = static_cast<std::int32_t>(rng.Next());
    const auto b = static_cast<std::int32_t>(rng.Next());
    const auto want = static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                                static_cast<std::uint32_t>(b));
    switch (rng.Next() % 3) {
      case 0: {
        std::int32_t sum = 0;
        ASSERT_TRUE(world.CallAdd(a, b, &sum).ok()) << "call " << i;
        EXPECT_EQ(sum, want) << "call " << i;
        break;
      }
      case 1: {
        std::uint8_t block[kInlineSlotSpanLimit] = {};
        std::memcpy(block + a_at, &a, sizeof(a));
        std::memcpy(block + b_at, &b, sizeof(b));
        ASSERT_TRUE(world.runtime()
                        .CallInline(world.cpu(), world.client_thread(),
                                    world.binding(), world.add_proc(), block,
                                    block)
                        .ok())
            << "call " << i;
        std::int32_t sum = 0;
        std::memcpy(&sum, block + sum_at, sizeof(sum));
        EXPECT_EQ(sum, want) << "call " << i;
        break;
      }
      default: {
        std::uint8_t in[kBigSize];
        std::uint8_t out[kBigSize] = {};
        for (std::uint8_t& byte : in) {
          byte = static_cast<std::uint8_t>(rng.Next());
        }
        ASSERT_TRUE(world.CallBigInOut(in, out).ok()) << "call " << i;
        for (std::size_t j = 0; j < kBigSize; ++j) {
          ASSERT_EQ(out[j], in[kBigSize - 1 - j]) << "call " << i;
        }
        break;
      }
    }
  }
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire),
            static_cast<std::uint64_t>(kCalls));
}

// Neither the forked server's serve loop nor its server frames allocate:
// across 1000 calls of Null, Add, inline Add and BigInOut, the number of
// operator new calls the server process has made does not move.
TEST(ProcBackendTest, TheServerProcessAllocatesNothingPerCall) {
  SKIP_WITHOUT_FORK();
  ProcedureDef big;
  big.name = "BigInOut";
  big.params = {{.name = "in", .direction = ParamDirection::kIn,
                 .size = kBigSize},
                {.name = "out", .direction = ParamDirection::kOut,
                 .size = kBigSize}};
  big.handler = [](ServerFrame& frame) -> Status {
    std::uint8_t buffer[kBigSize];
    Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
    if (!n.ok()) {
      return n.status();
    }
    std::reverse(buffer, buffer + kBigSize);
    return frame.WriteResult(1, buffer, kBigSize);
  };
  ProcedureDef allocations;
  allocations.name = "Allocations";
  allocations.params = {{.name = "count", .direction = ParamDirection::kOut,
                         .size = sizeof(std::uint64_t)}};
  allocations.handler = [](ServerFrame& frame) {
    // LRPC_MO(stat-counter)
    return frame.Result_<std::uint64_t>(
        0, g_allocations.load(std::memory_order_relaxed));
  };
  CustomProcWorld world(
      {NullDef(), AddDef(), std::move(big), std::move(allocations)});
  ASSERT_TRUE(world.spawn.ok()) << world.spawn.detail();
  constexpr int kNull = 0;
  constexpr int kAdd = 1;
  constexpr int kBig = 2;
  constexpr int kAllocations = 3;
  ASSERT_TRUE(world.binding->interface_spec()->pd(kAdd).inline_eligible);
  auto server_allocations = [&world] {
    std::uint64_t count = 0;
    const CallRet rets[] = {CallRet::Of(&count)};
    EXPECT_TRUE(world.Call(kAllocations, {}, rets).ok());
    return count;
  };

  const std::uint64_t before = server_allocations();
  const std::size_t a_at = ParamOffset(world.def(kAdd), 0);
  const std::size_t b_at = ParamOffset(world.def(kAdd), 1);
  const std::size_t sum_at = ParamOffset(world.def(kAdd), 2);
  std::uint8_t in[kBigSize];
  std::uint8_t out[kBigSize];
  for (std::int32_t i = 0; i < 250; ++i) {
    ASSERT_TRUE(world.Call(kNull, {}, {}).ok());

    std::int32_t sum = 0;
    const CallArg args[] = {CallArg::Of(i), CallArg::Of(i)};
    const CallRet rets[] = {CallRet::Of(&sum)};
    ASSERT_TRUE(world.Call(kAdd, args, rets).ok());
    ASSERT_EQ(sum, 2 * i);

    std::uint8_t block[kInlineSlotSpanLimit] = {};
    const std::int32_t minus = -i;
    std::memcpy(block + a_at, &i, sizeof(i));
    std::memcpy(block + b_at, &minus, sizeof(minus));
    ASSERT_TRUE(world.runtime
                    .CallInline(world.cpu(), world.thread, *world.binding,
                                kAdd, block, block)
                    .ok());
    std::memcpy(&sum, block + sum_at, sizeof(sum));
    ASSERT_EQ(sum, 0);

    std::fill(std::begin(in), std::end(in), static_cast<std::uint8_t>(i));
    in[0] = 0xff;
    const CallArg big_args[] = {CallArg(in, kBigSize)};
    const CallRet big_rets[] = {CallRet(out, kBigSize)};
    ASSERT_TRUE(world.Call(kBig, big_args, big_rets).ok());
    ASSERT_EQ(out[kBigSize - 1], 0xff);
  }
  EXPECT_EQ(server_allocations(), before);
}

// The in-process server leg does not allocate either: on the simulator a
// whole call of Null, Add, inline Add or BigInOut makes no operator new
// call. (The count lives in this binary, so the test does too.)
TEST(ServerFrameTest, InProcessCallsAllocateNothing) {
  Testbed bed;
  const ProcedureDescriptor& add = bed.interface_spec()->pd(bed.add_proc());
  ASSERT_TRUE(add.inline_eligible);
  const std::size_t a_at = ParamOffset(*add.def, 0);
  const std::size_t sum_at = ParamOffset(*add.def, 2);
  std::uint8_t in[kBigSize] = {};
  std::uint8_t out[kBigSize];
  auto round = [&](std::int32_t i) {
    std::int32_t sum = 0;
    ASSERT_TRUE(bed.CallNull().ok());
    ASSERT_TRUE(bed.CallAdd(i, i, &sum).ok());
    ASSERT_EQ(sum, 2 * i);
    std::uint8_t block[kInlineSlotSpanLimit] = {};
    std::memcpy(block + a_at, &i, sizeof(i));
    ASSERT_TRUE(bed.runtime()
                    .CallInline(bed.cpu(), bed.client_thread(), bed.binding(),
                                bed.add_proc(), block, block)
                    .ok());
    std::memcpy(&sum, block + sum_at, sizeof(sum));
    ASSERT_EQ(sum, i);
    in[0] = static_cast<std::uint8_t>(i);
    ASSERT_TRUE(bed.CallBigInOut(in, out).ok());
    ASSERT_EQ(out[kBigSize - 1], in[0]);
  };
  round(0);  // Lazy set-up, such as the first E-stack, happens here.
  // LRPC_MO(stat-counter)
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::int32_t i = 1; i <= 250; ++i) {
    round(i);
  }
  // LRPC_MO(stat-counter)
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

// A call the channel cannot carry — a window over kProcPayloadBytes, or a
// variable argument spilled out of band (Section 5.2) — is refused by the
// kernel call leg on both drivers and never runs its handler in the client
// process: a counter on the client's heap, which only a handler running in
// the client could move, stays 0, and so does the server's shared counter.
// A raw SIGKILL of the server, before its corpse is collected, changes
// nothing about the refusal.
TEST(ProcBackendTest, CallsTheChannelCannotCarryAreRefusedNotRunInTheClient) {
  SKIP_WITHOUT_FORK();
  ProcSegment segment;
  ASSERT_TRUE(segment.Map(sizeof(std::atomic<std::uint64_t>)).ok());
  auto* server_runs = new (segment.data()) std::atomic<std::uint64_t>(0);
  auto client_runs = std::make_unique<std::uint64_t>(0);
  const ServerProc counted = [server_runs,
                              client = client_runs.get()](ServerFrame&) {
    ++*client;
    // LRPC_MO(stat-counter)
    server_runs->fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  };
  ProcedureDef big;
  big.name = "Big";
  big.params = {{.name = "blob", .direction = ParamDirection::kIn,
                 .size = 5000}};
  big.handler = counted;
  ProcedureDef spilled;
  spilled.name = "Spilled";
  spilled.params = {{.name = "bytes", .direction = ParamDirection::kIn,
                     .size = 0, .max_size = 16}};
  spilled.handler = counted;
  CustomProcWorld world({AddDef(), std::move(big), std::move(spilled)});
  ASSERT_TRUE(world.spawn.ok()) << world.spawn.detail();
  constexpr int kAdd = 0;
  constexpr int kBig = 1;
  constexpr int kSpilled = 2;
  ASSERT_GT(world.binding->interface_spec()->pd(kBig).astack_size,
            kProcPayloadBytes);

  std::vector<std::uint8_t> blob(5000, 0x5a);
  std::vector<std::uint8_t> bytes(100, 0xa5);
  const CallArg big_args[] = {CallArg(blob.data(), blob.size())};
  const CallArg spilled_args[] = {CallArg(bytes.data(), bytes.size())};
  EXPECT_EQ(world.Call(kBig, big_args, {}).code(), ErrorCode::kMessageTooLarge);
  EXPECT_EQ(world.Call(kSpilled, spilled_args, {}).code(),
            ErrorCode::kMessageTooLarge);
  EXPECT_EQ(world.runtime.LiveOobSegments(), 0u);

  // The async driver refuses the same call in its flush and still ships
  // the rest of the batch.
  std::int32_t sum = 0;
  const std::int32_t a = 1200;
  const std::int32_t b = 34;
  const CallArg add_args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet add_rets[] = {CallRet::Of(&sum)};
  AsyncRing ring(world.runtime, *world.binding, world.thread, /*depth=*/2);
  ASSERT_TRUE(ring.Submit(world.cpu(), kBig, big_args, {}).ok());
  ASSERT_TRUE(ring.Submit(world.cpu(), kAdd, add_args, add_rets).ok());
  ring.Drain(world.cpu());
  ASSERT_EQ(ring.results().size(), 2u);
  EXPECT_EQ(ring.results()[0].status.code(), ErrorCode::kMessageTooLarge);
  EXPECT_TRUE(ring.results()[1].status.ok());
  EXPECT_EQ(sum, 1234);

  EXPECT_EQ(*client_runs, 0u);
  EXPECT_EQ(server_runs->load(std::memory_order_acquire), 0u);
  sum = 0;
  ASSERT_TRUE(world.Call(kAdd, add_args, add_rets).ok());
  EXPECT_EQ(sum, 1234);
  EXPECT_EQ(world.host.transfers(), 2u);  // The flush and the Add.

  ASSERT_TRUE(world.host.KillPeer(world.server).ok());
  EXPECT_EQ(world.Call(kBig, big_args, {}).code(), ErrorCode::kMessageTooLarge);
  EXPECT_EQ(*client_runs, 0u);
  EXPECT_EQ(server_runs->load(std::memory_order_acquire), 0u);
  std::vector<std::string> found;
  world.runtime.AuditAStacks(/*quiescent=*/true, found);
  EXPECT_TRUE(found.empty()) << (found.empty() ? "" : found.front());
}

// Domain caching (Section 3.4) is the simulator's alone: a proc call
// switches contexts on both legs, never looks for an idle processor, and so
// records no idle miss against either domain.
TEST(ProcBackendTest, HostCallsNeitherExchangeNorCountIdleMisses) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ASSERT_TRUE(world.kernel().domain_caching());
  const ProcedureDescriptor& add =
      world.binding().interface_spec()->pd(world.add_proc());
  ASSERT_TRUE(add.inline_eligible);

  for (int i = 0; i < 10; ++i) {
    CallStats null_stats;
    ASSERT_TRUE(world.CallNull(/*server=*/0, &null_stats).ok());
    CallStats add_stats;
    std::int32_t sum = 0;
    ASSERT_TRUE(world.CallAdd(i, 1000, &sum, /*server=*/0, &add_stats).ok());
    EXPECT_EQ(sum, i + 1000);
    CallStats inline_stats;
    std::uint8_t block[kInlineSlotSpanLimit] = {};
    const std::int32_t a = i;
    const std::int32_t b = -7;
    std::memcpy(block + ParamOffset(*add.def, 0), &a, sizeof(a));
    std::memcpy(block + ParamOffset(*add.def, 1), &b, sizeof(b));
    ASSERT_TRUE(world.runtime()
                    .CallInline(world.cpu(), world.client_thread(),
                                world.binding(), world.add_proc(), block,
                                block, &inline_stats)
                    .ok());
    std::memcpy(&sum, block + ParamOffset(*add.def, 2), sizeof(sum));
    EXPECT_EQ(sum, i - 7);
    for (const CallStats* stats : {&null_stats, &add_stats, &inline_stats}) {
      EXPECT_FALSE(stats->exchanged_on_call) << "call " << i;
      EXPECT_FALSE(stats->exchanged_on_return) << "call " << i;
    }
  }
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 30u);
  for (const DomainId domain : {world.server_domain(), world.client_domain()}) {
    EXPECT_EQ(world.machine().idle_misses(
                  world.kernel().domain(domain).vm_context()),
              0u);
  }
}

// --- Peer death: detection, status split, collection, reclamation. ---

TEST(ProcDeathTest, OutOfCallKillIsSeenBySupervisorAndCollected) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ASSERT_TRUE(world.CallNull().ok());

  ASSERT_TRUE(world.host().KillPeer(world.server_domain()).ok());

  // The waitpid sweep notices without any call in flight.
  std::vector<DomainId> dead;
  for (int spins = 0; spins < 500 && dead.empty(); ++spins) {
    dead = world.host().PollDeaths();
    if (dead.empty()) {
      usleep(2000);
    }
  }
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], world.server_domain());

  // Collection runs the §5.3 collector against the corpse: bindings
  // revoked, segments reclaimed.
  EXPECT_EQ(world.host().CollectDead(), 1);
  EXPECT_EQ(world.host().live_endpoints(), 0u);
  EXPECT_EQ(world.host().mapped_segments(), 0u);
  EXPECT_FALSE(world.kernel().domain(world.server_domain()).alive());

  // Calls on the revoked binding fail with the documented revocation.
  EXPECT_EQ(world.CallNull().code(), ErrorCode::kRevokedBinding);
}

TEST(ProcDeathTest, DeathDuringACallYieldsPeerDiedAndNeverHangs) {
  SKIP_WITHOUT_FORK();
  ProcWorld::Options options;
  options.host.call_deadline_ms = 2000;
  ProcWorld world(options);
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // Kill the peer, then call before any sweep ran: Execute's own liveness
  // check must detect the corpse and fail pre-accept.
  ASSERT_TRUE(world.host().KillPeer(world.server_domain()).ok());
  const Status status = world.CallNull();
  EXPECT_EQ(status.code(), ErrorCode::kPeerDied);
  EXPECT_TRUE(IsRetryable(status.code()));

  // The death ran the collector; nothing is left mapped for that domain.
  EXPECT_EQ(world.host().mapped_segments(), 0u);
  EXPECT_FALSE(world.kernel().domain(world.server_domain()).alive());
}

TEST(ProcDeathTest, KernelEmitsPeerDeathEventOnCollection) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  struct Recorder : KernelEventListener {
    int peer_deaths = 0;
    int terminations = 0;
    void OnKernelEvent(Kernel&, KernelEventKind kind) override {
      if (kind == KernelEventKind::kPeerDeath) {
        ++peer_deaths;
      }
      if (kind == KernelEventKind::kTermination) {
        ++terminations;
      }
    }
  } recorder;
  world.kernel().set_event_listener(&recorder);

  ASSERT_TRUE(world.host().KillPeer(world.server_domain()).ok());
  EXPECT_EQ(world.CallNull().code(), ErrorCode::kPeerDied);
  // kPeerDeath fires after the collector's kTermination: the listener sees
  // a fully collected world.
  EXPECT_EQ(recorder.peer_deaths, 1);
  EXPECT_EQ(recorder.terminations, 1);
  world.kernel().set_event_listener(nullptr);
}

TEST(ProcDeathTest, SupervisedCallRetriesPastAPeerDeath) {
  SKIP_WITHOUT_FORK();
  // Two servers exporting distinct interfaces; kill one, then drive a
  // supervised call against it: kPeerDied is retryable, the retry hits the
  // revoked binding, and the supervisor rebinds or reports the documented
  // terminal status — never an undocumented one, never a hang.
  ProcWorld world(ProcWorld::Options{.servers = 2});
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  SupervisionPolicy policy;
  policy.retry.max_attempts = 3;
  SupervisedCall supervisor(world.runtime(), policy, /*seed=*/42);

  ASSERT_TRUE(world.host().KillPeer(world.server_domain(0)).ok());
  ClientBinding* binding = &world.binding(0);
  SupervisionOutcome out =
      supervisor.Call(world.cpu(), world.client_thread(), binding,
                      world.null_proc(), {}, {});
  // The first attempt sees kPeerDied (retryable); the server's export is
  // withdrawn by the collector, so the retry path ends in a documented
  // terminal code.
  EXPECT_NE(out.status.code(), ErrorCode::kPeerDied);
  const ErrorCode code = out.status.code();
  EXPECT_TRUE(code == ErrorCode::kRevokedBinding ||
              code == ErrorCode::kRetriesExhausted ||
              code == ErrorCode::kNoSuchInterface)
      << ErrorCodeName(code);
  EXPECT_GE(out.attempts, 2);

  // The sibling server is untouched.
  EXPECT_TRUE(world.CallNull(1).ok());
  EXPECT_EQ(world.host().live_endpoints(), 1u);
}

TEST(ProcDeathTest, GracefulShutdownReclaimsWithoutACollector) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();
  ASSERT_TRUE(world.CallNull().ok());
  ASSERT_TRUE(world.host().Shutdown(world.server_domain()).ok());
  // Shutdown leaves a dead-pending endpoint; the next call maps it to the
  // retryable pre-accept death and collects.
  EXPECT_EQ(world.CallNull().code(), ErrorCode::kPeerDied);
  EXPECT_EQ(world.host().mapped_segments(), 0u);
}

// A server leaves its serve loop for the shutdown flag only between
// batches. Shutdown of a server stuck in a 3 s handler SIGKILLs it after
// the grace, and reaps it, instead of waiting the handler out.
TEST(ProcDeathTest, ShutdownOfAServerStuckInAHandlerIsBounded) {
  SKIP_WITHOUT_FORK();
  ProcedureDef stuck;
  stuck.name = "Stuck";
  stuck.handler = [](ServerFrame&) {
    std::this_thread::sleep_for(std::chrono::seconds(3));
    return Status::Ok();
  };
  std::vector<ProcedureDef> procedures;
  procedures.push_back(std::move(stuck));
  CustomProcWorld world(std::move(procedures));
  ASSERT_TRUE(world.spawn.ok()) << world.spawn.detail();
  ProcChannel* ch = world.host.channel(world.server);
  ASSERT_NE(ch, nullptr);
  const int pid = world.host.peer_pid(world.server);

  // Ring the call straight into the channel, and wait until the server has
  // accepted it: from then on it is in the handler.
  const std::uint32_t accepted = ch->accept_seq.load(std::memory_order_acquire);
  const ForgedEntry call[] = {
      {0, static_cast<std::uint32_t>(
              world.binding->interface_spec()->pd(0).window_bytes)}};
  (void)PublishForgedBatch(ch, world.client, call);
  for (int waited_ms = 0;
       waited_ms < 2000 &&
       ch->accept_seq.load(std::memory_order_acquire) == accepted;
       ++waited_ms) {
    usleep(1000);
  }
  ASSERT_NE(ch->accept_seq.load(std::memory_order_acquire), accepted);

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(world.host.Shutdown(world.server).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(world.host.live_endpoints(), 0u);
  // Reaped: the pid is no longer a child of this process.
  int wait_status = 0;
  const pid_t waited = waitpid(pid, &wait_status, WNOHANG);
  const int wait_error = errno;
  EXPECT_EQ(waited, -1);
  EXPECT_EQ(wait_error, ECHILD);
}

// A server process dies with its client. A helper process, a child
// subreaper so that the orphaned server becomes its child, forks a client
// that builds a ProcWorld, makes one call, reports its server's pid and
// _exits without tearing anything down. The helper must reap the server
// within 2 s; if it cannot, it SIGKILLs and reaps it, so the test leaves
// nothing running either way.
TEST(ProcDeathTest, AServerExitsWhenItsClientProcessDies) {
  SKIP_WITHOUT_FORK();
  enum : int { kReaped = 0, kKilled = 1, kNoServer = 2 };
  const pid_t helper = fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    int report[2] = {-1, -1};
    if (prctl(PR_SET_CHILD_SUBREAPER, 1) != 0 || pipe(report) != 0) {
      _exit(kNoServer);
    }
    const pid_t client = fork();
    if (client == 0) {
      close(report[0]);
      ProcWorld world;
      int server_pid = -1;
      if (world.ok() && world.CallNull().ok()) {
        server_pid = world.host().peer_pid(world.server_domain());
      }
      (void)!write(report[1], &server_pid, sizeof(server_pid));
      _exit(0);  // No destructor runs: the server is left behind.
    }
    close(report[1]);
    int server_pid = -1;
    const bool reported =
        client > 0 &&
        read(report[0], &server_pid, sizeof(server_pid)) ==
            static_cast<ssize_t>(sizeof(server_pid)) &&
        server_pid > 0;
    int wait_status = 0;
    if (client > 0) {
      (void)waitpid(client, &wait_status, 0);
    }
    if (!reported) {
      _exit(kNoServer);
    }
    for (int waited_ms = 0; waited_ms < 2000; waited_ms += 10) {
      if (waitpid(server_pid, &wait_status, WNOHANG) == server_pid) {
        _exit(kReaped);
      }
      usleep(10 * 1000);
    }
    kill(server_pid, SIGKILL);
    (void)waitpid(server_pid, &wait_status, 0);
    _exit(kKilled);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(helper, &wait_status, 0), helper);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), kReaped)
      << "1: the server outlived its client by 2 s and was killed; "
         "2: the client reported no server";
}

// --- The chaos and supervision suites against the real backend. ---

ChaosOptions ProcChaosOptions(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.servers = 3;
  options.clients = 2;
  options.operations = 50;
  options.processors = 1;  // The proc backend serializes on processor 0.
  options.backend = RuntimeBackend::kMultiProcess;
  options.proc_factory = [](LrpcRuntime& runtime) {
    ProcHost::Options host_options;
    host_options.call_deadline_ms = 5000;
    return std::make_unique<ProcHost>(runtime, host_options);
  };
  options.fault_kinds = {FaultKind::kPeerProcessDeath,
                         FaultKind::kBindingRevocation,
                         FaultKind::kDomainTermination};
  options.fault_probability = 0.10;
  return options;
}

TEST(ProcChaosTest, SeededSchedulesHoldInvariantsAcrossRealProcessDeath) {
  SKIP_WITHOUT_FORK();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ChaosResult result = RunChaosSchedule(ProcChaosOptions(seed));
    EXPECT_TRUE(result.ok()) << "seed " << seed << ":\n"
                             << (result.undocumented.empty()
                                     ? (result.violations.empty()
                                            ? ""
                                            : result.violations.front())
                                     : result.undocumented.front());
    EXPECT_GT(result.calls_attempted, 0) << "seed " << seed;
  }
}

TEST(ProcChaosTest, KillScheduleFiresAllThreePhases) {
  SKIP_WITHOUT_FORK();
  // Enough operations that the deterministic phase cycle (pre-accept,
  // in-body, post-return) fires at least one full turn.
  ChaosOptions options = ProcChaosOptions(/*seed=*/7);
  options.operations = 120;
  options.fault_kinds = {FaultKind::kPeerProcessDeath};
  options.fault_probability = 0.25;
  options.allow_termination = false;
  ChaosResult result = RunChaosSchedule(options);
  EXPECT_TRUE(result.ok()) << (result.undocumented.empty()
                                   ? (result.violations.empty()
                                          ? ""
                                          : result.violations.front())
                                   : result.undocumented.front());
  const auto fired = result.fired_by_kind[static_cast<std::size_t>(
      FaultKind::kPeerProcessDeath)];
  EXPECT_GE(fired, 3u) << "want at least one full kill-phase cycle";
}

TEST(ProcChaosTest, SupervisedScheduleRecoversAcrossRealProcessDeath) {
  SKIP_WITHOUT_FORK();
  ChaosOptions options = ProcChaosOptions(/*seed=*/11);
  options.supervision = true;
  options.supervision_policy.retry.max_attempts = 3;
  ChaosResult result = RunChaosSchedule(options);
  EXPECT_TRUE(result.ok()) << (result.undocumented.empty()
                                   ? (result.violations.empty()
                                          ? ""
                                          : result.violations.front())
                                   : result.undocumented.front());
}

// --- Async batches: one doorbell pair per flush (docs/async.md). ---

TEST(ProcAsyncTest, BatchedFlushAmortizesTheDoorbellAcrossTheBatch) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  AsyncRing ring(world.runtime(), world.binding(), world.client_thread(),
                 /*depth=*/8);
  std::int32_t sums[4] = {};
  std::uint8_t in[kBigSize];
  std::uint8_t out[kBigSize] = {};
  for (std::size_t i = 0; i < kBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 5 + 1);
  }
  std::int32_t lhs[4];
  std::int32_t rhs[4];
  for (int i = 0; i < 4; ++i) {
    lhs[i] = 100 * i;
    rhs[i] = i;
    const CallArg args[] = {CallArg::Of(lhs[i]), CallArg::Of(rhs[i])};
    const CallRet rets[] = {CallRet::Of(&sums[i])};
    ASSERT_TRUE(ring.Submit(world.cpu(), world.add_proc(), args, rets).ok());
  }
  {
    const CallArg args[] = {CallArg(in, kBigSize)};
    const CallRet rets[] = {CallRet(out, kBigSize)};
    ASSERT_TRUE(
        ring.Submit(world.cpu(), world.biginout_proc(), args, rets).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.Submit(world.cpu(), world.null_proc(), {}, {}).ok());
  }
  ring.Drain(world.cpu());

  ASSERT_EQ(ring.results().size(), 8u);
  for (const AsyncCompletion& done : ring.results()) {
    EXPECT_TRUE(done.status.ok()) << ErrorCodeName(done.status.code());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sums[i], 100 * i + i);
  }
  for (std::size_t i = 0; i < kBigSize; ++i) {
    ASSERT_EQ(out[i], in[kBigSize - 1 - i]) << "at " << i;
  }
  // Every handler ran in the server process, and the whole batch crossed
  // the channel behind ONE doorbell pair: one transfer, not eight.
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 8u);
  EXPECT_EQ(world.host().transfers(), 1u);
}

// Every window up to kProcPayloadBytes crosses in its batch's one doorbell:
// a depth-4 ring of 2000-byte parameter blocks (2048-byte windows) is one
// transfer, not four, and every result comes back right.
TEST(ProcAsyncTest, WindowsUpToThePayloadShareTheBatchDoorbell) {
  SKIP_WITHOUT_FORK();
  constexpr std::size_t kHalf = 1000;
  ProcedureDef def;
  def.name = "Reverse";
  def.params = {{.name = "in", .direction = ParamDirection::kIn, .size = kHalf},
                {.name = "out", .direction = ParamDirection::kOut,
                 .size = kHalf}};
  def.handler = [](ServerFrame& frame) -> Status {
    std::uint8_t buffer[kHalf];
    Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
    if (!n.ok()) {
      return n.status();
    }
    std::reverse(buffer, buffer + kHalf);
    return frame.WriteResult(1, buffer, kHalf);
  };
  CustomProcWorld world({std::move(def)});
  ASSERT_TRUE(world.spawn.ok()) << world.spawn.detail();
  const std::size_t window = world.binding->interface_spec()->pd(0).astack_size;
  EXPECT_GT(window, std::size_t{1024});
  EXPECT_LE(window, kProcPayloadBytes);

  constexpr int kDepth = 4;
  AsyncRing ring(world.runtime, *world.binding, world.thread, kDepth);
  std::uint8_t in[kDepth][kHalf];
  std::uint8_t out[kDepth][kHalf] = {};
  for (int i = 0; i < kDepth; ++i) {
    for (std::size_t j = 0; j < kHalf; ++j) {
      in[i][j] = static_cast<std::uint8_t>(31 * i + 7 * j);
    }
    const CallArg args[] = {CallArg(in[i], kHalf)};
    const CallRet rets[] = {CallRet(out[i], kHalf)};
    ASSERT_TRUE(ring.Submit(world.cpu(), 0, args, rets).ok());
  }
  ring.Drain(world.cpu());
  ASSERT_EQ(ring.results().size(), static_cast<std::size_t>(kDepth));
  for (const AsyncCompletion& done : ring.results()) {
    EXPECT_TRUE(done.status.ok()) << ErrorCodeName(done.status.code());
  }
  for (int i = 0; i < kDepth; ++i) {
    for (std::size_t j = 0; j < kHalf; ++j) {
      ASSERT_EQ(out[i][j], in[i][kHalf - 1 - j]) << "call " << i << " at " << j;
    }
  }
  EXPECT_EQ(world.host.transfers(), 1u);
}

// An entry whose window is longer than its procedure's window is refused
// on its own: the server runs neither its handler nor copies it, serves the
// entries around it in the same batch, and keeps serving afterwards.
TEST(ProcAsyncTest, OversizedBatchEntryIsRejectedAndTheServerSurvives) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  const std::size_t exact =
      world.binding().interface_spec()->pd(world.null_proc()).window_bytes;
  // 1 KiB fits the channel arena but is far longer than Null's window.
  constexpr std::size_t kOversized = 1024;
  ASSERT_GT(kOversized, exact);
  std::vector<std::uint8_t> small(2 * exact);
  std::vector<std::uint8_t> big(kOversized, 0xcd);
  ProcTransport::BatchCall calls[3];
  for (ProcTransport::BatchCall& call : calls) {
    call.procedure = world.null_proc();
    call.window_len = exact;
  }
  calls[0].window = small.data();
  calls[1].window = big.data();
  calls[1].window_len = big.size();
  calls[2].window = small.data() + exact;
  ASSERT_TRUE(world.host()
                  .ExecuteBatch(world.server_domain(), world.client_domain(),
                                std::span<ProcTransport::BatchCall>(calls),
                                ProcTransport::KillPhase::kNone)
                  .ok());
  for (const ProcTransport::BatchCall& call : calls) {
    ASSERT_TRUE(call.leg.ok()) << ErrorCodeName(call.leg.code());
  }
  EXPECT_TRUE(calls[0].handler_status.ok());
  EXPECT_EQ(calls[1].handler_status.code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(calls[2].handler_status.ok());
  EXPECT_EQ(world.host().transfers(), 1u);

  std::int32_t sum = 0;
  ASSERT_TRUE(world.CallAdd(1200, 34, &sum).ok());
  EXPECT_EQ(sum, 1234);
  // The two exact Nulls and the Add reached a handler; the oversized
  // entry did not.
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 3u);
}

TEST(ProcAsyncTest, MidBatchDeathIsTriagedPerEntry) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // Drive the transport directly: four Nulls with a SIGKILL armed inside
  // the server body — the child dies halfway (before entry batch/2 == 2),
  // so the status words split the batch into finished and unfinished halves.
  // Each entry carries Null's window, the exact bytes an honest client
  // sends (LrpcRuntime::ProcCallOf).
  const std::size_t window_len =
      world.binding().interface_spec()->pd(world.null_proc()).window_bytes;
  std::vector<std::uint8_t> windows(4 * window_len);
  ProcTransport::BatchCall calls[4];
  for (std::size_t i = 0; i < 4; ++i) {
    calls[i].procedure = world.null_proc();
    calls[i].window = windows.data() + i * window_len;
    calls[i].window_len = window_len;
  }
  ASSERT_TRUE(world.host()
                  .ExecuteBatch(world.server_domain(), world.client_domain(),
                                std::span<ProcTransport::BatchCall>(calls),
                                ProcTransport::KillPhase::kInServerBody)
                  .ok());
  EXPECT_TRUE(calls[0].leg.ok());
  EXPECT_TRUE(calls[0].handler_status.ok());
  EXPECT_TRUE(calls[1].leg.ok());
  EXPECT_EQ(calls[2].leg.code(), ErrorCode::kCallFailed);
  EXPECT_EQ(calls[3].leg.code(), ErrorCode::kCallFailed);
  // The corpse was reaped synchronously; collect it so teardown is clean.
  EXPECT_EQ(world.host().CollectDead(), 1);
}

TEST(ProcAsyncTest, PreAcceptBatchDeathIsRetryableForEveryEntry) {
  SKIP_WITHOUT_FORK();
  ProcWorld world;
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  ProcTransport::BatchCall calls[3];
  for (ProcTransport::BatchCall& call : calls) {
    call.procedure = world.null_proc();
  }
  ASSERT_TRUE(world.host()
                  .ExecuteBatch(world.server_domain(), world.client_domain(),
                                std::span<ProcTransport::BatchCall>(calls),
                                ProcTransport::KillPhase::kBeforeAccept)
                  .ok());
  for (const ProcTransport::BatchCall& call : calls) {
    EXPECT_EQ(call.leg.code(), ErrorCode::kPeerDied);
    EXPECT_TRUE(IsRetryable(call.leg.code()));
  }
  EXPECT_EQ(world.counters().calls.load(std::memory_order_acquire), 0u);
  EXPECT_EQ(world.host().CollectDead(), 1);
}

TEST(ProcChaosTest, AsyncBurstSchedulesSurviveRealProcessDeath) {
  SKIP_WITHOUT_FORK();
  // The full combination: chaos schedules drive AsyncRing bursts against
  // real forked servers with kill phases armed — batched doorbells, per-
  // entry death triage and the collector, all under the invariant checker.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ChaosOptions options = ProcChaosOptions(seed * 31);
    options.async_depth = 4;
    ChaosResult result = RunChaosSchedule(options);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ":\n"
                             << (result.undocumented.empty()
                                     ? (result.violations.empty()
                                            ? ""
                                            : result.violations.front())
                                     : result.undocumented.front());
    EXPECT_GT(result.async_bursts, 0) << "seed " << seed;
  }
}

TEST(ProcChaosTest, DeterministicReplayHoldsOnTheProcBackend) {
  SKIP_WITHOUT_FORK();
  // The schedule trace is a pure function of the options even with real
  // processes behind it: the kill phases are counter-cycled, not timed.
  ChaosResult a = RunChaosSchedule(ProcChaosOptions(/*seed=*/21));
  ChaosResult b = RunChaosSchedule(ProcChaosOptions(/*seed=*/21));
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace lrpc
