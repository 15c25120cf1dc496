// Tests of the message-passing RPC baseline: functional correctness in all
// three modes, the Taos/SRC-RPC latency calibration (Table 4's third
// column), the Table 3 copy counts, and the Table 2 peer-system models.

#include <gtest/gtest.h>

#include "src/lrpc/server_frame.h"
#include "src/lrpc/testbed.h"
#include "src/rpc/msg_rpc.h"
#include "src/rpc/peer_systems.h"

namespace lrpc {
namespace {

struct MsgWorld {
  explicit MsgWorld(MsgRpcMode mode)
      : machine(MachineModel::CVaxFirefly(), 1),
        kernel(machine),
        system(kernel, mode) {
    client = kernel.CreateDomain({.name = "client"});
    server_domain = kernel.CreateDomain({.name = "server"});
    thread = kernel.CreateThread(client);
    iface = std::make_unique<Interface>(0, "paper.Measures", server_domain);
    AddPaperProcedures(iface.get(), &null_proc, &add_proc, &bigin_proc,
                       &biginout_proc, counters);
    iface->Seal();
    server = system.RegisterServer(server_domain, iface.get());
    binding = system.Bind(client, server);
    machine.processor(0).LoadContext(kernel.domain(client).vm_context());
  }

  Processor& cpu() { return machine.processor(0); }

  Machine machine;
  Kernel kernel;
  MsgRpcSystem system;
  DomainId client, server_domain;
  ThreadId thread;
  std::unique_ptr<Interface> iface;
  MsgServer* server;
  MsgBinding binding;
  int null_proc, add_proc, bigin_proc, biginout_proc;
  PaperCounters counters;
};

class MsgRpcModesTest : public ::testing::TestWithParam<MsgRpcMode> {};

TEST_P(MsgRpcModesTest, AddWorks) {
  MsgWorld world(GetParam());
  std::int32_t a = 19, b = 23, sum = 0;
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.add_proc, args, rets)
                  .ok());
  EXPECT_EQ(sum, 42);
}

TEST_P(MsgRpcModesTest, BigInOutRoundTrips) {
  MsgWorld world(GetParam());
  std::uint8_t in[kBigSize], out[kBigSize] = {};
  for (std::size_t i = 0; i < kBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i + 1);
  }
  const CallArg args[] = {CallArg(in, kBigSize)};
  const CallRet rets[] = {CallRet(out, kBigSize)};
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.biginout_proc, args, rets)
                  .ok());
  for (std::size_t i = 0; i < kBigSize; ++i) {
    ASSERT_EQ(out[i], in[kBigSize - 1 - i]);
  }
}

TEST_P(MsgRpcModesTest, NullHasNoCopies) {
  MsgWorld world(GetParam());
  CallStats stats;
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.null_proc, {}, {}, &stats)
                  .ok());
  EXPECT_EQ(stats.copies.total_ops(), 0u);
}

TEST_P(MsgRpcModesTest, BadProcedureRejected) {
  MsgWorld world(GetParam());
  EXPECT_EQ(world.system
                .Call(world.cpu(), world.thread, world.binding, 77, {}, {})
                .code(),
            ErrorCode::kNoSuchProcedure);
}

INSTANTIATE_TEST_SUITE_P(AllModes, MsgRpcModesTest,
                         ::testing::Values(MsgRpcMode::kTraditional,
                                           MsgRpcMode::kSrcFirefly,
                                           MsgRpcMode::kRestrictedDash),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case MsgRpcMode::kTraditional:
                               return "Traditional";
                             case MsgRpcMode::kSrcFirefly:
                               return "SrcFirefly";
                             case MsgRpcMode::kRestrictedDash:
                               return "RestrictedDash";
                           }
                           return "Unknown";
                         });

// --- Table 4, Taos column (SRC RPC mode) ---

double PerCallMicros(MsgWorld& world, int proc, std::span<const CallArg> args,
                     std::span<const CallRet> rets, int calls = 50) {
  // Warm up once.
  EXPECT_TRUE(
      world.system.Call(world.cpu(), world.thread, world.binding, proc, args, rets)
          .ok());
  const SimTime start = world.cpu().clock();
  for (int i = 0; i < calls; ++i) {
    EXPECT_TRUE(world.system
                    .Call(world.cpu(), world.thread, world.binding, proc, args,
                          rets)
                    .ok());
  }
  return ToMicros(world.cpu().clock() - start) / calls;
}

TEST(SrcRpcLatency, NullIs464Microseconds) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  EXPECT_NEAR(PerCallMicros(world, world.null_proc, {}, {}), 464.0, 0.1);
}

TEST(SrcRpcLatency, AddIsNear480Microseconds) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  std::int32_t a = 1, b = 2, sum = 0;
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  // Paper: 480. Model: within 2%.
  EXPECT_NEAR(PerCallMicros(world, world.add_proc, args, rets), 480.0, 10.0);
}

TEST(SrcRpcLatency, BigInIsNear539Microseconds) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  std::uint8_t data[kBigSize] = {};
  const CallArg args[] = {CallArg(data, kBigSize)};
  EXPECT_NEAR(PerCallMicros(world, world.bigin_proc, args, {}), 539.0, 10.0);
}

TEST(SrcRpcLatency, BigInOutIsNear636Microseconds) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  std::uint8_t in[kBigSize] = {}, out[kBigSize];
  const CallArg args[] = {CallArg(in, kBigSize)};
  const CallRet rets[] = {CallRet(out, kBigSize)};
  EXPECT_NEAR(PerCallMicros(world, world.biginout_proc, args, rets), 636.0,
              13.0);
}

TEST(SrcRpcLatency, LrpcIsRoughlyThreeTimesFaster) {
  // The paper's headline: 157 vs 464 microseconds, a factor of three.
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  const double src_null = PerCallMicros(world, world.null_proc, {}, {});
  Testbed lrpc_bed;
  ASSERT_TRUE(lrpc_bed.CallNull().ok());
  const SimTime start = lrpc_bed.cpu(0).clock();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lrpc_bed.CallNull().ok());
  }
  const double lrpc_null = ToMicros(lrpc_bed.cpu(0).clock() - start) / 50;
  EXPECT_NEAR(src_null / lrpc_null, 3.0, 0.1);
}

// --- Table 3: copy operations ---

TEST(CopyCounts, TraditionalMessagePassingDoesSevenCopies) {
  // One immutable in-param + one result: call = A B C E (4), return = B C F
  // (3); Table 3's "Message Passing" column totals 7.
  MsgWorld world(MsgRpcMode::kTraditional);
  std::uint8_t in[kBigSize] = {}, out[kBigSize];
  const CallArg args[] = {CallArg(in, kBigSize)};
  const CallRet rets[] = {CallRet(out, kBigSize)};
  CallStats stats;
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.biginout_proc, args, rets, &stats)
                  .ok());
  EXPECT_EQ(stats.copies.a, 1u);
  EXPECT_EQ(stats.copies.b, 2u);  // Call leg and return leg.
  EXPECT_EQ(stats.copies.c, 2u);
  EXPECT_EQ(stats.copies.d, 0u);
  EXPECT_EQ(stats.copies.e, 1u);
  EXPECT_EQ(stats.copies.f, 1u);
  EXPECT_EQ(stats.copies.total_ops(), 7u);
}

TEST(CopyCounts, RestrictedMessagePassingDoesFiveCopies) {
  // Table 3's "Restricted Message Passing": call = A D E, return = B F.
  MsgWorld world(MsgRpcMode::kRestrictedDash);
  std::uint8_t in[kBigSize] = {}, out[kBigSize];
  const CallArg args[] = {CallArg(in, kBigSize)};
  const CallRet rets[] = {CallRet(out, kBigSize)};
  CallStats stats;
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.biginout_proc, args, rets, &stats)
                  .ok());
  EXPECT_EQ(stats.copies.a, 1u);
  EXPECT_EQ(stats.copies.b, 1u);
  EXPECT_EQ(stats.copies.d, 1u);
  EXPECT_EQ(stats.copies.e, 1u);
  EXPECT_EQ(stats.copies.f, 1u);
  EXPECT_EQ(stats.copies.total_ops(), 5u);
}

TEST(CopyCounts, LrpcDoesThreeCopiesEvenWithImmutability) {
  // Table 3's LRPC column with immutability: A on call, E in the server
  // stub, F on return — 3 against message passing's 7.
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "imm.RoundTrip");
  ProcedureDef def;
  def.name = "RoundTrip";
  def.params.push_back({.name = "in",
                        .direction = ParamDirection::kIn,
                        .size = 64,
                        .flags = {.immutable = true}});
  def.params.push_back(
      {.name = "out", .direction = ParamDirection::kOut, .size = 64});
  def.handler = [](ServerFrame& frame) -> Status {
    std::uint8_t buf[64];
    Result<std::size_t> n = frame.ReadArg(0, buf, sizeof(buf));
    if (!n.ok()) {
      return n.status();
    }
    return frame.WriteResult(1, buf, sizeof(buf));
  };
  iface->AddProcedure(std::move(def));
  EXPECT_TRUE(bed.runtime().Export(iface).ok());
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "imm.RoundTrip");
  ASSERT_TRUE(binding.ok());

  std::uint8_t in[64] = {1, 2, 3}, out[64];
  const CallArg args[] = {CallArg(in, sizeof(in))};
  const CallRet rets[] = {CallRet(out, sizeof(out))};
  CallStats stats;
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args,
                        rets, &stats)
                  .ok());
  EXPECT_EQ(stats.copies.a, 1u);
  EXPECT_EQ(stats.copies.e, 1u);
  EXPECT_EQ(stats.copies.f, 1u);
  EXPECT_EQ(stats.copies.total_ops(), 3u);
  EXPECT_EQ(out[0], 1);
}

// --- SRC RPC's global lock (the Figure 2 plateau mechanism) ---

TEST(SrcRpcLock, GlobalLockHeldNear245MicrosecondsPerCall) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.null_proc, {}, {})
                  .ok());
  const SimDuration hold_before = world.system.global_lock().total_hold();
  const int kCalls = 10;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(world.system
                    .Call(world.cpu(), world.thread, world.binding,
                          world.null_proc, {}, {})
                    .ok());
  }
  const double hold_per_call =
      ToMicros(world.system.global_lock().total_hold() - hold_before) / kCalls;
  EXPECT_NEAR(hold_per_call, 245.0, 5.0);
}

TEST(SrcRpcLock, TraditionalModeNeverTouchesGlobalLock) {
  MsgWorld world(MsgRpcMode::kTraditional);
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.null_proc, {}, {})
                  .ok());
  EXPECT_EQ(world.system.global_lock().acquisitions(), 0u);
}

// --- Worker threads & flow control ---

TEST(MsgRpcDispatch, WorkerPoolClaimsAndReleases) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  Thread* w1 = world.server->ClaimWorker(world.kernel);
  Thread* w2 = world.server->ClaimWorker(world.kernel);
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w2, nullptr);
  EXPECT_EQ(world.server->ClaimWorker(world.kernel), nullptr);
  world.server->ReleaseWorker(w1);
  EXPECT_NE(world.server->ClaimWorker(world.kernel), nullptr);
}

TEST(MsgRpcDispatch, CallerSerializedWhenNoWorkerRemains) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  // Exhaust the worker pool out-of-band.
  while (world.server->ClaimWorker(world.kernel) != nullptr) {
  }
  EXPECT_EQ(world.system
                .Call(world.cpu(), world.thread, world.binding,
                      world.null_proc, {}, {})
                .code(),
            ErrorCode::kQueueFull);
}

TEST(MsgRpcDispatch, SchedulerSeesHandoffsInSrcMode) {
  MsgWorld world(MsgRpcMode::kSrcFirefly);
  const std::uint64_t before = world.kernel.scheduler().handoffs();
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.null_proc, {}, {})
                  .ok());
  EXPECT_EQ(world.kernel.scheduler().handoffs(), before + 2);
}

TEST(MsgRpcDispatch, TraditionalModeUsesReadyQueue) {
  MsgWorld world(MsgRpcMode::kTraditional);
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.null_proc, {}, {})
                  .ok());
  EXPECT_EQ(world.kernel.scheduler().handoffs(), 0u);
  EXPECT_GE(world.kernel.scheduler().blocks(), 2u);
  EXPECT_GE(world.kernel.scheduler().wakeups(), 2u);
}

// --- Message pool and port ---

TEST(MessagePool, AcquireReleaseCycle) {
  MessagePool pool(2);
  auto m1 = pool.Acquire();
  auto m2 = pool.Acquire();
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(pool.Acquire().code(), ErrorCode::kQueueFull);
  pool.Release(std::move(*m1));
  EXPECT_TRUE(pool.Acquire().ok());
}

TEST(PortTest, FlowControlRejectsWhenFull) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Port port(1, "p", 2);
  ASSERT_TRUE(port.Enqueue(machine.processor(0), std::make_unique<Message>()).ok());
  ASSERT_TRUE(port.Enqueue(machine.processor(0), std::make_unique<Message>()).ok());
  EXPECT_EQ(port.Enqueue(machine.processor(0), std::make_unique<Message>()).code(),
            ErrorCode::kQueueFull);
  EXPECT_NE(port.Dequeue(machine.processor(0)), nullptr);
  EXPECT_TRUE(port.Enqueue(machine.processor(0), std::make_unique<Message>()).ok());
}

TEST(PortTest, ClosedPortRejects) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Port port(1, "p", 4);
  port.Close();
  EXPECT_EQ(port.Enqueue(machine.processor(0), std::make_unique<Message>()).code(),
            ErrorCode::kPortClosed);
}

// --- Table 2 peer systems ---

TEST(PeerSystems, DecompositionsSumToPublishedOverheads) {
  for (const PeerSystem& s : Table2Systems()) {
    EXPECT_NEAR(s.OverheadTotal(),
                s.published_actual_us - s.published_minimum_us, 0.01)
        << s.name;
  }
}

TEST(PeerSystems, MachineMinimaMatchPublished) {
  for (const PeerSystem& s : Table2Systems()) {
    EXPECT_EQ(s.machine.TheoreticalMinimumNull(),
              Micros(s.published_minimum_us))
        << s.name;
  }
}

TEST(PeerSystems, SimulatedNullMatchesPublishedActual) {
  for (const PeerSystem& s : Table2Systems()) {
    Machine machine(s.machine, 1);
    const SimDuration total = s.RunNull(machine.processor(0));
    EXPECT_NEAR(ToMicros(total), s.published_actual_us, 0.5) << s.name;
  }
}

TEST(PeerSystems, TableHasTheSixPublishedRows) {
  const auto systems = Table2Systems();
  ASSERT_EQ(systems.size(), 6u);
  EXPECT_EQ(systems[0].name, "Accent");
  EXPECT_EQ(systems[1].name, "Taos");
  EXPECT_EQ(systems[2].name, "Mach");
  EXPECT_EQ(systems[3].name, "V");
  EXPECT_EQ(systems[4].name, "Amoeba");
  EXPECT_EQ(systems[5].name, "DASH");
}

}  // namespace
}  // namespace lrpc

namespace lrpc {
namespace {

// --- Segment-level throughput simulation (Figure 2's SRC RPC curve) ---

TEST(SegmentSim, SegmentsMatchFunctionalPathTotals) {
  const MachineModel model = MachineModel::CVaxFirefly();
  const auto segments = MsgRpcSystem::SrcNullCallSegments(model);

  SimDuration total = 0, hold = 0;
  for (const CallSegment& s : segments) {
    total += s.duration;
    if (s.locked) {
      hold += s.duration;
    }
  }
  // Must equal the functional path's Null total (464 us, Table 4) and the
  // measured global-lock hold (245 us, Figure 2's plateau).
  EXPECT_EQ(total, Micros(464));
  EXPECT_EQ(hold, Micros(245));

  MsgWorld world(MsgRpcMode::kSrcFirefly);
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.null_proc, {}, {})
                  .ok());
  const SimTime start = world.cpu().clock();
  ASSERT_TRUE(world.system
                  .Call(world.cpu(), world.thread, world.binding,
                        world.null_proc, {}, {})
                  .ok());
  EXPECT_EQ(world.cpu().clock() - start, total);
}

TEST(SegmentSim, SingleProcessorRateMatchesLatency) {
  const MachineModel model = MachineModel::CVaxFirefly();
  Machine machine(model, 1);
  const SegmentLoopResult result = RunSegmentLoop(
      machine, MsgRpcSystem::SrcNullCallSegments(model), 1, 2000);
  EXPECT_NEAR(result.calls_per_second, 1e6 / 464.0, 10.0);
}

TEST(SegmentSim, PlateausNearFourThousandFromTwoProcessors) {
  const MachineModel model = MachineModel::CVaxFirefly();
  for (int n = 2; n <= 4; ++n) {
    Machine machine(model, n);
    const SegmentLoopResult result = RunSegmentLoop(
        machine, MsgRpcSystem::SrcNullCallSegments(model), n, 2000);
    // "The throughput of SRC RPC levels off with two processors at about
    // 4000 calls per second" (Section 4). At exactly two processors the
    // lock idles briefly while both callers sit in unlocked segments, so
    // the rate is a few percent under the 1/245us asymptote.
    EXPECT_NEAR(result.calls_per_second, 4000.0, 250.0) << n << " processors";
  }
}

TEST(SegmentSim, UncontendedSegmentsScaleLinearly) {
  // An all-unlocked segment list behaves like LRPC: near-linear scaling,
  // limited only by bus contention.
  const MachineModel model = MachineModel::CVaxFirefly();
  const std::vector<CallSegment> segments = {{Micros(157), false}};
  Machine one(model, 1);
  const double single = RunSegmentLoop(one, segments, 1, 2000).calls_per_second;
  Machine four(model, 4);
  const double quad = RunSegmentLoop(four, segments, 4, 2000).calls_per_second;
  EXPECT_NEAR(quad / single, 4.0 / (1.0 + 3 * 0.036), 0.05);
}

}  // namespace
}  // namespace lrpc
