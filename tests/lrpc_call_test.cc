// End-to-end tests of the LRPC call path: functional behaviour (arguments
// and results really cross domains), the calibrated latencies of Table 4 /
// Table 5, copy-operation counts (Table 3), TLB accounting, and the
// uncommon cases of Section 5.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "src/lrpc/server_frame.h"
#include "src/lrpc/testbed.h"

namespace lrpc {
namespace {

SimDuration ElapsedForCalls(Testbed& bed, int count,
                            const std::function<void()>& call) {
  const SimTime start = bed.cpu(0).clock();
  for (int i = 0; i < count; ++i) {
    call();
  }
  return bed.cpu(0).clock() - start;
}

// --- Functional correctness ---

TEST(LrpcCall, AddReallyAdds) {
  Testbed bed;
  std::int32_t sum = 0;
  ASSERT_TRUE(bed.CallAdd(19, 23, &sum).ok());
  EXPECT_EQ(sum, 42);
}

TEST(LrpcCall, NegativeAndOverflowingAdds) {
  Testbed bed;
  std::int32_t sum = 0;
  ASSERT_TRUE(bed.CallAdd(-5, 3, &sum).ok());
  EXPECT_EQ(sum, -2);
  ASSERT_TRUE(bed.CallAdd(2147483647, 1, &sum).ok());  // Wraps (two's compl.).
  EXPECT_EQ(sum, -2147483648);
}

TEST(LrpcCall, BigInDeliversAllBytes) {
  Testbed bed;
  std::uint8_t data[kBigSize];
  for (std::size_t i = 0; i < kBigSize; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  const std::uint64_t expected =
      std::accumulate(data, data + kBigSize, std::uint64_t{0});
  ASSERT_TRUE(bed.CallBigIn(data).ok());
  EXPECT_EQ(bed.server_bytes_seen(), expected);
}

TEST(LrpcCall, BigInOutRoundTripsTransformedData) {
  Testbed bed;
  std::uint8_t in[kBigSize], out[kBigSize];
  for (std::size_t i = 0; i < kBigSize; ++i) {
    in[i] = static_cast<std::uint8_t>(i);
    out[i] = 0;
  }
  ASSERT_TRUE(bed.CallBigInOut(in, out).ok());
  for (std::size_t i = 0; i < kBigSize; ++i) {
    EXPECT_EQ(out[i], in[kBigSize - 1 - i]) << "at index " << i;
  }
}

TEST(LrpcCall, ManyCallsReuseAStacks) {
  Testbed bed;
  for (int i = 0; i < 100; ++i) {
    std::int32_t sum = 0;
    ASSERT_TRUE(bed.CallAdd(i, i, &sum).ok());
    ASSERT_EQ(sum, 2 * i);
  }
  // Still only the bind-time A-stacks (no growth happened).
  int bind_time_total = 0;
  for (int g = 0; g < bed.interface_spec()->astack_group_count(); ++g) {
    bind_time_total += bed.interface_spec()->group_astack_count(g);
  }
  EXPECT_EQ(bed.binding().allocated_astacks(), bind_time_total);
}

TEST(LrpcCall, WrongArgumentCountRejected) {
  Testbed bed;
  std::int32_t a = 1;
  const CallArg args[] = {CallArg::Of(a)};  // Add wants two.
  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), bed.binding(),
                      bed.add_proc(), args, {})
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(LrpcCall, BadProcedureIndexRejected) {
  Testbed bed;
  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), bed.binding(), 99, {}, {})
                .code(),
            ErrorCode::kNoSuchProcedure);
}

// --- Latency calibration (Table 4 / Table 5) ---

TEST(LrpcLatency, NullIs157Microseconds) {
  Testbed bed;
  ASSERT_TRUE(bed.CallNull().ok());  // Warm the context.
  const SimDuration per_call =
      ElapsedForCalls(bed, 100, [&] { ASSERT_TRUE(bed.CallNull().ok()); }) / 100;
  EXPECT_EQ(per_call, Micros(157));
}

TEST(LrpcLatency, AddIs164Microseconds) {
  Testbed bed;
  std::int32_t sum;
  ASSERT_TRUE(bed.CallAdd(1, 2, &sum).ok());
  const SimDuration per_call = ElapsedForCalls(bed, 100, [&] {
                                 ASSERT_TRUE(bed.CallAdd(1, 2, &sum).ok());
                               }) /
                               100;
  EXPECT_NEAR(ToMicros(per_call), 164.0, 0.1);
}

TEST(LrpcLatency, BigInIs192Microseconds) {
  Testbed bed;
  std::uint8_t data[kBigSize] = {};
  ASSERT_TRUE(bed.CallBigIn(data).ok());
  const SimDuration per_call = ElapsedForCalls(bed, 100, [&] {
                                 ASSERT_TRUE(bed.CallBigIn(data).ok());
                               }) /
                               100;
  EXPECT_NEAR(ToMicros(per_call), 192.0, 0.1);
}

TEST(LrpcLatency, BigInOutIs227Microseconds) {
  Testbed bed;
  std::uint8_t in[kBigSize] = {}, out[kBigSize];
  ASSERT_TRUE(bed.CallBigInOut(in, out).ok());
  const SimDuration per_call = ElapsedForCalls(bed, 100, [&] {
                                 ASSERT_TRUE(bed.CallBigInOut(in, out).ok());
                               }) /
                               100;
  EXPECT_NEAR(ToMicros(per_call), 227.0, 0.1);
}

TEST(LrpcLatency, MpNullIs125MicrosecondsWithIdleProcessor) {
  Testbed bed({.processors = 2, .park_idle_in_server = true});
  CallStats stats;
  ASSERT_TRUE(bed.CallNull(&stats).ok());
  EXPECT_TRUE(stats.exchanged_on_call);
  EXPECT_TRUE(stats.exchanged_on_return);
  const SimDuration per_call =
      ElapsedForCalls(bed, 100, [&] { ASSERT_TRUE(bed.CallNull().ok()); }) / 100;
  EXPECT_EQ(per_call, Micros(125));
}

TEST(LrpcLatency, MpBigInOutIs219Microseconds) {
  Testbed bed({.processors = 2, .park_idle_in_server = true});
  std::uint8_t in[kBigSize] = {}, out[kBigSize];
  ASSERT_TRUE(bed.CallBigInOut(in, out).ok());
  const SimDuration per_call = ElapsedForCalls(bed, 100, [&] {
                                 ASSERT_TRUE(bed.CallBigInOut(in, out).ok());
                               }) /
                               100;
  EXPECT_NEAR(ToMicros(per_call), 219.0, 0.5);
}

TEST(LrpcLatency, Table5BreakdownIsExact) {
  Testbed bed;
  ASSERT_TRUE(bed.CallNull().ok());
  CostLedger before = bed.cpu(0).ledger();
  ASSERT_TRUE(bed.CallNull().ok());
  const CostLedger d = bed.cpu(0).ledger().Diff(before);

  EXPECT_EQ(d.total(CostCategory::kProcedureCall), Micros(7));
  EXPECT_EQ(d.total(CostCategory::kKernelTrap), Micros(36));
  EXPECT_EQ(d.total(CostCategory::kContextSwitch), Micros(66));
  EXPECT_EQ(d.MinimumTotal(), Micros(109));
  EXPECT_EQ(d.total(CostCategory::kClientStub), Micros(18));
  EXPECT_EQ(d.total(CostCategory::kServerStub), Micros(3));
  EXPECT_EQ(d.total(CostCategory::kKernelPath), Micros(27));
  EXPECT_EQ(d.LrpcOverheadTotal(), Micros(48));
  EXPECT_EQ(d.GrandTotal(), Micros(157));
}

TEST(LrpcLatency, SteadyStateNullTakes43TlbMisses) {
  Testbed bed;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());  // Reach steady state.
  }
  const std::uint64_t before = bed.cpu(0).tlb().miss_count();
  const int kCalls = 10;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  const auto per_call =
      (bed.cpu(0).tlb().miss_count() - before) / static_cast<std::uint64_t>(kCalls);
  EXPECT_EQ(per_call, 43u);  // Paper, Section 4: "we estimate that 43 TLB
                             // misses occur during the Null call".
}

TEST(LrpcLatency, DomainCachingEliminatesTlbMisses) {
  Testbed bed({.processors = 2, .park_idle_in_server = true});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  const std::uint64_t before = bed.cpu(0).tlb().miss_count();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bed.CallNull().ok());
  }
  EXPECT_EQ(bed.cpu(0).tlb().miss_count(), before);
}

// --- Copy operations (Table 3) ---

TEST(LrpcCopies, NullCopiesNothing) {
  Testbed bed;
  CallStats stats;
  ASSERT_TRUE(bed.CallNull(&stats).ok());
  EXPECT_EQ(stats.copies.total_ops(), 0u);
}

TEST(LrpcCopies, MutableParametersCopyOnceIn) {
  // Call with mutable (default) parameters: only copy A on call, and F for
  // the result.
  Testbed bed;
  std::int32_t sum;
  CallStats stats;
  ASSERT_TRUE(bed.CallAdd(1, 2, &sum, &stats).ok());
  EXPECT_EQ(stats.copies.a, 2u);  // Two in-arguments.
  EXPECT_EQ(stats.copies.e, 0u);  // No immutability copies.
  EXPECT_EQ(stats.copies.f, 1u);  // One result.
  EXPECT_EQ(stats.copies.b + stats.copies.c + stats.copies.d, 0u);
}

TEST(LrpcCopies, ImmutableParameterAddsECopy) {
  Testbed bed;
  Interface* iface = bed.runtime().CreateInterface(bed.server_domain(),
                                                   "immutable.Test");
  ProcedureDef def;
  def.name = "Check";
  def.params.push_back({.name = "v",
                        .direction = ParamDirection::kIn,
                        .size = 8,
                        .flags = {.immutable = true}});
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "immutable.Test");
  ASSERT_TRUE(binding.ok());

  const std::uint64_t v = 7;
  const CallArg args[] = {CallArg::Of(v)};
  CallStats stats;
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args, {},
                        &stats)
                  .ok());
  // A on call, E into the server's private memory: total 2 for this param
  // (plus F would make 3 with a result — the Table 3 "LRPC immutable" row).
  EXPECT_EQ(stats.copies.a, 1u);
  EXPECT_EQ(stats.copies.e, 1u);
}

// --- Safety checks ---

TEST(LrpcSafety, ForgedBindingRejected) {
  Testbed bed;
  // Clone the binding but corrupt the nonce: kernel must detect the forgery.
  ClientBinding forged(bed.client_domain(),
                       BindingObject{bed.binding().object().id,
                                     bed.binding().object().nonce ^ 0xbad,
                                     false},
                       bed.interface_spec(), bed.binding().record());
  // Move a real A-stack to the forged binding's list so the stub-level pop
  // succeeds.
  auto real = bed.binding().free_list(0).Pop(bed.cpu(0));
  ASSERT_TRUE(real.ok());
  auto list = std::make_unique<ParFreeList>("forged", /*lock_free=*/true);
  list->Register(*real);
  forged.AddFreeList(std::move(list));

  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), forged, bed.null_proc(),
                      {}, {})
                .code(),
            ErrorCode::kForgedBinding);
}

TEST(LrpcSafety, ThirdDomainCannotTouchAStacks) {
  Testbed bed;
  const DomainId snooper = bed.kernel().CreateDomain({.name = "snooper"});
  AStackRegion* region = bed.binding().record()->regions.front().get();
  std::uint8_t buf[4];
  EXPECT_EQ(region->segment().Read(snooper, 0, buf, 4).code(),
            ErrorCode::kPermissionDenied);
}

TEST(LrpcSafety, ThreadMustBeInClientDomain) {
  Testbed bed;
  const ThreadId alien =
      bed.kernel().CreateThread(bed.server_domain());
  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), alien, bed.binding(), bed.null_proc(), {}, {})
                .code(),
            ErrorCode::kPermissionDenied);
}

TEST(LrpcSafety, TypeCheckFoldedIntoCopyRejectsBadValue) {
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "typed.Test");
  ProcedureDef def;
  def.name = "TakesCardinal";
  ParamDesc p;
  p.name = "n";
  p.direction = ParamDirection::kIn;
  p.size = 4;
  p.flags.type_checked = true;
  p.conformance = [](const void* data, std::size_t len) {
    if (len != 4) {
      return false;
    }
    std::int32_t v;
    std::memcpy(&v, data, 4);
    return v >= 0;  // Modula2+ CARDINAL: positive integers only.
  };
  def.params.push_back(std::move(p));
  bool handler_ran = false;
  def.handler = [&handler_ran](ServerFrame&) {
    handler_ran = true;
    return Status::Ok();
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "typed.Test");
  ASSERT_TRUE(binding.ok());

  const std::int32_t negative = -7;
  const CallArg bad[] = {CallArg::Of(negative)};
  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), **binding, 0, bad, {})
                .code(),
            ErrorCode::kTypeCheckFailed);
  // The server procedure never ran: the stub's folded check protected it.
  EXPECT_FALSE(handler_ran);

  const std::int32_t positive = 7;
  const CallArg good[] = {CallArg::Of(positive)};
  EXPECT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, good, {})
                  .ok());
  EXPECT_TRUE(handler_ran);
}

// --- A-stack exhaustion and growth (Section 5.2) ---

TEST(LrpcAStacks, ExhaustionFailsWhenPolicyIsFail) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  // Drain the free list for group 0 (Null's group).
  const int group = bed.interface_spec()->pd(bed.null_proc()).astack_group;
  std::vector<AStackRef> drained;
  while (true) {
    auto r = bed.binding().free_list(group).Pop(bed.cpu(0));
    if (!r.ok()) {
      break;
    }
    drained.push_back(*r);
  }
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kAStacksExhausted);
  for (const auto& ref : drained) {
    bed.binding().free_list(group).Push(bed.cpu(0), ref);
  }
  EXPECT_TRUE(bed.CallNull().ok());
}

TEST(LrpcAStacks, ExhaustionGrowsSecondaryRegionWhenAllowed) {
  Testbed bed;
  bed.binding().set_exhaustion_policy(AStackExhaustionPolicy::kAllocateMore);
  const int group = bed.interface_spec()->pd(bed.null_proc()).astack_group;
  const int before = bed.binding().allocated_astacks();
  std::vector<AStackRef> drained;
  while (true) {
    auto r = bed.binding().free_list(group).Pop(bed.cpu(0));
    if (!r.ok()) {
      break;
    }
    drained.push_back(*r);
  }
  CallStats stats;
  ASSERT_TRUE(bed.CallNull(&stats).ok());
  EXPECT_TRUE(stats.used_secondary_astack);
  EXPECT_GT(bed.binding().allocated_astacks(), before);
}

TEST(LrpcAStacks, SecondaryAStacksValidateSlower) {
  Testbed bed;
  const int group = bed.interface_spec()->pd(bed.null_proc()).astack_group;
  std::vector<AStackRef> drained;
  while (true) {
    auto r = bed.binding().free_list(group).Pop(bed.cpu(0));
    if (!r.ok()) {
      break;
    }
    drained.push_back(*r);
  }
  // First secondary call includes growth; measure the second.
  ASSERT_TRUE(bed.CallNull().ok());
  const SimTime start = bed.cpu(0).clock();
  ASSERT_TRUE(bed.CallNull().ok());
  const SimDuration secondary_time = bed.cpu(0).clock() - start;
  EXPECT_EQ(secondary_time,
            Micros(157) + bed.machine().model().lrpc_secondary_astack_check);
}

// --- Out-of-band transfer (Section 5.2) ---

TEST(LrpcOob, OversizedArgumentGoesOutOfBand) {
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "oob.Test");
  ProcedureDef def;
  def.name = "Blob";
  def.params.push_back({.name = "data",
                        .direction = ParamDirection::kIn,
                        .size = 0,
                        .max_size = 64});
  def.params.push_back(
      {.name = "sum", .direction = ParamDirection::kOut, .size = 8});
  def.handler = [](ServerFrame& frame) -> Status {
    Result<std::size_t> n = frame.ArgSize(0);
    if (!n.ok()) {
      return n.status();
    }
    std::vector<std::uint8_t> buffer(*n);
    Result<std::size_t> read = frame.ReadArg(0, buffer.data(), buffer.size());
    if (!read.ok()) {
      return read.status();
    }
    std::uint64_t sum = 0;
    for (std::uint8_t b : buffer) {
      sum += b;
    }
    return frame.Result_<std::uint64_t>(1, sum);
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "oob.Test");
  ASSERT_TRUE(binding.ok());

  // 10 KB blob: far over the 64-byte cap, must travel out-of-band.
  std::vector<std::uint8_t> blob(10 * 1024);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 7);
    expected += blob[i];
  }
  const CallArg args[] = {CallArg(blob.data(), blob.size())};
  std::uint64_t sum = 0;
  const CallRet rets[] = {CallRet::Of(&sum)};
  CallStats stats;
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args,
                        rets, &stats)
                  .ok());
  EXPECT_TRUE(stats.used_out_of_band);
  EXPECT_EQ(sum, expected);
}

TEST(LrpcOob, SmallVariableArgumentStaysOnAStack) {
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "var.Test");
  ProcedureDef def;
  def.name = "Echo";
  def.params.push_back({.name = "in",
                        .direction = ParamDirection::kIn,
                        .size = 0,
                        .max_size = 64});
  def.params.push_back({.name = "out",
                        .direction = ParamDirection::kOut,
                        .size = 0,
                        .max_size = 64});
  def.handler = [](ServerFrame& frame) -> Status {
    std::uint8_t buffer[64];
    Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
    if (!n.ok()) {
      return n.status();
    }
    return frame.WriteResult(1, buffer, *n);
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "var.Test");
  ASSERT_TRUE(binding.ok());

  const char message[] = "hello, lrpc";
  char echoed[64] = {};
  const CallArg args[] = {CallArg(message, sizeof(message))};
  const CallRet rets[] = {CallRet(echoed, sizeof(echoed))};
  CallStats stats;
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args,
                        rets, &stats)
                  .ok());
  EXPECT_FALSE(stats.used_out_of_band);
  EXPECT_STREQ(echoed, message);
}

// --- Nested calls ---

TEST(LrpcNested, ServerCanCallAThirdDomain) {
  Testbed bed;
  // A third domain exporting a doubling service; the paper's testbed server
  // calls it from within its own handler (linkage stack depth 2).
  const DomainId third = bed.kernel().CreateDomain({.name = "third"});
  Interface* third_iface =
      bed.runtime().CreateInterface(third, "third.Double");
  {
    ProcedureDef def;
    def.name = "Double";
    def.params.push_back(
        {.name = "v", .direction = ParamDirection::kIn, .size = 4});
    def.params.push_back(
        {.name = "r", .direction = ParamDirection::kOut, .size = 4});
    def.handler = [](ServerFrame& frame) -> Status {
      Result<std::int32_t> v = frame.Arg<std::int32_t>(0);
      if (!v.ok()) {
        return v.status();
      }
      return frame.Result_<std::int32_t>(1, *v * 2);
    };
    third_iface->AddProcedure(std::move(def));
  }
  ASSERT_TRUE(bed.runtime().Export(third_iface).ok());
  // The SERVER domain imports from the third domain.
  Result<ClientBinding*> server_to_third =
      bed.runtime().Import(bed.cpu(0), bed.server_domain(), "third.Double");
  ASSERT_TRUE(server_to_third.ok());

  Interface* nested_iface =
      bed.runtime().CreateInterface(bed.server_domain(), "nested.Test");
  ProcedureDef def;
  def.name = "AddThenDouble";
  def.params.push_back({.name = "a", .direction = ParamDirection::kIn, .size = 4});
  def.params.push_back({.name = "b", .direction = ParamDirection::kIn, .size = 4});
  def.params.push_back({.name = "r", .direction = ParamDirection::kOut, .size = 4});
  LrpcRuntime* runtime = &bed.runtime();
  ClientBinding* inner_binding = *server_to_third;
  def.handler = [runtime, inner_binding](ServerFrame& frame) -> Status {
    Result<std::int32_t> a = frame.Arg<std::int32_t>(0);
    Result<std::int32_t> b = frame.Arg<std::int32_t>(1);
    if (!a.ok() || !b.ok()) {
      return Status(ErrorCode::kInvalidArgument);
    }
    const std::int32_t sum = *a + *b;
    std::int32_t doubled = 0;
    const CallArg inner_args[] = {CallArg::Of(sum)};
    const CallRet inner_rets[] = {CallRet::Of(&doubled)};
    // The nested LRPC: the client's thread, already two domains deep.
    Status inner = runtime->Call(frame.cpu(), frame.thread(), *inner_binding,
                                 0, inner_args, inner_rets);
    if (!inner.ok()) {
      return inner;
    }
    return frame.Result_<std::int32_t>(2, doubled);
  };
  nested_iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(nested_iface).ok());
  Result<ClientBinding*> outer =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "nested.Test");
  ASSERT_TRUE(outer.ok());

  std::int32_t result = 0;
  const std::int32_t lhs = 20, rhs = 1;
  const CallArg args[] = {CallArg::Of(lhs), CallArg::Of(rhs)};
  const CallRet rets[] = {CallRet::Of(&result)};
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **outer, 0, args, rets)
                  .ok());
  EXPECT_EQ(result, 42);
  // The thread unwound completely.
  EXPECT_FALSE(bed.kernel().thread(bed.client_thread()).HasLinkages());
  EXPECT_EQ(bed.kernel().thread(bed.client_thread()).current_domain(),
            bed.client_domain());
}

// --- Domain termination during a call (Section 5.3) ---

TEST(LrpcTermination, ServerSuicideDeliversCallFailed) {
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "suicide.Test");
  ProcedureDef def;
  def.name = "Die";
  LrpcRuntime* runtime = &bed.runtime();
  const DomainId server = bed.server_domain();
  def.handler = [runtime, server](ServerFrame&) -> Status {
    // An unhandled exception / CTRL-C equivalent: the domain terminates
    // while handling the call.
    return runtime->TerminateDomain(server).ok()
               ? Status::Ok()
               : Status(ErrorCode::kInvalidArgument);
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "suicide.Test");
  ASSERT_TRUE(binding.ok());

  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), **binding, 0, {}, {})
                .code(),
            ErrorCode::kCallFailed);
  // The thread survived, back home in the client.
  Thread& t = bed.kernel().thread(bed.client_thread());
  EXPECT_EQ(t.current_domain(), bed.client_domain());
  EXPECT_NE(t.state(), ThreadState::kDead);
  // Further calls on the dead server's bindings are revoked.
  EXPECT_EQ(bed.CallNull().code(), ErrorCode::kRevokedBinding);
}

TEST(LrpcTermination, ClientTerminationRevokesItsBindings) {
  Testbed bed;
  ASSERT_TRUE(bed.CallNull().ok());
  ASSERT_TRUE(bed.runtime().TerminateDomain(bed.client_domain()).ok());
  EXPECT_TRUE(bed.binding().record()->revoked);
}

// --- Captured threads (Section 5.3) ---

TEST(LrpcCaptured, AbandonedCallReturnsCallAborted) {
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "capture.Test");
  ProcedureDef def;
  def.name = "Capture";
  LrpcRuntime* runtime = &bed.runtime();
  ThreadId replacement = kNoThread;
  def.handler = [runtime, &replacement](ServerFrame& frame) -> Status {
    // The server "holds" the thread; the client gives up and abandons it
    // (in reality from another thread — the simulation folds the timeline).
    Result<ThreadId> fresh = runtime->AbandonCapturedCall(frame.thread());
    if (!fresh.ok()) {
      return fresh.status();
    }
    replacement = *fresh;
    return Status::Ok();
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "capture.Test");
  ASSERT_TRUE(binding.ok());

  EXPECT_EQ(bed.runtime()
                .Call(bed.cpu(0), bed.client_thread(), **binding, 0, {}, {})
                .code(),
            ErrorCode::kCallAborted);
  // The captured thread was destroyed in the kernel on release...
  EXPECT_EQ(bed.kernel().thread(bed.client_thread()).state(),
            ThreadState::kDead);
  // ...and the replacement thread stands ready in the client, carrying the
  // call-aborted exception.
  ASSERT_NE(replacement, kNoThread);
  Thread& fresh = bed.kernel().thread(replacement);
  EXPECT_EQ(fresh.home_domain(), bed.client_domain());
  EXPECT_EQ(fresh.pending_exception(), ThreadException::kCallAborted);
}

// --- Cross-machine transparency (Section 5.1) ---

TEST(LrpcRemote, RemoteBindingTakesNetworkPath) {
  TestbedOptions options;
  Testbed bed(options);
  // A server on another node.
  const DomainId far = bed.kernel().CreateDomain({.name = "far", .node = 1});
  Interface* iface = bed.runtime().CreateInterface(far, "far.Add");
  ProcedureDef def;
  def.name = "Add";
  def.params.push_back({.name = "a", .direction = ParamDirection::kIn, .size = 4});
  def.params.push_back({.name = "b", .direction = ParamDirection::kIn, .size = 4});
  def.params.push_back({.name = "sum", .direction = ParamDirection::kOut, .size = 4});
  def.handler = [](ServerFrame& frame) -> Status {
    Result<std::int32_t> a = frame.Arg<std::int32_t>(0);
    Result<std::int32_t> b = frame.Arg<std::int32_t>(1);
    if (!a.ok() || !b.ok()) {
      return Status(ErrorCode::kInvalidArgument);
    }
    return frame.Result_<std::int32_t>(2, *a + *b);
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());

  Result<ClientBinding*> binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "far.Add");
  ASSERT_TRUE(binding.ok());
  EXPECT_TRUE((*binding)->object().remote);

  const SimTime start = bed.cpu(0).clock();
  std::int32_t sum = 0;
  const std::int32_t lhs = 30, rhs = 12;
  const CallArg args[] = {CallArg::Of(lhs), CallArg::Of(rhs)};
  const CallRet rets[] = {CallRet::Of(&sum)};
  // Same Call() API: the remote branch is transparent.
  ASSERT_TRUE(bed.runtime()
                  .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args,
                        rets)
                  .ok());
  EXPECT_EQ(sum, 42);
  // A network call costs milliseconds, not 157us.
  EXPECT_GT(bed.cpu(0).clock() - start, Micros(1000));
}

}  // namespace
}  // namespace lrpc

namespace lrpc {
namespace {

TEST(LrpcOob, SegmentsAreReusedAcrossCalls) {
  // Out-of-band segments are per-call: a long-running client making many
  // oversized calls must not grow the segment table without bound.
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "oob.Reuse");
  ProcedureDef def;
  def.name = "Blob";
  def.params.push_back({.name = "data",
                        .direction = ParamDirection::kIn,
                        .size = 0,
                        .max_size = 64});
  def.handler = [](ServerFrame& frame) -> Status {
    return frame.ArgSize(0).ok() ? Status::Ok()
                                 : Status(ErrorCode::kInvalidArgument);
  };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "oob.Reuse");
  ASSERT_TRUE(binding.ok());

  std::vector<std::uint8_t> blob(8 * 1024, 0x7e);
  const CallArg args[] = {CallArg(blob.data(), blob.size())};
  for (int i = 0; i < 50; ++i) {
    CallStats stats;
    ASSERT_TRUE(bed.runtime()
                    .Call(bed.cpu(0), bed.client_thread(), **binding, 0, args,
                          {}, &stats)
                    .ok());
    ASSERT_TRUE(stats.used_out_of_band);
    // After each call the segment is back on the free list.
    ASSERT_EQ(bed.runtime().LiveOobSegments(), 0u);
  }
}

}  // namespace
}  // namespace lrpc
