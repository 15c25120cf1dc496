// Property-based tests of argument marshaling: for randomly generated
// procedure signatures and payloads, the server must observe exactly the
// bytes the client sent, the client must receive exactly the bytes the
// server wrote, and the call must leave no residue (A-stacks requeued,
// linkages free, thread linkage stack empty). Parameterized over seeds.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/testbed.h"

namespace lrpc {
namespace {

struct GeneratedParam {
  ParamDesc desc;
  std::vector<std::uint8_t> in_payload;   // For in-params.
  std::vector<std::uint8_t> out_payload;  // For out-params (server writes).
};

// Generates a random but valid procedure signature plus payloads.
std::vector<GeneratedParam> GenerateParams(Rng& rng) {
  const int count = static_cast<int>(rng.NextInRange(1, 6));
  std::vector<GeneratedParam> params;
  for (int i = 0; i < count; ++i) {
    GeneratedParam p;
    p.desc.name = "p" + std::to_string(i);
    const int direction = static_cast<int>(rng.NextInRange(0, 2));
    p.desc.direction = direction == 0   ? ParamDirection::kIn
                       : direction == 1 ? ParamDirection::kOut
                                        : ParamDirection::kInOut;
    if (rng.NextBool(0.6)) {
      // Fixed size: 1..64 bytes.
      p.desc.size = static_cast<std::size_t>(rng.NextInRange(1, 64));
    } else {
      // Variable: cap 16..128, actual length 0..cap.
      p.desc.size = 0;
      p.desc.max_size = static_cast<std::size_t>(rng.NextInRange(16, 128));
    }
    if (p.desc.direction != ParamDirection::kOut && rng.NextBool(0.3)) {
      p.desc.flags.immutable = true;
    }
    const std::size_t in_len =
        p.desc.size > 0
            ? p.desc.size
            : static_cast<std::size_t>(
                  rng.NextInRange(0, static_cast<std::int64_t>(p.desc.max_size)));
    const std::size_t out_len = p.desc.size > 0 ? p.desc.size : in_len;
    for (std::size_t b = 0; b < in_len; ++b) {
      p.in_payload.push_back(static_cast<std::uint8_t>(rng.Next()));
    }
    for (std::size_t b = 0; b < out_len; ++b) {
      p.out_payload.push_back(static_cast<std::uint8_t>(rng.Next()));
    }
    params.push_back(std::move(p));
  }
  return params;
}

class MarshalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MarshalPropertyTest, RoundTripFidelityAndNoResidue) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  Testbed bed;

  for (int iteration = 0; iteration < 10; ++iteration) {
    auto params = GenerateParams(rng);

    // Build the interface. The handler checks every in-param against the
    // expected payload and writes the per-param out payloads.
    Interface* iface = bed.runtime().CreateInterface(
        bed.server_domain(),
        "prop.M" + std::to_string(GetParam()) + "_" + std::to_string(iteration));
    ProcedureDef def;
    def.name = "Check";
    for (const auto& p : params) {
      def.params.push_back(p.desc);
    }
    auto* params_ptr = &params;
    int server_runs = 0;
    def.handler = [params_ptr, &server_runs](ServerFrame& frame) -> Status {
      ++server_runs;
      const auto& ps = *params_ptr;
      for (std::size_t i = 0; i < ps.size(); ++i) {
        const GeneratedParam& p = ps[i];
        if (p.desc.is_in()) {
          Result<std::size_t> size = frame.ArgSize(static_cast<int>(i));
          if (!size.ok()) {
            return size.status();
          }
          if (*size != p.in_payload.size()) {
            return Status(ErrorCode::kInvalidArgument, "length mismatch");
          }
          std::vector<std::uint8_t> seen(*size);
          Result<std::size_t> n =
              frame.ReadArg(static_cast<int>(i), seen.data(), seen.size());
          if (!n.ok()) {
            return n.status();
          }
          // Guard the zero-length case: an empty vector's data() may be null.
          if (!seen.empty() &&
              std::memcmp(seen.data(), p.in_payload.data(), seen.size()) != 0) {
            return Status(ErrorCode::kInvalidArgument, "payload mismatch");
          }
        }
        if (p.desc.is_out()) {
          LRPC_RETURN_IF_ERROR(frame.WriteResult(
              static_cast<int>(i), p.out_payload.data(), p.out_payload.size()));
        }
      }
      return Status::Ok();
    };
    iface->AddProcedure(std::move(def));
    ASSERT_TRUE(bed.runtime().Export(iface).ok());
    Result<ClientBinding*> binding =
        bed.runtime().Import(bed.cpu(0), bed.client_domain(), iface->name());
    ASSERT_TRUE(binding.ok());

    // Assemble args/rets.
    std::vector<CallArg> args;
    std::vector<CallRet> rets;
    std::vector<std::vector<std::uint8_t>> ret_buffers;
    for (const auto& p : params) {
      if (p.desc.is_in()) {
        args.push_back(CallArg(p.in_payload.data(), p.in_payload.size()));
      }
      if (p.desc.is_out()) {
        ret_buffers.emplace_back(
            p.desc.size > 0 ? p.desc.size : p.desc.max_size, 0);
      }
    }
    std::size_t rb = 0;
    for (const auto& p : params) {
      if (p.desc.is_out()) {
        rets.push_back(CallRet(ret_buffers[rb].data(), ret_buffers[rb].size()));
        ++rb;
      }
    }

    Thread& thread = bed.kernel().thread(bed.client_thread());
    const std::size_t free_before = (*binding)->free_list(0).Snapshot().size();

    CallStats stats;
    const Status status = bed.runtime().Call(bed.cpu(0), bed.client_thread(),
                                             **binding, 0, args, rets, &stats);
    ASSERT_TRUE(status.ok()) << status << " (iteration " << iteration << ")";
    ASSERT_EQ(server_runs, 1);

    // The client received exactly what the server wrote.
    rb = 0;
    for (const auto& p : params) {
      if (!p.desc.is_out()) {
        continue;
      }
      // memcmp's pointers must be non-null even for zero lengths, and an
      // empty vector's data() may be null.
      if (!p.out_payload.empty()) {
        ASSERT_EQ(std::memcmp(ret_buffers[rb].data(), p.out_payload.data(),
                              p.out_payload.size()),
                  0)
            << "out param " << rb;
      }
      ++rb;
    }

    // No residue: the A-stack is back on its free list, no linkage is in use,
    // the thread's linkage stack is empty, and the thread is home.
    EXPECT_EQ((*binding)->free_list(0).Snapshot().size(), free_before);
    for (const auto& region : (*binding)->record()->regions) {
      for (int i = 0; i < region->count(); ++i) {
        EXPECT_FALSE(region->linkage(i).in_use);
      }
    }
    EXPECT_FALSE(thread.HasLinkages());
    EXPECT_EQ(thread.current_domain(), bed.client_domain());

    // Copy accounting: one A per in-param, one F per out-param, one E per
    // immutable in-param, nothing else.
    std::uint32_t expect_a = 0, expect_e = 0, expect_f = 0;
    for (const auto& p : params) {
      if (p.desc.is_in()) {
        ++expect_a;
        if (p.desc.flags.immutable) {
          ++expect_e;
        }
      }
      if (p.desc.is_out()) {
        ++expect_f;
      }
    }
    EXPECT_EQ(stats.copies.a, expect_a);
    EXPECT_EQ(stats.copies.e, expect_e);
    EXPECT_EQ(stats.copies.f, expect_f);
    EXPECT_EQ(stats.copies.b + stats.copies.c + stats.copies.d, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest, ::testing::Range(0, 12));

// The same signatures must also round-trip through the message-passing
// transport (shared slot layout, different copy plan) — checked against a
// smaller sweep in msg_rpc_property_test.cc.

class LatencyMonotonicityTest : public ::testing::TestWithParam<int> {};

// Property: call latency is monotone in payload size, and the LRPC cost of
// `n` bytes matches the closed-form copy model.
TEST_P(LatencyMonotonicityTest, LatencyMatchesCopyModel) {
  const std::size_t bytes = static_cast<std::size_t>(GetParam());
  Testbed bed;
  Interface* iface = bed.runtime().CreateInterface(
      bed.server_domain(), "prop.Lat" + std::to_string(bytes));
  ProcedureDef def;
  def.name = "Take";
  if (bytes > 0) {
    def.params.push_back(
        {.name = "data", .direction = ParamDirection::kIn, .size = bytes});
  }
  def.handler = [](ServerFrame&) { return Status::Ok(); };
  iface->AddProcedure(std::move(def));
  ASSERT_TRUE(bed.runtime().Export(iface).ok());
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), iface->name());
  ASSERT_TRUE(binding.ok());

  std::vector<std::uint8_t> payload(bytes, 0xab);
  std::vector<CallArg> args;
  if (bytes > 0) {
    args.push_back(CallArg(payload.data(), payload.size()));
  }
  ASSERT_TRUE(
      bed.runtime().Call(bed.cpu(0), bed.client_thread(), **binding, 0, args, {})
          .ok());
  const SimTime start = bed.cpu(0).clock();
  ASSERT_TRUE(
      bed.runtime().Call(bed.cpu(0), bed.client_thread(), **binding, 0, args, {})
          .ok());
  const SimDuration measured = bed.cpu(0).clock() - start;

  const MachineModel& model = bed.machine().model();
  SimDuration expected = Micros(157);
  if (bytes > 0) {
    expected += model.lrpc_copy_per_arg +
                Micros(model.lrpc_copy_per_byte_us * static_cast<double>(bytes));
  }
  EXPECT_NEAR(static_cast<double>(measured), static_cast<double>(expected), 2.0)
      << bytes << " bytes";
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, LatencyMonotonicityTest,
                         ::testing::Values(0, 1, 4, 16, 64, 200, 333, 512,
                                           1024));

}  // namespace
}  // namespace lrpc
