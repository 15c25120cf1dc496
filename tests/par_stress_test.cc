// Stress tests for the real-thread engine (docs/concurrency.md): N worker
// threads over M client domains hammer Null/Add/BigIn against one server
// for a wall-clock budget, then the run is audited post-hoc:
//
//   - the kernel invariant checker (I1-I4 plus A-stack conservation) finds
//     nothing
//   - every free list still holds exactly the registered A-stack set (none
//     lost, none duplicated)
//   - the bytes the server summed equal the bytes the clients sent, and the
//     server executed exactly one handler per successful call
//
// Budget: LRPC_PAR_STRESS_MS (default 400 ms per configuration). The suite
// carries the `stress` ctest label; `ctest -LE stress` skips it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/kern/invariant_checker.h"
#include "src/lrpc/chaos_testbed.h"
#include "src/par/par_world.h"

namespace lrpc {
namespace {

std::chrono::milliseconds StressBudget() {
  const char* env = std::getenv("LRPC_PAR_STRESS_MS");
  long ms = 400;
  if (env != nullptr && *env != '\0') {
    ms = std::strtol(env, nullptr, 10);
    if (ms <= 0) {
      ms = 400;
    }
  }
  return std::chrono::milliseconds(ms);
}

struct WorkerTotals {
  std::uint64_t successes = 0;
  std::uint64_t astack_exhausted = 0;
  std::uint64_t other_failures = 0;
  std::uint64_t bytes_sent = 0;   // Sum of bytes in accepted BigIn payloads.
  std::uint64_t add_mismatches = 0;
};

void HammerAndAudit(ParWorldOptions options) {
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);

  std::vector<WorkerTotals> totals(
      static_cast<std::size_t>(options.workers));
  ParallelMachine::RunReport report = world.par()->RunWorkers(
      StressBudget(), [&world, &totals](int w) -> Status {
        WorkerTotals& mine = totals[static_cast<std::size_t>(w)];
        // Deterministic per-worker mix; the host scheduler provides the
        // interleaving nondeterminism this test is after.
        const std::uint64_t turn = mine.successes + mine.astack_exhausted +
                                   mine.other_failures;
        Status status;
        switch (turn % 3) {
          case 0:
            status = world.CallNull(w);
            break;
          case 1: {
            const auto a = static_cast<std::int32_t>(turn * 2654435761u);
            const auto b = static_cast<std::int32_t>(w * 40503u + 17);
            std::int32_t sum = 0;
            status = world.CallAdd(w, a, b, &sum);
            if (status.ok()) {
              const auto expected = static_cast<std::int32_t>(
                  static_cast<std::uint32_t>(a) +
                  static_cast<std::uint32_t>(b));
              if (sum != expected) {
                ++mine.add_mismatches;
              }
            }
            break;
          }
          default: {
            std::uint8_t data[kParBigSize];
            std::uint64_t payload = 0;
            for (std::size_t i = 0; i < kParBigSize; ++i) {
              data[i] = static_cast<std::uint8_t>((turn + i * 31 +
                                                   static_cast<std::uint64_t>(
                                                       w)) &
                                                  0xff);
              payload += data[i];
            }
            status = world.CallBigIn(w, data);
            if (status.ok()) {
              mine.bytes_sent += payload;
            }
            break;
          }
        }
        if (status.ok()) {
          ++mine.successes;
        } else if (status.code() == ErrorCode::kAStacksExhausted) {
          // Admission control under contention, not a defect: the fixed
          // A-stack set was momentarily all claimed.
          ++mine.astack_exhausted;
        } else {
          ++mine.other_failures;
        }
        return status;
      });

  EXPECT_GT(report.calls, 0u);

  std::uint64_t successes = 0;
  std::uint64_t bytes_sent = 0;
  for (const WorkerTotals& t : totals) {
    successes += t.successes;
    bytes_sent += t.bytes_sent;
    EXPECT_EQ(t.other_failures, 0u);
    EXPECT_EQ(t.add_mismatches, 0u);
  }

  // Checksum balance: the server observed exactly the accepted payloads.
  EXPECT_EQ(world.server_bytes_seen(), bytes_sent);
  // One handler execution per successful call, none lost, none doubled.
  EXPECT_EQ(world.server_calls_seen(), successes);

  // Conservation: every free list holds exactly its registered set again.
  EXPECT_TRUE(world.par()->AuditConservation().ok())
      << world.par()->AuditConservation().detail();

  // Post-hoc kernel audit: the checker is constructed after the workers
  // joined (it is not itself thread-safe) and replays its full invariant
  // suite over the quiesced kernel.
  InvariantChecker checker(world.kernel());
  RegisterAStackConservationCheck(checker, world.runtime());
  checker.CheckNow("after parallel stress run");
  EXPECT_TRUE(checker.ok())
      << (checker.violations().empty() ? "" : checker.violations().front());
}

TEST(ParStress, LockFreeSingleDomain) {
  ParWorldOptions options;
  options.workers = 4;
  options.domains = 1;
  options.astacks_per_group = 8;
  options.lock_free = true;
  HammerAndAudit(options);
}

TEST(ParStress, LockFreeManyDomains) {
  ParWorldOptions options;
  options.workers = 4;
  options.domains = 3;
  options.astacks_per_group = 4;
  options.lock_free = true;
  HammerAndAudit(options);
}

TEST(ParStress, LockedBaselineSingleDomain) {
  ParWorldOptions options;
  options.workers = 4;
  options.domains = 1;
  options.astacks_per_group = 8;
  options.lock_free = false;
  HammerAndAudit(options);
}

TEST(ParStress, TightAStackBudgetExercisesExhaustion) {
  // More workers than A-stacks: the admission path (pop fails, call fails
  // fast, stack returns) runs constantly and must stay balanced.
  ParWorldOptions options;
  options.workers = 4;
  options.domains = 1;
  options.astacks_per_group = 2;
  options.lock_free = true;
  HammerAndAudit(options);
}

}  // namespace
}  // namespace lrpc
