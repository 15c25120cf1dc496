// Property: no matter where a SIGKILL lands in the call protocol — before
// the server accepts, inside the handler, or after the return doorbell —
// the client always gets a prompt, documented status (kPeerDied pre-accept,
// kCallFailed mid-call, kOk for a completed call) within the watchdog
// deadline, never a hang; and after collection the world holds zero leaked
// shared segments and zero leaked linkages.
//
// Seeded and replayable: each iteration derives its kill point from the
// seed, not from wall-clock timing.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/lrpc/chaos_testbed.h"
#include "src/proc/proc_host.h"
#include "src/proc/proc_world.h"

namespace lrpc {
namespace {

#define SKIP_WITHOUT_FORK()                                       \
  do {                                                            \
    if (!ProcHost::ForkPermitted()) {                             \
      GTEST_SKIP() << "fork is not permitted in this sandbox";    \
    }                                                             \
  } while (false)

// One world, one randomized kill point, one verdict. The injector's hit
// counter cycles the kill phase (pre-accept / in-body / post-return), so
// advancing it a seeded number of times before arming picks the phase.
void RunOneSchedule(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);

  ProcWorld::Options options;
  options.servers = 2;
  options.host.call_deadline_ms = 5000;  // The no-hang bound.
  ProcWorld world(options);
  ASSERT_TRUE(world.ok()) << world.spawn_status().detail();

  // A few healthy calls first (seeded count), so the kill can land on a
  // warmed channel mid-stream, not only on call #0.
  const int warmup = static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < warmup; ++i) {
    ASSERT_TRUE(world.CallNull(0).ok());
  }

  // Arm the injector to fire exactly once, at a seeded phase: the injector
  // counts hits per kind, and the call path maps hits % 3 to the phase.
  FaultInjector injector(
      FaultPlan::SeededRandom(1.0, {FaultKind::kPeerProcessDeath}), seed);
  const int phase = static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < (phase + 2) % 3; ++i) {
    // Burn hits so the armed call's phase is `phase` (0: pre-accept,
    // 1: in-body, 2: post-return). The call path reads the counter after
    // its own fire, so the armed call sees (burns + 1) % 3.
    (void)injector.Fire(FaultKind::kPeerProcessDeath);
  }
  world.kernel().set_fault_injector(&injector);

  std::int32_t sum = 0;
  const Status armed = world.CallAdd(2, 3, &sum, /*server=*/0);
  world.kernel().set_fault_injector(nullptr);

  switch (phase) {
    case 0:  // Pre-accept: retryable, handler never ran.
      EXPECT_EQ(armed.code(), ErrorCode::kPeerDied);
      EXPECT_TRUE(IsRetryable(armed.code()));
      break;
    case 1:  // In the handler: not retryable, may have executed.
      EXPECT_EQ(armed.code(), ErrorCode::kCallFailed);
      break;
    default:  // Post-return: the armed call itself completed.
      EXPECT_TRUE(armed.ok()) << ErrorCodeName(armed.code());
      EXPECT_EQ(sum, 5);
      break;
  }

  // Whatever the phase, the follow-up call must resolve promptly with a
  // documented failure — the corpse (or its collected remains) can never
  // hang a client. After phase 2 the corpse is found at the next call.
  const Status next = world.CallNull(0);
  EXPECT_TRUE(next.code() == ErrorCode::kPeerDied ||
              next.code() == ErrorCode::kRevokedBinding)
      << ErrorCodeName(next.code());

  // Reclamation audit: the dead server's channel segment is unmapped, its
  // endpoint gone; the survivor is untouched and still serving.
  EXPECT_EQ(world.host().live_endpoints(), 1u);
  EXPECT_EQ(world.host().mapped_segments(), 1u);
  EXPECT_FALSE(world.kernel().domain(world.server_domain(0)).alive());
  EXPECT_TRUE(world.CallNull(1).ok());

  // Zero leaked linkages: every A-stack the dead binding held was released
  // by the collector. The conservation audit is the chaos testbed's; here
  // the cheap global check is that no linkage anywhere is still in_use.
  for (const auto& binding : world.runtime().bindings()) {
    const BindingRecord* record =
        const_cast<ClientBinding&>(*binding).record();
    if (record == nullptr) {
      continue;
    }
    for (const auto& region : record->regions) {
      for (int i = 0; i < region->count(); ++i) {
        EXPECT_FALSE(region->linkage(i).in_use)
            << "leaked linkage " << i << " on binding " << record->id;
      }
    }
  }
}

TEST(ProcDeathPropertyTest, SeededKillPointsAlwaysResolvePromptly) {
  SKIP_WITHOUT_FORK();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RunOneSchedule(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(ProcDeathPropertyTest, ChaosReclamationAuditOverManySeeds) {
  SKIP_WITHOUT_FORK();
  // Full chaos schedules on the proc backend, with the stream's own
  // terminations plus injected process deaths: after teardown every
  // schedule must have held the invariant-checker audits (which include
  // A-stack conservation) and produced only documented statuses.
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    options.servers = 3;
    options.clients = 2;
    options.operations = 60;
    options.processors = 1;
    options.backend = RuntimeBackend::kMultiProcess;
    options.proc_factory = [](LrpcRuntime& runtime) {
      return std::make_unique<ProcHost>(runtime);
    };
    options.fault_kinds = {FaultKind::kPeerProcessDeath};
    options.fault_probability = 0.15;
    ChaosResult result = RunChaosSchedule(options);
    EXPECT_TRUE(result.ok())
        << "seed " << seed << ":\n"
        << (result.undocumented.empty()
                ? (result.violations.empty() ? "" : result.violations.front())
                : result.undocumented.front());
  }
}

}  // namespace
}  // namespace lrpc
