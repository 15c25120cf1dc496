// The chaos testbed: a multi-domain, multi-client world driven through
// thousands of seeded schedules with fault injection armed, while the
// kernel invariant checker re-validates every event.
//
// One schedule = one world (several server domains exporting the paper's
// procedures, several client domains each bound to every server) plus one
// seeded operation stream (calls with random arguments, server domain
// terminations, fresh imports). Every operation must either complete
// correctly — results are verified, not just statuses — or fail with the
// Status documented for the fault that fired (docs/fault_injection.md).
// Determinism: a schedule's trace is a pure function of its options, so the
// same seed replays the same events exactly.

#ifndef SRC_LRPC_CHAOS_TESTBED_H_
#define SRC_LRPC_CHAOS_TESTBED_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/kern/invariant_checker.h"
#include "src/lrpc/runtime.h"
#include "src/lrpc/supervised_call.h"

namespace lrpc {

struct ChaosOptions {
  std::uint64_t seed = 1;
  int servers = 3;           // Server domains, one exported interface each.
  int clients = 3;           // Client domains; each binds to every server.
  int operations = 60;       // Length of the operation stream.
  // On the simulator, processor 1 of two or more idles in the first
  // server's context.
  int processors = 2;
  // Probability that any one armed injection point fires.
  double fault_probability = 0.08;
  bool fault_injection = true;
  // The stream may terminate server domains outright (not just via the
  // injected mid-call termination).
  bool allow_termination = true;
  // Injection kinds to arm; empty means the default call-path set.
  std::vector<FaultKind> fault_kinds;

  // Async pipelining (docs/async.md): when positive, every unsupervised
  // call operation submits a seeded burst of 1..async_depth calls through
  // an AsyncRing and drains it, instead of issuing one synchronous call —
  // so every armed FaultKind also fires inside the batched submit/flush
  // legs. Ignored when supervision is on (the supervisor wraps synchronous
  // calls; SupervisedAsync is its own layer).
  int async_depth = 0;

  // Supervision (docs/supervision.md): when on, every call is shepherded by
  // a SupervisedCall — deadline watchdog, seeded retry/backoff, per-binding
  // circuit breaker, rebind-or-failover on revocation/termination.
  bool supervision = false;
  SupervisionPolicy supervision_policy;
  // Builds the message-RPC failover transport, hosted by a dedicated
  // fallback domain the schedule never terminates. A factory rather than a
  // transport: lrpc_core cannot link the baseline RPC library, so stress
  // tests supply MsgRpcSystem from the outside. Null disables failover.
  std::function<std::unique_ptr<FallbackTransport>(Kernel&)> fallback_factory;

  // Multi-process backend (docs/multiprocess.md): the runtime is built with
  // this backend, and when `proc_factory` is set every server domain is
  // forked as a real process right after its export. A factory for the same
  // reason as above: lrpc_core cannot link the proc library, so tests hand
  // in a ProcHost from the outside. Callers must check fork is permitted
  // first (ProcHost::ForkPermitted) or the schedule fails at setup.
  RuntimeBackend backend = RuntimeBackend::kDeterministicSim;
  std::function<std::unique_ptr<ProcTransport>(LrpcRuntime&)> proc_factory;
};

struct ChaosResult {
  bool ok() const { return violations.empty() && undocumented.empty(); }

  // Invariant violations seen by the checker (capped; the count is exact).
  std::vector<std::string> violations;
  std::uint64_t violation_count = 0;
  // Operations whose outcome was outside the documented set: a status no
  // fault maps to, or a wrong result from a call that claimed success.
  std::vector<std::string> undocumented;

  // One line per operation plus the fault firing record; byte-identical
  // across runs with the same options.
  std::string trace;

  std::uint64_t events_seen = 0;    // Kernel events the checker validated.
  std::uint64_t faults_fired = 0;
  int distinct_fault_kinds = 0;
  std::array<std::uint64_t, kFaultKindCount> fired_by_kind = {};
  int calls_attempted = 0;
  int calls_ok = 0;
  int calls_failed = 0;
  int terminations = 0;
  int imports_attempted = 0;
  int async_bursts = 0;  // Call ops routed through an AsyncRing batch.

  // Supervision counters (zero when ChaosOptions::supervision is off).
  int calls_recovered = 0;      // Succeeded only thanks to supervision.
  int rebinds = 0;
  int msg_failovers = 0;
  int deadline_expiries = 0;
  int breaker_rejections = 0;
  std::uint64_t watchdog_fires = 0;
};

// Builds the world, runs the schedule, tears everything down.
ChaosResult RunChaosSchedule(const ChaosOptions& options);

// Registers LrpcRuntime::AuditAStacks, the A-stack conservation audit,
// with `checker`, to run after every kernel event while calls are in
// flight. (The checker cannot see the client-side free lists itself.)
void RegisterAStackConservationCheck(InvariantChecker& checker,
                                     const LrpcRuntime& runtime);

}  // namespace lrpc

#endif  // SRC_LRPC_CHAOS_TESTBED_H_
