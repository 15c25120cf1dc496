// SupervisedCall: the call supervision layer (docs/supervision.md).
//
// Wraps the LRPC fast path with composable robustness policies without
// touching it: per-call deadlines enforced by the kernel call watchdog,
// seeded exponential backoff + jitter for transient errors, a per-binding
// circuit breaker (src/lrpc/circuit_breaker.h), and graceful degradation on
// revocation/termination — transparent re-import through the nameserver,
// falling back to message RPC (same marshalled bytes, different transport)
// when the interface is no longer exported over LRPC.
//
// The raw fast path stays allocation-free; everything here runs before the
// first trap or after the last one. Retries touch only errors the call
// never began executing under (Status::Retryable()); a call that may have
// run in the server (kCallFailed, kCallAborted) is never re-issued.
//
// Determinism: given the same seed, fault plan and schedule, a supervised
// call makes the same attempts, sleeps the same jittered backoffs and
// returns the same Status (see tests/supervision_property_test.cc).

#ifndef SRC_LRPC_SUPERVISED_CALL_H_
#define SRC_LRPC_SUPERVISED_CALL_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/lrpc/async_call.h"
#include "src/lrpc/circuit_breaker.h"
#include "src/lrpc/runtime.h"
#include "src/sim/time.h"

namespace lrpc {

// Transport-agnostic hook for message-RPC failover. Implemented by
// MsgRpcSystem (src/rpc/msg_rpc.h); declared here so lrpc_core does not
// depend on the baseline RPC library.
class FallbackTransport {
 public:
  virtual ~FallbackTransport() = default;
  // Exports `iface`'s procedures as a message-RPC service hosted by
  // `domain` (which must stay alive for the fallback to work).
  virtual Status ExportFallback(DomainId domain, const Interface* iface) = 0;
  // True when `name` is served by a live fallback server.
  virtual bool Serves(std::string_view name) const = 0;
  // The failover call: same marshalled bytes, message-RPC transport.
  virtual Status CallFallback(Processor& cpu, ThreadId thread, DomainId client,
                              std::string_view name, int procedure,
                              std::span<const CallArg> args,
                              std::span<const CallRet> rets) = 0;
};

struct RetryPolicy {
  int max_attempts = 3;  // Total tries, including the first.
  SimDuration initial_backoff = 20 * kMicrosecond;
  double multiplier = 2.0;
  SimDuration max_backoff = 2 * kMillisecond;
  double jitter = 0.5;   // Backoff is scaled by [1 - j/2, 1 + j/2).
};

struct SupervisionPolicy {
  // Per-call deadline; 0 disables the watchdog. On expiry the kernel
  // abandons the call through the captured-thread escape and the caller
  // observes kDeadlineExceeded on a fresh thread.
  SimDuration deadline = 0;
  RetryPolicy retry;
  bool breaker_enabled = true;
  BreakerPolicy breaker;
  // Cap on transparent re-imports within one supervised call.
  int max_rebinds = 2;
  bool rebind = true;    // Re-import on kRevokedBinding/kDomainTerminated.
  bool failover = true;  // Fall back to message RPC when rebinding fails.
};

// Everything a caller can learn about how its call was shepherded. `thread`
// and `binding` are the possibly-replaced identities to continue with: a
// watchdog abandonment leaves the original thread captured and dead, and a
// rebind retires the original binding.
struct SupervisionOutcome {
  Status status;
  int attempts = 0;
  int rebinds = 0;
  bool msg_failover = false;
  bool deadline_expired = false;
  bool watchdog_abandoned = false;
  bool breaker_rejected = false;
  bool recovered = false;  // Succeeded, but only thanks to supervision.
  ThreadId thread = kNoThread;
  ClientBinding* binding = nullptr;
  // The jittered pause taken before each retry, in firing order; a pure
  // function of the supervisor seed + the fault schedule.
  std::vector<SimDuration> backoffs;
};

// The retry_index-th backoff of the supervised schedule: exponential,
// capped, jittered from `rng` (exactly one draw per retry, so a schedule
// replays from the seed). Shared by SupervisedCall and SupervisedAsync.
SimDuration SupervisedBackoff(const RetryPolicy& policy,
                              std::size_t retry_index, Rng& rng);

class SupervisedCall {
 public:
  // `seed` drives backoff jitter (and nothing else).
  SupervisedCall(LrpcRuntime& runtime, SupervisionPolicy policy,
                 std::uint64_t seed);

  // The message-RPC failover target; null disables transport failover.
  void set_fallback(FallbackTransport* transport) { fallback_ = transport; }

  const SupervisionPolicy& policy() const { return policy_; }

  // The supervised call. On return, continue with outcome.thread and
  // outcome.binding — they may differ from the arguments after a watchdog
  // abandonment or a rebind.
  SupervisionOutcome Call(Processor& cpu, ThreadId thread,
                          ClientBinding* binding, int procedure,
                          std::span<const CallArg> args,
                          std::span<const CallRet> rets,
                          CallStats* stats = nullptr);

  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t retries = 0;
    std::uint64_t rebinds = 0;
    std::uint64_t msg_failovers = 0;
    std::uint64_t deadline_expiries = 0;
    std::uint64_t breaker_rejections = 0;
    std::uint64_t recovered_calls = 0;  // Non-first-try successes.
  };
  const Stats& stats() const { return stats_; }

 private:
  // One LRPC attempt under the watchdog; maps a watchdog abandonment (and a
  // late-detected overrun) to kDeadlineExceeded and adopts the replacement
  // thread into `out`.
  Status AttemptLrpc(Processor& cpu, SupervisionOutcome& out, int procedure,
                     std::span<const CallArg> args,
                     std::span<const CallRet> rets, CallStats* stats);

  // After a kCallAborted not caused by the watchdog: the thread died in the
  // kernel; find and adopt the replacement AbandonCapturedCall parked in
  // the client domain.
  void AdoptReplacement(SupervisionOutcome& out);

  // Records the supervised outcome as a kSupervised tracer event.
  void Trace(Processor& cpu, const SupervisionOutcome& out, SimTime started,
             int procedure);

  LrpcRuntime& runtime_;
  SupervisionPolicy policy_;
  Rng rng_;
  FallbackTransport* fallback_ = nullptr;
  Stats stats_;
};

// What SupervisedAsync reports per supervised submission, in submission
// order. `token` is the first ring token the submission got; resubmissions
// get fresh tokens internally, the outcome keeps the original.
struct AsyncSupervisionOutcome {
  CallToken token = 0;
  int procedure = -1;
  Status status;
  int attempts = 0;
  bool deadline_expired = false;
  bool watchdog_abandoned = false;
  bool recovered = false;  // Succeeded, but only on a resubmission.
  std::vector<SimDuration> backoffs;  // Pauses before each resubmission.
};

// SupervisedAsync: the supervision layer over an AsyncRing (docs/async.md).
//
// Submit gates the per-binding circuit breaker — an open circuit fails fast
// with kCircuitOpen before any A-stack is claimed. Drain drives the ring to
// quiescence: each flush runs under the policy deadline (the kernel call
// watchdog abandons an over-deadline server execution; the supervisor maps
// that abandonment to kDeadlineExceeded and adopts the replacement thread
// into the ring), retryable completions are resubmitted under the same
// seeded backoff schedule as SupervisedCall, and every final status folds
// into the breaker.
//
// A watchdog abandonment poisons the whole in-flight batch, but only the
// call that was executing overran: the collateral entries were abandoned
// before they ever reached the server, so Drain resubmits them on the
// replacement thread (under the same retry budget) instead of surfacing
// their kCallAborted.
//
// Deliberately absent, unlike SupervisedCall: rebind and message-RPC
// failover. A pipelined batch's argument windows live in the binding's own
// A-stack regions, which die with the binding on revocation — there is
// nothing left to re-issue from. Revocation is terminal per call; the
// caller re-imports and builds a new ring.
class SupervisedAsync {
 public:
  // The ring must outlive the supervisor; `seed` drives backoff jitter.
  SupervisedAsync(LrpcRuntime& runtime, AsyncRing& ring,
                  SupervisionPolicy policy, std::uint64_t seed);

  AsyncRing& ring() { return ring_; }
  const SupervisionPolicy& policy() const { return policy_; }

  // The supervised submission leg: breaker gate, then AsyncRing::Submit.
  // Argument bytes are retained internally so failed attempts can be
  // re-issued at Drain time; every CallRet destination must stay alive
  // until Drain returns its outcome.
  Result<CallToken> Submit(Processor& cpu, int procedure,
                           std::span<const CallArg> args,
                           std::span<const CallRet> rets);

  // Flushes, reaps and retries until every supervised submission has a
  // final status; returns the outcomes in submission order and resets the
  // supervisor for the next batch.
  std::vector<AsyncSupervisionOutcome> Drain(Processor& cpu);

  const SupervisedCall::Stats& stats() const { return stats_; }

 private:
  // One supervised submission: enough retained state to re-issue it.
  struct Pending {
    AsyncSupervisionOutcome outcome;
    CallToken current_token = 0;  // Changes on every resubmission.
    std::vector<std::uint8_t> arg_bytes;  // Owned copy of the input bytes.
    std::vector<CallArg> args;            // Point into arg_bytes.
    std::vector<CallRet> rets;
    int retries_left = 0;
    bool done = false;
  };

  Pending* FindPending(CallToken current_token);
  // Final status: breaker fold, recovery accounting, done.
  void Finalize(Processor& cpu, Pending& pending, Status status);
  // The ring binding's breaker; null when the policy disables it.
  CircuitBreaker* Breaker();
  // Backoff pause + kSupervisorRetry + AsyncRing::Submit with a fresh
  // token; finalizes the entry instead when the ring refuses terminally.
  void Resubmit(Processor& cpu, Pending& pending);
  // After a flush left the ring dead: consume a watchdog fire and adopt the
  // replacement thread (the watchdog's, or the newest live thread in the
  // client domain for a plain captured-thread escape). Returns whether the
  // abandonment was the watchdog's doing.
  bool ReviveRing(bool* revived);

  LrpcRuntime& runtime_;
  AsyncRing& ring_;
  SupervisionPolicy policy_;
  Rng rng_;
  SupervisedCall::Stats stats_;
  std::vector<Pending> pending_;
  // Completions of the current reap, collected by the submission callbacks.
  std::vector<AsyncCompletion> reaped_;
};

}  // namespace lrpc

#endif  // SRC_LRPC_SUPERVISED_CALL_H_
