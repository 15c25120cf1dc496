#include "src/lrpc/supervised_call.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/kern/kernel.h"
#include "src/lrpc/call_tracer.h"
#include "src/sim/fault_injector.h"

namespace lrpc {

namespace {

// Breaker admission for one supervised call: false when the circuit refuses
// it; a null breaker admits everything. A state change (an open circuit's
// cooldown elapsing into half-open) is announced to the kernel's listener.
bool BreakerAdmits(Kernel& kernel, CircuitBreaker* breaker, SimTime now) {
  if (breaker == nullptr) {
    return true;
  }
  const CircuitState before = breaker->state();
  const bool admitted = breaker->AllowCall(now);
  if (breaker->state() != before) {
    kernel.NotifyEvent(KernelEventKind::kCircuitStateChange);
  }
  return admitted;
}

// Folds a supervised call's final status into the breaker, announcing any
// state change.
void BreakerRecord(Kernel& kernel, CircuitBreaker* breaker,
                   const Status& status, SimTime now) {
  if (breaker == nullptr) {
    return;
  }
  const CircuitState before = breaker->state();
  if (status.ok()) {
    breaker->OnSuccess();
  } else {
    breaker->OnFailure(now);
  }
  if (breaker->state() != before) {
    kernel.NotifyEvent(KernelEventKind::kCircuitStateChange);
  }
}

// The pause before a retry: the next backoff of the seeded schedule,
// recorded in `backoffs`, slept in simulated time and announced.
void BackOff(Processor& cpu, Kernel& kernel, const RetryPolicy& policy,
             Rng& rng, std::vector<SimDuration>& backoffs,
             SupervisedCall::Stats& stats) {
  const SimDuration pause = SupervisedBackoff(policy, backoffs.size(), rng);
  backoffs.push_back(pause);
  ++stats.retries;
  cpu.AdvanceTo(cpu.clock() + pause);
  kernel.NotifyEvent(KernelEventKind::kSupervisorRetry);
}

// The highest live thread id homed in `client`: after a captured-thread
// escape, the newest replacement AbandonCapturedCall created. kNoThread
// when the domain has no live thread left.
ThreadId NewestLiveThread(Kernel& kernel, DomainId client) {
  ThreadId newest = kNoThread;
  for (std::size_t i = 0; i < kernel.thread_count(); ++i) {
    Thread& cand = kernel.thread(static_cast<ThreadId>(i));
    if (cand.state() != ThreadState::kDead && cand.home_domain() == client) {
      newest = cand.id();
    }
  }
  return newest;
}

}  // namespace

SimDuration SupervisedBackoff(const RetryPolicy& policy,
                              std::size_t retry_index, Rng& rng) {
  double base =
      static_cast<double>(std::max<SimDuration>(policy.initial_backoff, 1));
  const double cap =
      static_cast<double>(std::max<SimDuration>(policy.max_backoff, 1));
  for (std::size_t i = 0; i < retry_index && base < cap; ++i) {
    base *= policy.multiplier;
  }
  base = std::min(base, cap);
  // Jitter scales the pause by [1 - j/2, 1 + j/2); the draw order is fixed
  // (one draw per retry), so the schedule replays exactly from the seed.
  const double factor = 1.0 + policy.jitter * (rng.NextDouble() - 0.5);
  const auto pause = static_cast<SimDuration>(base * factor);
  return pause > 0 ? pause : 1;
}

SupervisedCall::SupervisedCall(LrpcRuntime& runtime, SupervisionPolicy policy,
                               std::uint64_t seed)
    : runtime_(runtime), policy_(policy), rng_(seed) {}

void SupervisedCall::AdoptReplacement(SupervisionOutcome& out) {
  Kernel& kernel = runtime_.kernel();
  Thread* current = kernel.FindThread(out.thread);
  if (current != nullptr && current->state() != ThreadState::kDead) {
    return;  // The thread survived (e.g. unwound with an exception).
  }
  const ThreadId replacement = NewestLiveThread(kernel, out.binding->client());
  if (replacement != kNoThread) {
    out.thread = replacement;
    kernel.thread(replacement).TakeException();
  }
}

Status SupervisedCall::AttemptLrpc(Processor& cpu, SupervisionOutcome& out,
                                   int procedure,
                                   std::span<const CallArg> args,
                                   std::span<const CallRet> rets,
                                   CallStats* stats) {
  Kernel& kernel = runtime_.kernel();
  const SimTime started = cpu.clock();
  const bool watched = policy_.deadline > 0;
  if (watched) {
    kernel.ArmCallWatchdog(out.thread, started + policy_.deadline);
  }
  Status status = runtime_.Call(cpu, out.thread, *out.binding, procedure,
                                args, rets, stats);
  if (!watched) {
    return status;
  }
  ThreadId replacement = kNoThread;
  const bool fired = kernel.ConsumeWatchdogFire(out.thread, &replacement);
  kernel.DisarmCallWatchdog(out.thread);
  if (fired) {
    // The watchdog abandoned the over-deadline call; the captured thread
    // died in the kernel. Continue on the replacement thread the escape
    // created, clearing its pending call-aborted exception.
    out.deadline_expired = true;
    out.watchdog_abandoned = true;
    ++stats_.deadline_expiries;
    if (replacement != kNoThread) {
      out.thread = replacement;
      kernel.thread(replacement).TakeException();
    }
    return Status(ErrorCode::kDeadlineExceeded, "watchdog abandoned the call");
  }
  if (cpu.clock() > started + policy_.deadline) {
    // The call returned on its own, but past the deadline (the watchdog may
    // have fired late — FaultKind::kWatchdogLateFire). The caller still
    // observes the overrun; any results written are discarded by contract.
    out.deadline_expired = true;
    ++stats_.deadline_expiries;
    return Status(ErrorCode::kDeadlineExceeded, "call returned past deadline");
  }
  return status;
}

SupervisionOutcome SupervisedCall::Call(Processor& cpu, ThreadId thread,
                                        ClientBinding* binding, int procedure,
                                        std::span<const CallArg> args,
                                        std::span<const CallRet> rets,
                                        CallStats* stats) {
  SupervisionOutcome out;
  out.thread = thread;
  out.binding = binding;
  ++stats_.calls;

  Kernel& kernel = runtime_.kernel();
  const SimTime supervised_start = cpu.clock();
  const std::string_view name = binding->interface_spec()->name();

  CircuitBreaker* breaker = policy_.breaker_enabled
                                ? &binding->EnsureBreaker(policy_.breaker)
                                : nullptr;
  if (!BreakerAdmits(kernel, breaker, cpu.clock())) {
    out.breaker_rejected = true;
    ++stats_.breaker_rejections;
    out.status = Status(ErrorCode::kCircuitOpen, "circuit breaker is open");
    Trace(cpu, out, supervised_start, procedure);
    return out;
  }

  Status last = Status::Ok();
  int retries_left = std::max(1, policy_.retry.max_attempts) - 1;
  int rebinds_left = policy_.max_rebinds;
  bool via_fallback = false;  // The binding is unusable; calls go over msg RPC.

  while (true) {
    ++out.attempts;
    if (via_fallback) {
      last = fallback_->CallFallback(cpu, out.thread, binding->client(), name,
                                     procedure, args, rets);
    } else {
      last = AttemptLrpc(cpu, out, procedure, args, rets, stats);
    }

    if (last.ok() || out.deadline_expired) {
      break;  // Success, or a terminal deadline overrun.
    }
    if (last.code() == ErrorCode::kCallAborted ||
        last.code() == ErrorCode::kCallFailed) {
      // The handler may have executed: never re-issued (no idempotency
      // promise). An abort killed the thread; adopt its replacement.
      if (last.code() == ErrorCode::kCallAborted) {
        AdoptReplacement(out);
      }
      break;
    }
    if (!via_fallback && (last.code() == ErrorCode::kRevokedBinding ||
                          last.code() == ErrorCode::kDomainTerminated)) {
      // Graceful degradation: the binding is dead, but the service may not
      // be. Re-import through the nameserver; if the interface is no longer
      // exported over LRPC, fail over to message RPC. The injection point
      // makes the recovery target read as dead (the uncommon case of the
      // uncommon case), surfacing the original error.
      if (FaultPointFires(kernel.fault_injector(),
                          FaultKind::kFailoverTargetDead)) {
        break;
      }
      if (policy_.rebind && rebinds_left > 0) {
        Result<ClientBinding*> rebound =
            runtime_.Import(cpu, binding->client(), name);
        if (rebound.ok()) {
          --rebinds_left;
          out.binding = *rebound;
          ++out.rebinds;
          ++stats_.rebinds;
          kernel.NotifyEvent(KernelEventKind::kFailover);
          continue;  // Immediate retry on the fresh binding.
        }
      }
      if (policy_.failover && fallback_ != nullptr && fallback_->Serves(name)) {
        via_fallback = true;
        out.msg_failover = true;
        ++stats_.msg_failovers;
        kernel.NotifyEvent(KernelEventKind::kFailover);
        continue;  // Immediate retry over the message transport.
      }
      break;  // No recovery route left.
    }
    if (!last.Retryable()) {
      break;
    }
    if (retries_left <= 0) {
      // With a budget of one attempt no retry was ever made, so the
      // transient error surfaces unchanged rather than as kRetriesExhausted.
      if (policy_.retry.max_attempts > 1) {
        last = Status(ErrorCode::kRetriesExhausted,
                      "transient failures outlasted the retry budget");
      }
      break;
    }
    --retries_left;
    BackOff(cpu, kernel, policy_.retry, rng_, out.backoffs, stats_);
  }

  out.status = last;
  if (last.ok() && (out.attempts > 1 || out.rebinds > 0 || out.msg_failover)) {
    out.recovered = true;
    ++stats_.recovered_calls;
  }
  BreakerRecord(kernel, breaker, last, cpu.clock());
  Trace(cpu, out, supervised_start, procedure);
  return out;
}

void SupervisedCall::Trace(Processor& cpu, const SupervisionOutcome& out,
                           SimTime started, int procedure) {
  CallTracer* tracer = runtime_.tracer();
  if (tracer == nullptr) {
    return;
  }
  TraceEvent event;
  event.kind = TraceEventKind::kSupervised;
  event.start = started;
  event.end = cpu.clock();
  event.client = out.binding != nullptr ? out.binding->client() : kNoDomain;
  event.server = out.binding != nullptr && out.binding->record() != nullptr
                     ? out.binding->record()->server
                     : kNoDomain;
  event.procedure = procedure;
  event.result = out.status.code();
  tracer->Record(event);
}

// --- SupervisedAsync: the same policies over a pipelined ring. ---

SupervisedAsync::SupervisedAsync(LrpcRuntime& runtime, AsyncRing& ring,
                                 SupervisionPolicy policy, std::uint64_t seed)
    : runtime_(runtime), ring_(ring), policy_(policy), rng_(seed) {}

SupervisedAsync::Pending* SupervisedAsync::FindPending(
    CallToken current_token) {
  for (Pending& pending : pending_) {
    if (!pending.done && pending.current_token == current_token) {
      return &pending;
    }
  }
  return nullptr;
}

Result<CallToken> SupervisedAsync::Submit(Processor& cpu, int procedure,
                                          std::span<const CallArg> args,
                                          std::span<const CallRet> rets) {
  Kernel& kernel = runtime_.kernel();
  ++stats_.calls;
  if (!BreakerAdmits(kernel, Breaker(), cpu.clock())) {
    ++stats_.breaker_rejections;
    return Status(ErrorCode::kCircuitOpen, "circuit breaker is open");
  }

  Pending pending;
  pending.outcome.procedure = procedure;
  pending.retries_left = std::max(1, policy_.retry.max_attempts) - 1;

  // Retain the argument bytes: the ring copies them into the A-stack now,
  // but a retryable failure is re-marshalled from this copy at Drain time,
  // long after the caller's originals may have died.
  std::size_t total = 0;
  for (const CallArg& arg : args) {
    total += arg.len;
  }
  pending.arg_bytes.resize(total);
  pending.args.reserve(args.size());
  std::size_t at = 0;
  for (const CallArg& arg : args) {
    if (arg.len > 0 && arg.data != nullptr) {
      std::memcpy(pending.arg_bytes.data() + at, arg.data, arg.len);
    }
    pending.args.emplace_back(pending.arg_bytes.data() + at, arg.len);
    at += arg.len;
  }
  pending.rets.assign(rets.begin(), rets.end());

  auto collect = [this](const AsyncCompletion& c) { reaped_.push_back(c); };
  Result<CallToken> token =
      ring_.Submit(cpu, procedure, std::span<const CallArg>(pending.args),
                   std::span<const CallRet>(pending.rets), collect);
  // Submission-time transients (A-stack exhaustion under the kFail policy)
  // retry here, under the same budget and backoff schedule a flush-time
  // transient would get.
  while (!token.ok() && token.status().Retryable() &&
         pending.retries_left > 0) {
    --pending.retries_left;
    BackOff(cpu, kernel, policy_.retry, rng_, pending.outcome.backoffs,
            stats_);
    ++pending.outcome.attempts;
    token = ring_.Submit(cpu, procedure, std::span<const CallArg>(pending.args),
                         std::span<const CallRet>(pending.rets), collect);
  }
  if (!token.ok()) {
    Status status = token.status();
    if (status.Retryable() && policy_.retry.max_attempts > 1) {
      status = Status(ErrorCode::kRetriesExhausted,
                      "transient failures outlasted the retry budget");
    }
    BreakerRecord(kernel, Breaker(), status, cpu.clock());
    return status;
  }
  ++pending.outcome.attempts;
  pending.outcome.token = *token;
  pending.current_token = *token;
  pending_.push_back(std::move(pending));
  return *token;
}

void SupervisedAsync::Finalize(Processor& cpu, Pending& pending,
                               Status status) {
  pending.outcome.status = status;
  pending.done = true;
  if (status.ok() && pending.outcome.attempts > 1) {
    pending.outcome.recovered = true;
    ++stats_.recovered_calls;
  }
  BreakerRecord(runtime_.kernel(), Breaker(), status, cpu.clock());
}

CircuitBreaker* SupervisedAsync::Breaker() {
  return policy_.breaker_enabled
             ? &ring_.binding().EnsureBreaker(policy_.breaker)
             : nullptr;
}

void SupervisedAsync::Resubmit(Processor& cpu, Pending& pending) {
  BackOff(cpu, runtime_.kernel(), policy_.retry, rng_,
          pending.outcome.backoffs, stats_);
  ++pending.outcome.attempts;
  Result<CallToken> token = ring_.Submit(
      cpu, pending.outcome.procedure, std::span<const CallArg>(pending.args),
      std::span<const CallRet>(pending.rets),
      [this](const AsyncCompletion& c) { reaped_.push_back(c); });
  if (!token.ok()) {
    // The ring itself refused (queue full, a dead ring that could not be
    // revived): surface the refusal rather than spinning on it.
    Finalize(cpu, pending, token.status());
    return;
  }
  pending.current_token = *token;
}

bool SupervisedAsync::ReviveRing(bool* revived) {
  Kernel& kernel = runtime_.kernel();
  ThreadId replacement = kNoThread;
  const bool fired = kernel.ConsumeWatchdogFire(ring_.thread(), &replacement);
  if (replacement == kNoThread) {
    // A plain captured-thread escape (no watchdog): adopt the replacement
    // AbandonCapturedCall parked in the client domain.
    replacement = NewestLiveThread(kernel, ring_.binding().client());
  }
  if (replacement == kNoThread) {
    *revived = false;
    return fired;
  }
  kernel.thread(replacement).TakeException();
  ring_.AdoptThread(replacement);
  *revived = true;
  return fired;
}

std::vector<AsyncSupervisionOutcome> SupervisedAsync::Drain(Processor& cpu) {
  ring_.set_call_deadline(policy_.deadline);
  while (true) {
    bool any_in_flight = false;
    for (const Pending& pending : pending_) {
      if (!pending.done) {
        any_in_flight = true;
        break;
      }
    }
    if (!any_in_flight) {
      break;
    }

    reaped_.clear();
    ring_.Flush(cpu);
    bool fired = false;
    bool revived = true;
    if (ring_.dead()) {
      fired = ReviveRing(&revived);
    }
    ring_.Reap();  // Runs the submission callbacks, filling reaped_.

    // Completions publish in slot order, so when the flush abandoned the
    // ring's thread, the first kCallAborted is the call that was executing
    // (it may have run in the server: terminal, or kDeadlineExceeded when
    // the watchdog did the abandoning) and every later one is collateral —
    // abandoned before reaching the server, safe to re-issue.
    bool first_abort = true;
    for (const AsyncCompletion& c : reaped_) {
      Pending* pending = FindPending(c.token);
      if (pending == nullptr) {
        continue;  // Not ours (an unsupervised user of the same ring).
      }
      Status status = c.status;
      bool collateral = false;
      if (status.code() == ErrorCode::kCallAborted) {
        const bool captured = first_abort;
        first_abort = false;
        if (captured) {
          if (fired) {
            pending->outcome.deadline_expired = true;
            pending->outcome.watchdog_abandoned = true;
            ++stats_.deadline_expiries;
            Finalize(cpu, *pending,
                     Status(ErrorCode::kDeadlineExceeded,
                            "watchdog abandoned the call"));
          } else {
            // The handler may have executed: never re-issued.
            Finalize(cpu, *pending, status);
          }
          continue;
        }
        collateral = true;
      } else if (status.code() == ErrorCode::kNoSuchThread) {
        collateral = true;  // Died between submit and flush: never ran.
      }
      if (!collateral && !status.Retryable()) {
        // Success, or a terminal error. Revocation lands here: there is no
        // async rebind/failover (see the class comment), so kRevokedBinding
        // and kDomainTerminated surface unchanged.
        Finalize(cpu, *pending, status);
        continue;
      }
      if (pending->retries_left <= 0) {
        if (!collateral && policy_.retry.max_attempts > 1) {
          status = Status(ErrorCode::kRetriesExhausted,
                          "transient failures outlasted the retry budget");
        }
        Finalize(cpu, *pending, status);
        continue;
      }
      --pending->retries_left;
      Resubmit(cpu, *pending);
    }

    if (!revived) {
      // The client domain has no live thread left: nothing pending can ever
      // execute again.
      for (Pending& pending : pending_) {
        if (!pending.done) {
          Finalize(cpu, pending,
                   Status(ErrorCode::kNoSuchThread,
                          "no replacement thread to adopt"));
        }
      }
      break;
    }
  }

  std::vector<AsyncSupervisionOutcome> outcomes;
  outcomes.reserve(pending_.size());
  for (Pending& pending : pending_) {
    outcomes.push_back(std::move(pending.outcome));
  }
  pending_.clear();
  reaped_.clear();
  return outcomes;
}

}  // namespace lrpc
