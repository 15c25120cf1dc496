// The async call path (docs/async.md): submit/flush legs that amortize the
// trap pair and the domain-transfer pair across a ring of pending calls, on
// every backend. Submit runs the client stub's call half of one call; Flush
// drives the batch through the synchronous path's phase functions
// (src/lrpc/call.cc) and adds only what batching changes — one trap pair,
// one Binding Object validation, one transfer pair, one doorbell, and the
// published completions. The two paths therefore produce the same results,
// charges and kernel-event multiset (the equivalence the property suite in
// tests/async_property_test.cc pins down).

#include "src/lrpc/async_call.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/fast_path.h"

namespace lrpc {

AsyncRing::AsyncRing(LrpcRuntime& runtime, ClientBinding& binding,
                     ThreadId thread, int depth)
    : runtime_(runtime),
      binding_(binding),
      thread_(thread),
      depth_(depth < 1 ? 1 : (depth > kMaxDepth ? kMaxDepth : depth)) {
  slots_.resize(static_cast<std::size_t>(depth_));
  for (Slot& slot : slots_) {
    // Reserve the per-slot vectors up front so the submit leg never grows a
    // container (the fast-path purity discipline, docs/fast_path.md).
    slot.ret_storage.reserve(8);
    slot.oob.reserve(4);
    slot.stats = &slot.call_stats;  // slots_ never reallocates.
  }
  comp_.resize(static_cast<std::size_t>(depth_));
}

std::uint32_t AsyncRing::Unreaped() const {
  return tail_mirror_ - comp_head_.load(std::memory_order_acquire);
}

bool AsyncRing::full() const {
  return submit_count_ + static_cast<int>(Unreaped()) >= depth_;
}

const AsyncCompletion* AsyncRing::Find(CallToken token) const {
  for (const AsyncCompletion& c : results_) {
    if (c.token == token) {
      return &c;
    }
  }
  return nullptr;
}

// --- The submission and flush legs. Same purity rules as the synchronous
// path (lrpc_lint, rule lrpc-fast-path): no allocation, no logging, no lock
// acquisition until the matching END. ---
LRPC_FAST_PATH_BEGIN("async submit/flush");

void AsyncRing::PublishCompletion(Slot& slot) {
  CompCell& cell = comp_[tail_mirror_ % static_cast<std::uint32_t>(depth_)];
  cell.value.token = slot.token;
  cell.value.procedure = slot.procedure;
  cell.value.status = slot.status;
  cell.value.stats = slot.call_stats;
  cell.callback = std::move(slot.callback);
  slot.callback = nullptr;
  ++tail_mirror_;
  // The release store pairs with Reap's acquire load of comp_tail_: the
  // cell writes above are visible before the new tail is. Never full: the
  // Submit gate bounds unreaped completions at depth_, the ring's size.
  comp_tail_.store(tail_mirror_, std::memory_order_release);
  runtime_.kernel_.NotifyEvent(KernelEventKind::kAsyncCompleted);
}

Result<CallToken> AsyncRing::Submit(Processor& cpu, int procedure,
                                    std::span<const CallArg> args,
                                    std::span<const CallRet> rets,
                                    AsyncCallback callback) {
  if (dead_) {
    return Status(ErrorCode::kNoSuchThread, "the ring's thread died");
  }
  if (full()) {
    return Status(ErrorCode::kAsyncQueueFull,
                  "reap completions before submitting more");
  }
  if (binding_.object().remote) {
    return Status(ErrorCode::kInvalidArgument,
                  "the async path is local-only; remote bindings take the "
                  "wire path");
  }

  // The client stub's call half, charge for charge the synchronous one.
  // Copy A happens here: the caller's argument bytes may go out of scope
  // before the flush, so the A-stack window is the call's storage from here
  // on.
  Slot& slot = slots_[static_cast<std::size_t>(submit_count_)];
  slot.procedure = procedure;
  slot.call_stats = CallStats{};
  slot.peer_died_before_accept = false;
  const Result<Thread*> caller =
      runtime_.ClientCallHalf(cpu, thread_, binding_, args, slot);
  if (!caller.ok()) {
    return caller.status();
  }

  // Claim the linkage — in_use, caller recorded — without pushing it: the
  // call is in flight, not executing. The claim seq is stamped at flush
  // time when the linkage actually goes on the stack, so I1's LIFO order
  // stays meaningful. The reservation registers with the thread for the
  // checker's I5 audit.
  const Status claimed = runtime_.ClaimLinkage(**caller, slot);
  if (!claimed.ok()) {
    runtime_.ReturnAStack(cpu, slot, /*requeue=*/true);
    return claimed;
  }
  (*caller)->RegisterAsyncPending(slot.astack);
  slot.token = ++next_token_;
  slot.ret_storage.assign(rets.begin(), rets.end());
  slot.rets = slot.ret_storage;
  slot.callback = std::move(callback);
  slot.status = Status::Ok();
  slot.finished = false;
  ++submit_count_;
  runtime_.kernel_.NotifyEvent(KernelEventKind::kAsyncSubmitted);
  return slot.token;
}

void AsyncRing::Flush(Processor& cpu) {
  if (submit_count_ == 0) {
    return;
  }
  Kernel& kernel = runtime_.kernel_;
  const std::span<Slot> pending{slots_.data(),
                                static_cast<std::size_t>(submit_count_)};

  // Ends a slot's call without executing (any more of) it; `requeue`
  // follows LrpcRuntime::EndCall's rule.
  Thread* t = kernel.FindThread(thread_);
  auto abandon = [&](Slot& slot, Status status, bool requeue) {
    slot.status = status;
    slot.finished = true;
    if (t != nullptr) {
      t->UnregisterAsyncPending(slot.astack);
    }
    runtime_.EndCall(cpu, slot, requeue);
  };
  auto binding_live = [&] {
    return kernel.bindings()
        .CheckValidate(binding_.object(), binding_.client())
        .ok();
  };
  auto publish_all = [&] {
    for (Slot& slot : pending) {
      PublishCompletion(slot);
    }
    submit_count_ = 0;
  };

  if (t == nullptr || t->state() == ThreadState::kDead) {
    // The ring's thread died between submit and flush. If the binding is
    // still live (the thread died alone) the claims release back to the
    // free list; if the client domain terminated, the regions died with
    // the binding and never rejoin a queue.
    dead_ = true;
    const bool live = binding_live();
    for (Slot& slot : pending) {
      abandon(slot,
              Status(ErrorCode::kNoSuchThread,
                     "the ring's thread died before the flush"),
              live);
    }
    publish_all();
    return;
  }

  // --- One call-leg trap and one Binding Object validation for the whole
  // batch (the first amortized cost); the rest of the kernel call leg runs
  // per call. ---
  kernel.ChargeTrap(cpu);
  const Result<BindingRecord*> record = runtime_.ValidateBinding(binding_);
  int runnable = 0;
  for (Slot& slot : pending) {
    Status status = runtime_.KernelCallLeg(cpu, record, slot);
    if (status.ok()) {
      status = runtime_.AssociateEStack(
          cpu, kernel.domain((*record)->server), slot);
    }
    if (status.ok()) {
      ++runnable;
    } else {
      abandon(slot, status, /*requeue=*/true);
    }
  }
  if (runnable == 0) {
    // Nothing survived validation: the batch bounces off the kernel the way
    // a rejected synchronous call does — back through the return trap.
    kernel.ChargeTrap(cpu);
    publish_all();
    return;
  }
  const BindingRecord& bound = **record;
  Domain& server = kernel.domain(bound.server);

  // --- One domain transfer into the server (the second amortized cost). ---
  const bool exchanged_on_call = kernel.EnterDomain(cpu, *t, server).exchanged;

  // --- Doorbell batching (docs/multiprocess.md): every channel-eligible
  // call crosses into the server process behind a single futex ring. ---
  ProcTransport::BatchCall proc_calls[kMaxDepth];
  std::size_t proc_count = 0;
  const bool proc_routed = runtime_.ProcRouted(bound);
  for (Slot& slot : pending) {
    slot.proc = nullptr;
    if (proc_routed && !slot.finished) {
      proc_calls[proc_count] = LrpcRuntime::ProcCallOf(slot);
      slot.proc = &proc_calls[proc_count++];
    }
  }
  if (proc_count > 0) {
    (void)runtime_.proc_->ExecuteBatch(
        bound.server, binding_.client(),
        std::span<ProcTransport::BatchCall>(proc_calls, proc_count),
        runtime_.InjectedKillPhase());
  }

  // --- Per-call server execution: push the linkage (one at a time, so the
  // collector, the captured-thread escape and the watchdog see exactly the
  // synchronous shape), run the handler, run the kernel return leg. ---
  bool poisoned = false;  // The ring's thread died (capture/abandon).
  bool unwound = false;   // The collector restarted the thread.
  for (Slot& slot : pending) {
    if (slot.finished) {
      continue;
    }
    if (poisoned) {
      // The thread died under an earlier entry: nothing can execute. A
      // capture leaves the binding intact (requeue); a revocation-driven
      // death means the regions died with the binding.
      abandon(slot,
              Status(ErrorCode::kCallAborted,
                     "ring thread was abandoned mid-batch"),
              binding_live());
      continue;
    }
    if (unwound) {
      // The server terminated under an earlier entry, revoking the binding,
      // so the A-stack never rejoins a free list. An entry the server
      // process finished before it died keeps its results.
      const bool ran =
          slot.proc != nullptr && runtime_.ReadProcLeg(*slot.proc, slot);
      Status status =
          ran ? LrpcRuntime::StatusAfterHandler(slot.call_stats.server_status)
              : LrpcRuntime::DeadPeerStatus(slot);
      if (ran && status.ok()) {
        status = runtime_.UnmarshalResults(cpu, slot.client->id(),
                                           *slot.pd->def, slot.astack,
                                           slot.rets, slot.stats);
      }
      abandon(slot, status, /*requeue=*/false);
      continue;
    }

    slot.call_stats.exchanged_on_call = exchanged_on_call;
    runtime_.EnterServerStub(cpu, *t, server, slot);
    // The reservation becomes the executing call: off the pending set, onto
    // the linkage stack, claim order stamped now.
    t->UnregisterAsyncPending(slot.astack);
    runtime_.PushLinkage(*t, bound, slot);
    if (call_deadline_ > 0) {
      kernel.ArmCallWatchdog(thread_, cpu.clock() + call_deadline_);
    }
    runtime_.ServerLeg(cpu, *t, bound.server, slot, slot.proc);
    slot.status = runtime_.KernelReturnLeg(cpu, *t, slot);
    if (call_deadline_ > 0) {
      kernel.DisarmCallWatchdog(thread_);
    }
    if (!slot.status.ok()) {
      // The call ended in the kernel. A dead thread poisons the ring;
      // otherwise the thread was restarted in the client, and later entries
      // complete against the revoked binding above.
      slot.finished = true;
      if (t->state() == ThreadState::kDead) {
        poisoned = true;
        dead_ = true;
      } else {
        unwound = true;
      }
    }
  }

  // --- One return trap and one domain transfer back into the client, then
  // the client stub's return half of every call that returned normally. ---
  kernel.ChargeTrap(cpu);
  const bool exchanged_on_return =
      !poisoned && !unwound &&
      kernel.EnterDomain(cpu, *t, kernel.domain(binding_.client()))
          .exchanged;
  for (Slot& slot : pending) {
    if (!slot.finished) {
      slot.call_stats.exchanged_on_return = exchanged_on_return;
      slot.status = runtime_.ClientReturnHalf(cpu, slot);
    }
  }
  publish_all();
}

LRPC_FAST_PATH_END("async submit/flush");

Result<CallFuture> AsyncRing::SubmitFuture(Processor& cpu, int procedure,
                                           std::span<const CallArg> args,
                                           std::span<const CallRet> rets) {
  Result<CallToken> token = Submit(cpu, procedure, args, rets);
  if (!token.ok()) {
    return token.status();
  }
  return CallFuture(this, *token);
}

int AsyncRing::Reap() {
  const std::uint32_t tail = comp_tail_.load(std::memory_order_acquire);
  int consumed = 0;
  while (head_mirror_ != tail) {
    CompCell& cell = comp_[head_mirror_ % static_cast<std::uint32_t>(depth_)];
    const AsyncCompletion value = cell.value;
    AsyncCallback callback = std::move(cell.callback);
    cell.callback = nullptr;
    ++head_mirror_;
    // Frees the cell for the producer; pairs with Submit's acquire load.
    comp_head_.store(head_mirror_, std::memory_order_release);
    if (callback) {
      callback(value);
    } else {
      results_.push_back(value);
    }
    ++consumed;
  }
  return consumed;
}

void AsyncRing::Drain(Processor& cpu) {
  Flush(cpu);
  Reap();
}

bool CallFuture::Poll() {
  LRPC_CHECK(ring_ != nullptr);
  ring_->Reap();
  return ring_->Find(token_) != nullptr;
}

const AsyncCompletion& CallFuture::Wait(Processor& cpu) {
  LRPC_CHECK(ring_ != nullptr);
  ring_->Flush(cpu);
  ring_->Reap();
  const AsyncCompletion* completion = ring_->Find(token_);
  LRPC_CHECK(completion != nullptr);
  return *completion;
}

const AsyncCompletion& CallFuture::result() const {
  const AsyncCompletion* completion = ring_->Find(token_);
  LRPC_CHECK(completion != nullptr);
  return *completion;
}

}  // namespace lrpc
