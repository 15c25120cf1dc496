// The LRPC call protocol (Section 3.2) as phase functions, the synchronous
// driver that runs one call through them, and the cross-machine branch
// (Section 5.1). AsyncRing::Flush (src/lrpc/async_call.cc) runs a batch of
// calls through the same phases.

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/fast_path.h"
#include "src/common/logging.h"
#include "src/lrpc/runtime.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/wire.h"

namespace lrpc {

namespace {

// Virtual-page touch trace of one call, for the TLB model (counts only; the
// latency consequence of misses is folded into the calibrated constants).
// The layout reproduces the paper's estimate of 43 TLB misses per Null call
// in steady state on a single processor (Section 4).
constexpr int kClientStubPages = 5;    // Stub code, caller stack, queue.
constexpr std::uint64_t kClientBindingPageOffset = 8;
constexpr int kClientBindingPages = 2; // Binding Object, A-stack list.
constexpr std::uint64_t kClientAStackPageOffset = 6;
constexpr int kKernelCallPages = 14;   // Call-leg kernel code + tables.
constexpr std::uint64_t kKernelReturnPageOffset = 16;
constexpr int kKernelReturnPages = 11; // Return-leg kernel code + tables.
constexpr int kServerPages = 10;       // Entry stub, procedure, E-stack, PD.

}  // namespace

Status LrpcRuntime::CallByName(Processor& cpu, ThreadId thread,
                               ClientBinding& binding, std::string_view procedure,
                               std::span<const CallArg> args,
                               std::span<const CallRet> rets, CallStats* stats) {
  Result<int> index = binding.interface_spec()->FindProcedure(procedure);
  if (!index.ok()) {
    return index.status();
  }
  return Call(cpu, thread, binding, *index, args, rets, stats);
}

// The public entry point: runs the call and folds its per-call stats into
// the runtime-wide counters.
Status LrpcRuntime::Call(Processor& cpu, ThreadId thread_id,
                         ClientBinding& binding, int procedure,
                         std::span<const CallArg> args,
                         std::span<const CallRet> rets, CallStats* stats) {
  return CallAccounted(cpu, thread_id, binding, procedure, args, rets, stats,
                       nullptr);
}

Status LrpcRuntime::CallInline(Processor& cpu, ThreadId thread_id,
                               ClientBinding& binding, int procedure,
                               const void* block_in, void* block_out,
                               CallStats* stats) {
  const Interface* iface = binding.interface_spec();
  if (procedure < 0 || procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = iface->pd(procedure);
  if (!pd.inline_eligible) {
    return Status(ErrorCode::kInvalidArgument,
                  "procedure is not inline-eligible");
  }
  if (binding.object().remote) {
    // Uncommon case: the wire path has no register window, so re-expand the
    // caller's window into per-parameter spans and take the general path.
    const ProcedureDef& def = *pd.def;
    std::vector<CallArg> args;
    std::vector<CallRet> rets;
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      const ParamDesc& p = def.params[i];
      const std::size_t offset = ParamOffset(def, i);
      if (p.is_in()) {
        args.emplace_back(static_cast<const std::byte*>(block_in) + offset,
                          p.size);
      }
      if (p.is_out()) {
        rets.emplace_back(static_cast<std::byte*>(block_out) + offset, p.size);
      }
    }
    return CallAccounted(cpu, thread_id, binding, procedure, args, rets,
                         stats, nullptr);
  }
  const InlineWindow win{static_cast<const std::byte*>(block_in),
                         static_cast<std::byte*>(block_out)};
  return CallAccounted(cpu, thread_id, binding, procedure, {}, {}, stats,
                       &win);
}

Status LrpcRuntime::CallAccounted(Processor& cpu, ThreadId thread_id,
                                  ClientBinding& binding, int procedure,
                                  std::span<const CallArg> args,
                                  std::span<const CallRet> rets,
                                  CallStats* stats, const InlineWindow* win) {
  CallStats local_stats;
  CallStats& cs = stats != nullptr ? *stats : local_stats;
  cs = CallStats{};
  // "Deciding whether a call is cross-domain or cross-machine is made at
  // the earliest possible moment — the first instruction of the stub"
  // (Section 5.1). CallInline re-expands remote windows before this point.
  auto call = [&] {
    return binding.object().remote
               ? RemoteCall(cpu, thread_id, binding, procedure, args, rets, cs)
               : CallLocal(cpu, thread_id, binding, procedure, args, rets, cs,
                           win);
  };
  if (backend_ == RuntimeBackend::kParallelHost) {
    // Workers call concurrently: the trace and the runtime-wide counters
    // are shared mutable state, so a parallel call reports through `cs`
    // only and each worker aggregates its own.
    return call();
  }
  const SimTime trace_start = cpu.clock();
  const Status status = call();

  if (tracer_ != nullptr) {
    TraceEvent event;
    event.kind = binding.object().remote ? TraceEventKind::kRemoteCall
                                         : TraceEventKind::kCall;
    event.start = trace_start;
    event.end = cpu.clock();
    event.client = binding.client();
    event.server = binding.record() != nullptr ? binding.record()->server
                                               : kNoDomain;
    event.procedure = procedure;
    event.bytes = static_cast<std::uint32_t>(cs.astack_bytes);
    event.result = status.code();
    event.exchanged = cs.exchanged_on_call || cs.exchanged_on_return;
    tracer_->Record(event);
  }

  ++stats_.calls;
  if (binding.object().remote) {
    ++stats_.remote_calls;
  }
  if (!status.ok()) {
    ++stats_.failed_calls;
  }
  if (cs.exchanged_on_call || cs.exchanged_on_return) {
    ++stats_.exchange_calls;
  }
  if (cs.used_secondary_astack) {
    ++stats_.secondary_astack_calls;
  }
  if (cs.used_out_of_band) {
    ++stats_.out_of_band_transfers;
  }
  stats_.copies += cs.copies;
  stats_.astack_bytes += cs.astack_bytes;
  return status;
}

// The common-case call: client stub, kernel validation and transfer, server
// stub, and the return leg. Everything here is "a handful of moves and a
// trap" — lrpc_lint rejects allocation, logging and lock acquisition until
// the matching END (rule lrpc-fast-path).
LRPC_FAST_PATH_BEGIN("lrpc call/return");

// The register window must hold any eligible procedure's full slot span.
static_assert(kInlineSlotSpanLimit <= kLinkageRegsSize,
              "inline slot-span cap exceeds the linkage register window");

// Inline-path copy A: the caller already packed its arguments at their slot
// offsets, so the whole window moves with one memcpy — no per-argument
// rights-checked segment writes. The model charges stay per-argument
// (summed, then charged once) so the deterministic backend's ledger and
// clock are tick-identical to the general path.
void LrpcRuntime::MarshalInline(Processor& cpu, const ProcedureDef& def,
                                const ProcedureDescriptor& pd,
                                LinkageRecord& linkage,
                                const InlineWindow& win, CallStats& cs) {
  if (pd.slot_span > 0) {
    std::memcpy(linkage.regs, win.block_in, pd.slot_span);
  }
  const MachineModel& model = machine().model();
  SimDuration charge = 0;
  for (const ParamDesc& p : def.params) {
    if (!p.is_in()) {
      continue;
    }
    charge += model.lrpc_copy_per_arg +
              Micros(model.lrpc_copy_per_byte_us * static_cast<double>(p.size));
    cs.copies.Count(CopyOp::kA, p.size);
    cs.astack_bytes += p.size;
  }
  if (charge > 0) {
    cpu.Charge(CostCategory::kArgumentCopy, charge);
  }
}

// Inline-path copy F: the register window comes back to the caller's block
// in one move; the stub scatters results from their slot offsets.
void LrpcRuntime::UnmarshalInline(Processor& cpu, const ProcedureDef& def,
                                  const ProcedureDescriptor& pd,
                                  LinkageRecord& linkage,
                                  const InlineWindow& win, CallStats& cs) {
  if (pd.slot_span > 0) {
    std::memcpy(win.block_out, linkage.regs, pd.slot_span);
  }
  const MachineModel& model = machine().model();
  SimDuration charge = 0;
  for (const ParamDesc& p : def.params) {
    if (!p.is_out()) {
      continue;
    }
    charge += model.lrpc_copy_per_arg +
              Micros(model.lrpc_copy_per_byte_us * static_cast<double>(p.size));
    cs.copies.Count(CopyOp::kF, p.size);
    cs.astack_bytes += p.size;
  }
  if (charge > 0) {
    cpu.Charge(CostCategory::kArgumentCopy, charge);
  }
}

// Flattened: the phases below are inlined into this driver, so splitting
// them out adds no calls to the synchronous path (AsyncRing, in another
// translation unit, calls them out of line).
[[gnu::flatten]] Status LrpcRuntime::CallLocal(
    Processor& cpu, ThreadId thread_id, ClientBinding& binding, int procedure,
    std::span<const CallArg> args, std::span<const CallRet> rets,
    CallStats& cs, const InlineWindow* win) {
  CallSlot slot{.procedure = procedure, .win = win, .rets = rets, .stats = &cs};
  const Result<Thread*> caller =
      ClientCallHalf(cpu, thread_id, binding, args, slot);
  if (!caller.ok()) {
    return caller.status();
  }
  Thread& t = **caller;

  // Trap with the A-stack address, Binding Object and procedure identifier
  // in registers. The kernel verifies all three, claims the linkage and
  // pushes it on the thread's linkage stack, then finds an E-stack.
  kernel_.ChargeTrap(cpu);
  const Result<BindingRecord*> record = ValidateBinding(binding);
  Status status = KernelCallLeg(cpu, record, slot);
  if (status.ok()) {
    status = ClaimLinkage(t, slot);
  }
  if (status.ok()) {
    PushLinkage(t, **record, slot);
    status = AssociateEStack(cpu, kernel_.domain((*record)->server), slot);
    if (!status.ok()) {
      t.PopLinkage();
      slot.astack.linkage().in_use = false;
    }
  }
  if (!status.ok()) {
    // The kernel rejects the call and returns to the stub.
    kernel_.ChargeTrap(cpu);
    ReturnAStack(cpu, slot, /*requeue=*/true);
    kernel_.NotifyEvent(KernelEventKind::kCallReturned);
    return status;
  }
  const DomainId server_id = (*record)->server;
  Domain& server = kernel_.domain(server_id);

  // Reload the virtual memory registers with the server domain's — or, on
  // a simulated multiprocessor, exchange processors with one idling in the
  // server's context (Section 3.4).
  cs.exchanged_on_call = kernel_.EnterDomain(cpu, t, server).exchanged;
  EnterServerStub(cpu, t, server, slot);
  ProcTransport::BatchCall proc_call;
  const bool proc_routed = ProcRouted(**record);
  if (proc_routed) {
    proc_call = ProcCallOf(slot);
    proc_call.leg = proc_->Execute(
        server_id, slot.client->id(), procedure, proc_call.inline_window,
        proc_call.window, proc_call.window_len, &proc_call.handler_status,
        InjectedKillPhase());
  }
  ServerLeg(cpu, t, server_id, slot, proc_routed ? &proc_call : nullptr);

  // Return: back through the server stub's trap.
  kernel_.ChargeTrap(cpu);
  LRPC_RETURN_IF_ERROR(KernelReturnLeg(cpu, t, slot));

  // Switch (or exchange) back into the client; likely exchangeable for
  // calls that return quickly (Section 3.4).
  cs.exchanged_on_return = kernel_.EnterDomain(cpu, t, *slot.client).exchanged;
  return ClientReturnHalf(cpu, slot);
}

// --- The call protocol's phases. ---

Result<Thread*> LrpcRuntime::EnterClientStub(Processor& cpu,
                                             ThreadId thread_id,
                                             const ClientBinding& binding) {
  Thread* t = kernel_.FindThread(thread_id);
  if (t == nullptr || t->state() == ThreadState::kDead) {
    return Status(ErrorCode::kNoSuchThread);
  }
  if (t->current_domain() != binding.client()) {
    return Status(ErrorCode::kPermissionDenied,
                  "thread is not executing in the binding's client domain");
  }
  // A simple LRPC needs only one formal procedure call — into the client
  // stub (Section 3.3).
  cpu.Charge(CostCategory::kProcedureCall, machine().model().procedure_call);
  return t;
}

// Client stub, call half: take an A-stack off the procedure's LIFO free list
// and push the arguments onto it (copy A; Modula2+ conventions with a
// separate argument pointer make this directly usable by the server) — or,
// on the inline path, move the caller's packed window into the linkage
// record's registers with a single copy (Section 2.2).
Result<Thread*> LrpcRuntime::ClientCallHalf(Processor& cpu, ThreadId thread_id,
                                            ClientBinding& binding,
                                            std::span<const CallArg> args,
                                            CallSlot& slot) {
  Result<Thread*> caller = EnterClientStub(cpu, thread_id, binding);
  if (!caller.ok()) {
    return caller;
  }
  const Interface* iface = binding.interface_spec();
  if (slot.procedure < 0 || slot.procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = iface->pd(slot.procedure);
  slot.pd = &pd;
  slot.client = kernel_.FindDomain(binding.client());
  LRPC_CHECK(slot.client != nullptr);

  // The stub cost outside the two free-list critical sections; the pop and
  // the push are charged while the group's lock is held.
  const MachineModel& model = machine().model();
  cpu.Charge(CostCategory::kClientStub,
             model.lrpc_client_stub - 2 * model.astack_queue_lock_hold);
  const std::uint64_t pages = slot.client->page_base();
  kernel_.TouchPages(cpu, pages, kClientStubPages);
  kernel_.TouchPages(cpu, pages + kClientBindingPageOffset,
                     kClientBindingPages);
  kernel_.TouchPages(cpu, pages + kClientAStackPageOffset, 1);

  // The injection point makes the free list read as empty: the pool is
  // exhausted (Section 5.2). Growth is single-threaded, so Import pins
  // parallel-host bindings to kFail.
  slot.free_list = &binding.free_list(pd.astack_group);
  Result<AStackRef> astack =
      FaultPointFires(kernel_.fault_injector(), FaultKind::kAStackExhaustion)
          ? Result<AStackRef>(
                Status(ErrorCode::kAStacksExhausted, "fault injection: empty"))
          : slot.free_list->Pop(cpu, model.astack_queue_lock_hold);
  if (!astack.ok()) {
    if (binding.exhaustion_policy() != AStackExhaustionPolicy::kAllocateMore) {
      return astack.status();
    }
    LRPC_RETURN_IF_ERROR(GrowAStacks(cpu, binding, pd.astack_group));
    astack = slot.free_list->Pop(cpu, model.astack_queue_lock_hold);
    if (!astack.ok()) {
      return astack.status();
    }
  }
  // The pop transferred ownership of the A-stack/linkage pair to this
  // thread (the free list's release/acquire edge), so the linkage is
  // already writable here — the inline path fills its register window
  // before the trap, exactly where the general path fills the A-stack.
  slot.astack = *astack;
  if (slot.astack.region->secondary()) {
    slot.stats->used_secondary_astack = true;
  }
  if (slot.win != nullptr) {
    MarshalInline(cpu, *pd.def, pd, slot.astack.linkage(), *slot.win,
                  *slot.stats);
    return caller;
  }
  const Status marshal = MarshalArguments(cpu, slot.client->id(), *pd.def,
                                          slot.astack, args, slot.stats,
                                          &slot.oob);
  if (!marshal.ok()) {
    ReturnAStack(cpu, slot, /*requeue=*/true);
    return marshal;
  }
  return caller;
}

// Verifies the Binding Object against the kernel's table through the
// per-thread binding cache: a repeat call skips even the seqlock read until
// a table mutation bumps the generation (docs/fast_path.md).
Result<BindingRecord*> LrpcRuntime::ValidateBinding(
    const ClientBinding& binding) {
  return kernel_.bindings().ValidateCached(binding.object(), binding.client());
}

// Kernel, call leg, in the context of the client's thread: charges, then
// the checks of the Binding Object's record, the procedure identifier and
// the A-stack. The primary region validates with a simple range check;
// secondary regions (later allocations) take slightly more time (Section
// 5.2). On the multi-process backend, a call the server process's channel
// cannot carry ends here too.
Status LrpcRuntime::KernelCallLeg(Processor& cpu,
                                  const Result<BindingRecord*>& record,
                                  const CallSlot& slot) {
  const MachineModel& model = machine().model();
  cpu.Charge(CostCategory::kKernelPath, model.lrpc_kernel_call);
  kernel_.TouchPages(cpu, kernel_.kernel_page_base(), kKernelCallPages);
  if (!record.ok()) {
    return record.status();
  }
  const auto* kernel_iface = static_cast<const Interface*>((*record)->pdl);
  if (slot.procedure >= kernel_iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const AStackRef& astack = slot.astack;
  const auto& regions = (*record)->regions;
  if (std::none_of(regions.begin(), regions.end(), [&](const auto& region) {
        return region.get() == astack.region;
      })) {
    return Status(ErrorCode::kInvalidAStack, "A-stack not of this binding");
  }
  if (astack.region->secondary()) {
    cpu.Charge(CostCategory::kKernelPath, model.lrpc_secondary_astack_check);
  }
  const Result<int> index = astack.region->ValidateOffset(astack.offset());
  if (!index.ok() || *index != astack.index) {
    return Status(ErrorCode::kInvalidAStack);
  }
  if (backend_ == RuntimeBackend::kMultiProcess &&
      ProcRefuses(**record, slot)) {
    return Status(ErrorCode::kMessageTooLarge,
                  "the server process's channel cannot carry this call");
  }
  return Status::Ok();
}

// Ensures no other thread is currently using this A-stack/linkage pair, then
// claims the linkage and records the caller's return state.
Status LrpcRuntime::ClaimLinkage(const Thread& t, const CallSlot& slot) {
  LinkageRecord& linkage = slot.astack.linkage();
  if (linkage.in_use) {
    return Status(ErrorCode::kAStackInUse);
  }
  linkage.in_use = true;
  linkage.caller_thread = t.id();
  linkage.caller_domain = slot.client->id();
  linkage.procedure = static_cast<std::uint32_t>(slot.procedure);
  linkage.return_address = 0x4000 + static_cast<std::uint64_t>(slot.procedure);
  linkage.saved_stack_pointer = t.user_sp();
  return Status::Ok();
}

// Pushes the claimed linkage on the thread's linkage stack, stamping the
// claim order: from here the call is executing.
void LrpcRuntime::PushLinkage(Thread& t, const BindingRecord& record,
                              const CallSlot& slot) {
  LinkageRecord& linkage = slot.astack.linkage();
  linkage.valid = true;
  linkage.seq = t.NextLinkageSeq();
  linkage.binding = record.id;
  t.PushLinkage(slot.astack);
  kernel_.NotifyEvent(KernelEventKind::kLinkageClaimed);
}

// Finds an execution stack in the server's domain (lazy A-stack/E-stack
// association).
Status LrpcRuntime::AssociateEStack(Processor& cpu, Domain& server,
                                    CallSlot& slot) {
  const Result<int> estack =
      backend_ == RuntimeBackend::kParallelHost
          ? kernel_.EnsureEStackParallel(server, slot.astack, cpu.clock())
          : kernel_.EnsureEStack(server, slot.astack, cpu.clock());
  if (!estack.ok()) {
    return estack.status();
  }
  slot.estack = *estack;
  return Status::Ok();
}

// The kernel upcalls directly into the server's entry stub at the address
// in the PD, with the thread running off the call's E-stack, primed so the
// stub can branch to the procedure's first instruction (Section 3.3).
void LrpcRuntime::EnterServerStub(Processor& cpu, Thread& t, Domain& server,
                                  const CallSlot& slot) {
  t.set_user_sp(0x80000000ULL +
                static_cast<std::uint64_t>(slot.estack) * 0x10000ULL);
  cpu.Charge(CostCategory::kServerStub, machine().model().lrpc_server_stub);
  kernel_.TouchPages(cpu, server.page_base(), kServerPages);
}

// Multi-process backend (docs/multiprocess.md): true when the binding's
// server is a real process, whose calls cross the shared channel instead of
// running in-process.
bool LrpcRuntime::ProcRouted(const BindingRecord& record) const {
  return backend_ == RuntimeBackend::kMultiProcess && proc_ != nullptr &&
         proc_->Serves(record.server);
}

// True for a call to a server process that its channel cannot carry: one
// with out-of-band segments (Section 5.2), or a window over the channel's
// payload. The kernel call leg refuses it rather than run the handler in
// the client process. The cheap tests come first, so a call the channel
// carries pays no transport lookup here.
bool LrpcRuntime::ProcRefuses(const BindingRecord& record,
                              const CallSlot& slot) const {
  return proc_ != nullptr &&
         (!slot.oob.empty() ||
          ProcCallOf(slot).window_len > proc_->payload_capacity()) &&
         proc_->Serves(record.server);
}

// The window of `slot`'s call that crosses the channel: the linkage
// record's register window for an inline call, otherwise the bytes of the
// A-stack the procedure's parameters occupy, not the group's whole bucket.
ProcTransport::BatchCall LrpcRuntime::ProcCallOf(const CallSlot& slot) {
  const bool inline_window = slot.win != nullptr;
  ProcTransport::BatchCall call;
  call.procedure = slot.procedure;
  call.inline_window = inline_window;
  call.window = inline_window ? slot.astack.linkage().regs
                              : slot.astack.region->segment().DataUnchecked() +
                                    slot.astack.offset();
  call.window_len = inline_window ? slot.pd->slot_span : slot.pd->window_bytes;
  return call;
}

// A FaultKind::kPeerProcessDeath injection arms one kill for the next
// transport leg. The phase cycles with the per-kind hit counter, so a
// seeded schedule replays the same kill at the same protocol point.
ProcTransport::KillPhase LrpcRuntime::InjectedKillPhase() {
  FaultInjector* injector = kernel_.fault_injector();
  if (!FaultPointFires(injector, FaultKind::kPeerProcessDeath)) {
    return ProcTransport::KillPhase::kNone;
  }
  switch (injector->hits(FaultKind::kPeerProcessDeath) % 3) {
    case 0: return ProcTransport::KillPhase::kBeforeAccept;
    case 1: return ProcTransport::KillPhase::kInServerBody;
    default: return ProcTransport::KillPhase::kAfterReturn;
  }
}

// Reads a transport leg into the call: the handler's status when the server
// process ran it. Otherwise the process died — before accepting the call
// (kPeerDied: the handler never ran) or after — and this returns false.
bool LrpcRuntime::ReadProcLeg(const ProcTransport::BatchCall& call,
                              CallSlot& slot) {
  slot.peer_died_before_accept = call.leg.code() == ErrorCode::kPeerDied;
  slot.stats->server_status = call.leg.ok() ? call.handler_status : Status::Ok();
  return call.leg.ok();
}

// Server side, after the upcall: the handler runs in-process through a
// ServerFrame, or has already run in the server's real process, whose
// transport leg `proc_call` reports.
void LrpcRuntime::ServerLeg(Processor& cpu, Thread& t, DomainId server,
                            CallSlot& slot,
                            const ProcTransport::BatchCall* proc_call) {
  if (proc_call == nullptr) {
    const ProcedureDef& def = *slot.pd->def;
    ServerFrame frame(this, cpu, def, slot.astack, server, slot.client->id(),
                      t.id(), &slot.stats->copies);
    if (slot.win != nullptr) {
      // Inline path: the frame serves the handler straight from the linkage
      // record's register window; no A-stack slot decoding, no segment
      // rights checks.
      frame.AttachRegisterWindow(slot.astack.linkage().regs);
    }
    Status server_status = frame.PrepareArguments();
    if (server_status.ok() && def.handler) {
      server_status = def.handler(frame);
    }
    slot.stats->server_status = server_status;
  } else if (!ReadProcLeg(*proc_call, slot)) {
    // The real server process is a corpse: revoke its bindings, unwind the
    // visiting thread and reclaim its segments — the same collector the
    // simulated terminations run, now with a reaped child behind it.
    (void)TerminateDomain(server);
    kernel_.NotifyEvent(KernelEventKind::kPeerDeath);
  }

  // Injected Section 5.3 emergencies, landing while the thread is still in
  // the server: the server domain terminates mid-call, or the client gives
  // up on its captured thread. Both run the real kernel recovery paths.
  FaultInjector* injector = kernel_.fault_injector();
  if (FaultPointFires(injector, FaultKind::kDomainTermination)) {
    (void)TerminateDomain(server);
  } else if (FaultPointFires(injector, FaultKind::kThreadCapture)) {
    (void)kernel_.AbandonCapturedCall(t);
  }
}

// The status of a call whose server domain died under it: kPeerDied when
// the server process died before accepting the call — the handler never
// ran, so the failure is retryable — and kCallFailed otherwise.
Status LrpcRuntime::DeadPeerStatus(const CallSlot& slot) {
  return slot.peer_died_before_accept
             ? Status(ErrorCode::kPeerDied,
                      "server process died before accepting the call")
             : Status(ErrorCode::kCallFailed, "server domain terminated");
}

// Kernel, return leg: Binding Object, procedure identifier and A-stack were
// verified at call time; the linkage at the top of the thread's stack makes
// them implicit now.
Status LrpcRuntime::KernelReturnLeg(Processor& cpu, Thread& t,
                                    CallSlot& slot) {
  cpu.Charge(CostCategory::kKernelPath, machine().model().lrpc_kernel_return);
  kernel_.TouchPages(cpu, kernel_.kernel_page_base() + kKernelReturnPageOffset,
                     kKernelReturnPages);

  // The call watchdog (supervision layer): a call past its armed deadline is
  // abandoned here through the captured-thread escape, so the captured
  // branch below runs its normal cleanup. With no watchdog ever armed this
  // is a null check on an empty table.
  kernel_.PollCallWatchdog(cpu, t);

  // A thread restarted in a caller domain carries an exception: restore the
  // processor context to wherever the thread now is, and take it.
  auto resume = [&] {
    Domain* resumed_in = kernel_.FindDomain(t.current_domain());
    if (resumed_in != nullptr) {
      kernel_.EnterDomain(cpu, t, *resumed_in);
    }
    return t.TakeException();
  };

  if (t.captured()) {
    // The client abandoned this call (Section 5.3): the captured thread is
    // destroyed in the kernel when released. Its A-stack returns to the
    // free list; the replacement thread already carries call-aborted.
    if (t.HasLinkages() && t.linkage_stack().back() == slot.astack) {
      t.PopLinkage();
    }
    kernel_.DestroyThread(t);
    EndCall(cpu, slot, /*requeue=*/true);
    return Status(ErrorCode::kCallAborted, "thread was abandoned by its client");
  }

  if (!t.HasLinkages() || !(t.linkage_stack().back() == slot.astack)) {
    // The termination collector unwound this thread while the procedure ran
    // (e.g. the server domain terminated itself): the thread is already
    // back in a caller domain carrying an exception.
    EndCall(cpu, slot, /*requeue=*/false);
    if (resume() == ThreadException::kCallAborted) {
      return Status(ErrorCode::kCallAborted);
    }
    return DeadPeerStatus(slot);
  }

  t.PopLinkage();
  LinkageRecord& linkage = slot.astack.linkage();
  t.set_user_sp(linkage.saved_stack_pointer);
  slot.astack.region->set_last_used(slot.astack.index, cpu.clock());
  if (!linkage.valid) {
    // A party to the binding terminated while the call was outstanding:
    // returning control would enter a dead domain. Deliver call-failed to
    // the first valid linkage down the stack (Section 5.3).
    EndCall(cpu, slot, /*requeue=*/false);
    if (kernel_.UnwindWithException(t, ThreadException::kCallFailed)) {
      (void)resume();
    }
    return Status(ErrorCode::kCallFailed, "binding revoked during call");
  }
  return Status::Ok();
}

// Client stub, return half: copy the A-stack's return values into their
// final destinations (copy F) and requeue the A-stack.
Status LrpcRuntime::ClientReturnHalf(Processor& cpu, CallSlot& slot) {
  const std::uint64_t pages = slot.client->page_base();
  kernel_.TouchPages(cpu, pages, kClientStubPages);
  kernel_.TouchPages(cpu, pages + kClientAStackPageOffset, 1);

  CallStats& cs = *slot.stats;
  Status unmarshal = Status::Ok();
  if (cs.server_status.ok()) {
    if (slot.win != nullptr) {
      UnmarshalInline(cpu, *slot.pd->def, *slot.pd, slot.astack.linkage(),
                      *slot.win, cs);
    } else {
      unmarshal = UnmarshalResults(cpu, slot.client->id(), *slot.pd->def,
                                   slot.astack, slot.rets, &cs);
    }
  }
  // The A-stack stays claimed (in_use) across the return transfer and the
  // unmarshal; it leaves "claimed" only by rejoining the free list.
  EndCall(cpu, slot, /*requeue=*/true);

  // After a processor exchange the calling thread runs on a processor whose
  // cache is cold for the A-stack and client pages; the penalty scales with
  // the bytes moved through the A-stack (see MachineModel calibration).
  if ((cs.exchanged_on_call || cs.exchanged_on_return) && cs.astack_bytes > 0) {
    cpu.Charge(CostCategory::kProcessorExchange,
               Micros(machine().model().exchange_cold_per_byte_us *
                      static_cast<double>(cs.astack_bytes)));
  }
  return cs.server_status.ok() ? unmarshal
                               : StatusAfterHandler(cs.server_status);
}

// A handler that ran may not report a retryable status: the caller reads
// one as a failure before the server accepted the call (Status::Retryable)
// and would run the handler again. Such a status ends the call as
// kCallFailed; every other handler status, kCallAborted included (an
// honored alert, Section 5.3), is the call's.
Status LrpcRuntime::StatusAfterHandler(const Status& handler_status) {
  return handler_status.Retryable()
             ? Status(ErrorCode::kCallFailed,
                      "handler returned a retryable status")
             : handler_status;
}

void LrpcRuntime::ReturnAStack(Processor& cpu, CallSlot& slot, bool requeue) {
  // Out-of-band transfer segments are per-call; return them for reuse.
  for (std::uint64_t index : slot.oob) {
    ReleaseOobSegment(index);
  }
  slot.oob.clear();
  if (requeue) {
    slot.free_list->Push(cpu, slot.astack,
                         machine().model().astack_queue_lock_hold);
  }
}

// An A-stack of a revoked binding never rejoins its free list (the region
// dies with the binding); every other ending requeues it and announces
// CallReturned.
void LrpcRuntime::EndCall(Processor& cpu, CallSlot& slot, bool requeue) {
  slot.astack.linkage().in_use = false;
  ReturnAStack(cpu, slot, requeue);
  if (requeue) {
    kernel_.NotifyEvent(KernelEventKind::kCallReturned);
  }
}

LRPC_FAST_PATH_END("lrpc call/return");

Status LrpcRuntime::RemoteCall(Processor& cpu, ThreadId thread_id,
                               ClientBinding& binding, int procedure,
                               std::span<const CallArg> args,
                               std::span<const CallRet> rets, CallStats& cs) {
  LRPC_RETURN_IF_ERROR(EnterClientStub(cpu, thread_id, binding).status());
  const MachineModel& model = machine().model();
  const Interface* iface = binding.interface_spec();
  if (procedure < 0 || procedure >= iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = iface->pd(procedure);
  const ProcedureDef& def = *pd.def;

  Result<BindingRecord*> record_result =
      kernel_.bindings().Validate(binding.object(), binding.client());
  if (!record_result.ok()) {
    return record_result.status();
  }
  BindingRecord* record = *record_result;
  Domain* server_domain = kernel_.FindDomain(record->server);
  Domain* client_domain = kernel_.FindDomain(binding.client());
  if (server_domain == nullptr || !server_domain->alive()) {
    return Status(ErrorCode::kRemoteUnreachable, "remote server domain gone");
  }

  // The conventional network-RPC stub path: heavyweight stubs, message
  // buffers, protocol work, the wire, and a full unmarshal on the far side.
  cpu.Charge(CostCategory::kMsgStub, model.msg_stub);
  cpu.Charge(CostCategory::kMsgBufferMgmt, model.msg_buffer_mgmt);
  kernel_.ChargeTrap(cpu);

  std::uint64_t bytes_out = 0;
  for (const CallArg& a : args) {
    bytes_out += a.len;
  }
  // Client-side copies: stub stack -> message (A), client -> kernel (B).
  for (const CallArg& a : args) {
    cpu.Charge(CostCategory::kArgumentCopy,
               2 * (model.msg_copy_setup +
                    Micros(model.msg_copy_per_byte_us * static_cast<double>(a.len))));
    cs.copies.Count(CopyOp::kA, a.len);
    cs.copies.Count(CopyOp::kB, a.len);
  }
  // The wire: the request's packets go out (multi-packet calls pay the
  // stop-and-wait continuation penalty; Section 5.2).
  model.network.ChargeOneWay(cpu, bytes_out);

  // Server side: kernel -> server (C), message -> server stack (E); the
  // procedure executes against a scratch argument region standing in for
  // the unmarshaled message.
  AStackRegion scratch(binding.client(), record->server,
                       pd.astack_size, 1, /*secondary=*/false);
  const AStackRef scratch_ref{&scratch, 0};
  LRPC_RETURN_IF_ERROR(MarshalArguments(cpu, binding.client(), def,
                                        scratch_ref, args, nullptr));
  for (const CallArg& a : args) {
    cpu.Charge(CostCategory::kArgumentCopy,
               2 * (model.msg_copy_setup +
                    Micros(model.msg_copy_per_byte_us * static_cast<double>(a.len))));
    cs.copies.Count(CopyOp::kC, a.len);
    cs.copies.Count(CopyOp::kE, a.len);
  }
  cpu.Charge(CostCategory::kMsgDispatch, model.msg_dispatch);

  ServerFrame frame(this, cpu, def, scratch_ref, record->server,
                    binding.client(), thread_id, &cs.copies);
  Status server_status = frame.PrepareArguments();
  if (server_status.ok() && def.handler) {
    server_status = def.handler(frame);
  }
  cs.server_status = server_status;

  // Reply: results ride a message back (B', C'), then into the caller's
  // destinations (F, inside UnmarshalResults).
  std::uint64_t bytes_back = 0;
  if (server_status.ok()) {
    Status unmarshal = UnmarshalResults(cpu, binding.client(), def,
                                        scratch_ref, rets, &cs);
    if (!unmarshal.ok()) {
      return unmarshal;
    }
    for (const CallRet& r : rets) {
      bytes_back += r.len;
      cpu.Charge(CostCategory::kArgumentCopy,
                 2 * (model.msg_copy_setup +
                      Micros(model.msg_copy_per_byte_us *
                             static_cast<double>(r.len))));
      cs.copies.Count(CopyOp::kB, r.len);
      cs.copies.Count(CopyOp::kC, r.len);
    }
  }
  model.network.ChargeOneWay(cpu, bytes_back);  // The reply's packets.
  kernel_.ChargeTrap(cpu);

  (void)client_domain;
  return server_status;
}

}  // namespace lrpc
