// LrpcRuntime: the public facade of the LRPC facility.
//
// Ties together the kernel, the name server, the per-domain clerks and the
// client bindings, and implements the call/return fast path of Section 3.2:
//
//   client stub: pop A-stack, push arguments, trap
//   kernel:      verify Binding Object + procedure + A-stack, locate and
//                claim the linkage, push it on the thread's linkage stack,
//                find an E-stack, switch (or exchange) into the server
//   server stub: prime the frame, branch into the procedure
//   return:      trap; the linkage stack makes verification implicit;
//                switch back; client stub copies results out
//
// plus the uncommon cases of Section 5 (cross-machine bit, A-stack
// exhaustion, out-of-band arguments, domain termination, captured threads).

#ifndef SRC_LRPC_RUNTIME_H_
#define SRC_LRPC_RUNTIME_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/kern/kernel.h"
#include "src/lrpc/call_tracer.h"
#include "src/lrpc/clerk.h"
#include "src/lrpc/client_binding.h"
#include "src/lrpc/copy_stats.h"
#include "src/lrpc/interface.h"
#include "src/lrpc/proc_transport.h"
#include "src/nameserver/name_server.h"

namespace lrpc {

// The kernel's table is the only Binding Object table; perfbench/ still
// names it by the class it replaced.
using ShardedBindingTable = BindingTable;

// One input argument as passed by the caller (client stack bytes).
struct CallArg {
  const void* data = nullptr;
  std::size_t len = 0;

  CallArg() = default;
  CallArg(const void* d, std::size_t n) : data(d), len(n) {}
  template <typename T>
  static CallArg Of(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return CallArg(&value, sizeof(T));
  }
  // A CallArg only borrows the caller's bytes; binding one to a temporary
  // would dangle before the call is made.
  template <typename T>
  static CallArg Of(const T&& value) = delete;
};

// One output destination (where the client stub copies results; the final
// destination is specified by the caller, Section 3.5).
struct CallRet {
  void* data = nullptr;
  std::size_t len = 0;

  CallRet() = default;
  CallRet(void* d, std::size_t n) : data(d), len(n) {}
  template <typename T>
  static CallRet Of(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return CallRet(value, sizeof(T));
  }
};

// Optional per-call observability.
struct CallStats {
  CopyStats copies;
  bool exchanged_on_call = false;
  bool exchanged_on_return = false;
  bool used_secondary_astack = false;
  bool used_out_of_band = false;
  std::size_t astack_bytes = 0;   // Bytes moved through the A-stack.
  Status server_status;           // The handler's own return status.
};

// Which execution engine drives the call path (docs/concurrency.md). The
// deterministic simulator is the default and is bit-identical to the
// pre-engine tree; the parallel-host backend runs one real std::thread per
// processor and routes the shared structures on the call path through their
// lock-free (or locked-baseline) re-implementations.
enum class RuntimeBackend : std::uint8_t {
  kDeterministicSim,
  kParallelHost,
  // Real protection domains: server domains are forked processes, the
  // argument window crosses a shared mmap segment behind a futex doorbell,
  // and peer death is a first-class protocol event (docs/multiprocess.md).
  kMultiProcess,
};

class LrpcRuntime {
 public:
  explicit LrpcRuntime(Kernel& kernel,
                       RuntimeBackend backend = RuntimeBackend::kDeterministicSim)
      : kernel_(kernel), backend_(backend) {}

  Kernel& kernel() { return kernel_; }
  Machine& machine() { return kernel_.machine(); }
  NameServer& names() { return names_; }
  RuntimeBackend backend() const { return backend_; }

  // --- Server side. ---
  // Creates an (unsealed) interface owned by the runtime.
  Interface* CreateInterface(DomainId server, std::string name);
  // Seals the interface if needed and exports it through the server's clerk.
  Status Export(Interface* iface);
  Clerk& clerk(DomainId domain);

  // --- Client side (binding; Section 3.1). ---
  // Imports `name`, running the kernel-mediated handshake with the server's
  // clerk; allocates the bind-time A-stacks pair-wise shared between the
  // two domains. Returns a runtime-owned binding.
  Result<ClientBinding*> Import(Processor& cpu, DomainId client,
                                std::string_view name);

  // --- Calling (Section 3.2). ---
  Status Call(Processor& cpu, ThreadId thread, ClientBinding& binding,
              int procedure, std::span<const CallArg> args,
              std::span<const CallRet> rets, CallStats* stats = nullptr);

  // The register-style inline path (Section 2.2, docs/fast_path.md): for a
  // procedure sealed inline-eligible, the caller packs its fixed-size
  // arguments into `block_in` at their slot offsets (pd.slot_span bytes;
  // null when the span is zero) and the runtime moves the whole window into
  // the linkage record with one copy — no per-argument rights-checked
  // A-stack writes. Results come back the same way through `block_out`
  // (which may alias `block_in`). Model charges and copy statistics are
  // identical to the general path, so the two are tick-identical in the
  // deterministic backend; only host-time differs. Returns
  // kInvalidArgument for procedures that are not inline-eligible.
  Status CallInline(Processor& cpu, ThreadId thread, ClientBinding& binding,
                    int procedure, const void* block_in, void* block_out,
                    CallStats* stats = nullptr);

  // Runtime-wide counters, accumulated across every call.
  struct RuntimeStats {
    std::uint64_t calls = 0;
    std::uint64_t remote_calls = 0;
    std::uint64_t failed_calls = 0;            // Any non-ok status.
    std::uint64_t exchange_calls = 0;          // Used the idle-processor path.
    std::uint64_t secondary_astack_calls = 0;  // Section 5.2 growth region.
    std::uint64_t out_of_band_transfers = 0;
    CopyStats copies;
    std::uint64_t astack_bytes = 0;
  };
  const RuntimeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RuntimeStats{}; }

  // Optional instrumentation: when set, every call, bind and termination is
  // recorded (the measurement facility behind the paper's Section 2 study).
  void set_tracer(CallTracer* tracer) { tracer_ = tracer; }
  CallTracer* tracer() { return tracer_; }

  // Convenience: look the procedure up by name first.
  Status CallByName(Processor& cpu, ThreadId thread, ClientBinding& binding,
                    std::string_view procedure, std::span<const CallArg> args,
                    std::span<const CallRet> rets, CallStats* stats = nullptr);

  // --- Parallel-host backend (src/par, docs/concurrency.md). ---
  // On this backend Call and CallInline skip the runtime-wide stats fold and
  // the tracer, both of which are shared mutable state no concurrent call
  // may touch; per-call numbers come back through `stats` only.
  // CallInlineParallel is CallInline taking its stats by reference.
  Status CallInlineParallel(Processor& cpu, ThreadId thread,
                            ClientBinding& binding, int procedure,
                            const void* block_in, void* block_out,
                            CallStats& stats) {
    return CallInline(cpu, thread, binding, procedure, block_in, block_out,
                      &stats);
  }

  // The kernel's Binding Object table, by the name perfbench/ reads it.
  BindingTable* sharded_bindings() { return &kernel_.bindings(); }

  // --- Multi-process backend (src/proc, docs/multiprocess.md). ---
  // Installs the transport the server-execution leg routes through on the
  // kMultiProcess backend (non-owning; a ProcHost owns it). Null detaches.
  // TerminateDomain notifies the transport so real corpses are reaped and
  // their shared segments reclaimed regardless of which side died first.
  void AttachProcTransport(ProcTransport* transport) { proc_ = transport; }
  ProcTransport* proc_transport() { return proc_; }

  // --- Out-of-band segments (Section 5.2). ---
  SharedSegment* OobSegment(std::uint64_t index);
  // Number of currently-live (unreleased) out-of-band segments.
  std::size_t LiveOobSegments() const;

  // --- Domain termination (Section 5.3). ---
  // Withdraws the domain's exports and runs the kernel collector.
  Status TerminateDomain(DomainId domain);

  // The captured-thread escape: abandon `captured`'s outstanding call,
  // get a fresh client thread carrying the call-aborted exception.
  Result<ThreadId> AbandonCapturedCall(ThreadId captured) {
    Thread* t = kernel_.FindThread(captured);
    if (t == nullptr) {
      return Status(ErrorCode::kNoSuchThread);
    }
    return kernel_.AbandonCapturedCall(*t);
  }

  const std::vector<std::unique_ptr<ClientBinding>>& bindings() const {
    return bindings_;
  }

 private:
  friend class ServerFrame;
  // The async ring (src/lrpc/async_call.h) drives batches of calls through
  // the call protocol's phases below.
  friend class AsyncRing;

  // Grows a binding's A-stack supply with a secondary region (Section 5.2).
  Status GrowAStacks(Processor& cpu, ClientBinding& binding, int group);

  // The caller-side window of one inline call: packed argument bytes in,
  // packed result bytes out, both laid out at the procedure's slot offsets.
  struct InlineWindow {
    const std::byte* block_in = nullptr;
    std::byte* block_out = nullptr;
  };

  // One call's state as it moves through the protocol phases below. The
  // synchronous driver keeps one on its stack; an AsyncRing keeps one per
  // slot.
  struct CallSlot {
    int procedure = -1;
    // Non-null on the inline path: the call marshals through the linkage
    // record's register window instead of the A-stack (docs/fast_path.md).
    const InlineWindow* win = nullptr;
    std::span<const CallRet> rets;
    CallStats* stats = nullptr;
    const ProcedureDescriptor* pd = nullptr;
    Domain* client = nullptr;
    AStackRef astack;
    // The free structure the A-stack was popped from, and returns to.
    ParFreeList* par_list = nullptr;
    AStackQueue* queue = nullptr;
    std::vector<std::uint64_t> oob;  // This call's out-of-band segments.
    int estack = -1;                 // Associated by the kernel call leg.
    // The server process died before it accepted the call: the handler
    // never ran, so the call fails retryable (docs/multiprocess.md).
    bool peer_died_before_accept = false;
  };

  // The synchronous driver: one local call through every phase, in the
  // paper's order (Section 3.2). Call() wraps it for accounting.
  Status CallLocal(Processor& cpu, ThreadId thread, ClientBinding& binding,
                   int procedure, std::span<const CallArg> args,
                   std::span<const CallRet> rets, CallStats& stats,
                   const InlineWindow* win = nullptr);

  // Shared tail of Call and CallInline: runs CallLocal, records the trace
  // event and folds the per-call stats into the runtime-wide counters.
  Status CallAccounted(Processor& cpu, ThreadId thread, ClientBinding& binding,
                       int procedure, std::span<const CallArg> args,
                       std::span<const CallRet> rets, CallStats* stats,
                       const InlineWindow* win);

  // --- The call protocol's phases (src/lrpc/call.cc). A phase that can end
  // the call returns the status it ends with. ---

  // Client stub, call half: caller checks, the stub's charges and page
  // touches, an A-stack popped (or grown) and the arguments marshaled.
  // Returns the calling thread.
  Result<Thread*> ClientCallHalf(Processor& cpu, ThreadId thread,
                                 ClientBinding& binding,
                                 std::span<const CallArg> args,
                                 CallSlot& slot);
  // The formal procedure call into the client stub, by a thread that must
  // be live and executing in the binding's client domain.
  Result<Thread*> EnterClientStub(Processor& cpu, ThreadId thread,
                                  const ClientBinding& binding);

  // Kernel call leg: the Binding Object (validated once per call, or once
  // per batch), the procedure and the A-stack are checked; the linkage is
  // claimed and pushed; an E-stack is associated.
  Result<BindingRecord*> ValidateBinding(const ClientBinding& binding);
  Status KernelCallLeg(Processor& cpu, const Result<BindingRecord*>& record,
                       const CallSlot& slot);
  Status ClaimLinkage(const Thread& t, const CallSlot& slot);
  void PushLinkage(Thread& t, const BindingRecord& record,
                   const CallSlot& slot);
  Status AssociateEStack(Processor& cpu, Domain& server, CallSlot& slot);

  // Server leg: the upcall into the entry stub, then the handler — run
  // in-process, or read from a multi-process transport leg — with the
  // peer-death collector and the injected Section 5.3 emergencies.
  void EnterServerStub(Processor& cpu, Thread& t, Domain& server,
                       const CallSlot& slot);
  bool ProcRouted(const BindingRecord& record) const;
  bool ProcCallOf(const CallSlot& slot, ProcTransport::BatchCall& call);
  ProcTransport::KillPhase InjectedKillPhase();
  bool ReadProcLeg(const ProcTransport::BatchCall& call, CallSlot& slot);
  void ServerLeg(Processor& cpu, Thread& t, DomainId server, CallSlot& slot,
                 const ProcTransport::BatchCall* proc_call);
  static Status DeadPeerStatus(const CallSlot& slot);

  // Kernel return leg: Ok when the linkage pops normally; otherwise the
  // call ended in the kernel (captured, unwound or revoked).
  Status KernelReturnLeg(Processor& cpu, Thread& t, CallSlot& slot);

  // Client stub, return half, after the transfer back into the client:
  // unmarshal, release, requeue. Returns the call's status.
  Status ClientReturnHalf(Processor& cpu, CallSlot& slot);

  // Releases the call's out-of-band segments and, when `requeue`, hands the
  // A-stack back to the free structure it was popped from.
  void ReturnAStack(Processor& cpu, CallSlot& slot, bool requeue);
  // Ends a call that holds its linkage claim: the claim is dropped and the
  // A-stack returned (requeued unless its binding died; see call.cc).
  void EndCall(Processor& cpu, CallSlot& slot, bool requeue);

  // Inline-path marshaling: one copy between the caller's window and the
  // linkage record's register window; model charges and copy statistics
  // match the general path's per-argument totals.
  void MarshalInline(Processor& cpu, const ProcedureDef& def,
                     const ProcedureDescriptor& pd, LinkageRecord& linkage,
                     const InlineWindow& win, CallStats& cs);
  void UnmarshalInline(Processor& cpu, const ProcedureDef& def,
                       const ProcedureDescriptor& pd, LinkageRecord& linkage,
                       const InlineWindow& win, CallStats& cs);

  // The cross-machine branch taken by the first stub instruction when the
  // Binding Object carries the remote bit (Section 5.1).
  Status RemoteCall(Processor& cpu, ThreadId thread, ClientBinding& binding,
                    int procedure, std::span<const CallArg> args,
                    std::span<const CallRet> rets, CallStats& stats);

  // Marshals `args` into the A-stack slots (copy A), spilling oversized
  // variable arguments to out-of-band segments. Segment indices used by
  // this call are appended to `oob_used` (released when the call returns).
  Status MarshalArguments(Processor& cpu, DomainId client,
                          const ProcedureDef& def, AStackRef astack,
                          std::span<const CallArg> args, CallStats* stats,
                          std::vector<std::uint64_t>* oob_used = nullptr);

  // Copies results from the A-stack into the caller's destinations (copy F).
  Status UnmarshalResults(Processor& cpu, DomainId client,
                          const ProcedureDef& def, AStackRef astack,
                          std::span<const CallRet> rets, CallStats* stats);

  Result<std::uint64_t> AllocateOobSegment(std::size_t size, DomainId client,
                                           DomainId server);
  // Returns a per-call segment to the free list for reuse.
  void ReleaseOobSegment(std::uint64_t index);

  Kernel& kernel_;
  RuntimeBackend backend_ = RuntimeBackend::kDeterministicSim;
  ProcTransport* proc_ = nullptr;
  NameServer names_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
  std::vector<std::unique_ptr<Clerk>> clerks_;       // Indexed by DomainId.
  std::vector<std::unique_ptr<ClientBinding>> bindings_;
  // Out-of-band segments are uncommon-case (Section 5.2) and mutate shared
  // vectors; the mutex keeps them safe under the parallel backend and is
  // uncontended in the deterministic one.
  mutable Mutex oob_mutex_;
  std::vector<std::unique_ptr<SharedSegment>> oob_segments_
      LRPC_GUARDED_BY(oob_mutex_);
  std::vector<std::uint64_t> oob_free_list_ LRPC_GUARDED_BY(oob_mutex_);
  RuntimeStats stats_;
  CallTracer* tracer_ = nullptr;
};

}  // namespace lrpc

#endif  // SRC_LRPC_RUNTIME_H_
