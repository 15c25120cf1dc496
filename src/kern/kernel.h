// The simulated small kernel.
//
// Owns domains, threads and the Binding Object table; provides the
// primitives the LRPC facility (src/lrpc) and the message-RPC baseline
// (src/rpc) are built from: traps, cross-domain context transfer with the
// idle-processor domain-caching optimization (Section 3.4), lazy
// A-stack/E-stack association (Section 3.2), and the domain-termination
// collector (Section 5.3).

#ifndef SRC_KERN_KERNEL_H_
#define SRC_KERN_KERNEL_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/kern/binding_table.h"
#include "src/kern/domain.h"
#include "src/kern/scheduler.h"
#include "src/kern/thread.h"
#include "src/sim/fault_injector.h"
#include "src/sim/machine.h"

namespace lrpc {

class Kernel;

// The kernel events after which global safety conditions must hold. The
// invariant checker subscribes to these; hooks fire at operation
// boundaries, never mid-update.
enum class KernelEventKind : std::uint8_t {
  kDomainCreated,
  kThreadCreated,
  kTransfer,        // Cross-domain context transfer (call or return leg).
  kEStackEnsured,   // A-stack/E-stack association established.
  kLinkageClaimed,  // Linkage claimed and pushed on a thread's stack.
  kCallReturned,    // A-stack back on its free queue (success or failure).
  kTermination,     // Domain-termination collector finished.
  kAbandon,         // Captured-thread escape completed.
  kRegionAllocated,
  // Supervision events (docs/supervision.md).
  kWatchdogExpired,     // Call watchdog abandoned an over-deadline call.
  kSupervisorRetry,     // Supervised call backed off for a retry attempt.
  kFailover,            // Supervised call re-routed (rebind or message RPC).
  kCircuitStateChange,  // A per-binding circuit breaker changed state.
  // Admission-control events (docs/scale.md).
  kAdmissionShed,       // Load shedding rejected a call before dispatch.
  kAdmissionDegraded,   // Overload routed a call to the message-RPC path.
  // Process-backend events (docs/multiprocess.md).
  kPeerDeath,           // A real server process died and was collected.
  // Async call-path events (docs/async.md).
  kAsyncSubmitted,      // A ring slot claimed its A-stack/linkage pair.
  kAsyncCompleted,      // A ring call's completion was published.
};

std::string_view KernelEventKindName(KernelEventKind kind);

class KernelEventListener {
 public:
  virtual ~KernelEventListener() = default;
  virtual void OnKernelEvent(Kernel& kernel, KernelEventKind kind) = 0;
};

class Kernel {
 public:
  // `seed` drives binding nonces (and nothing else): runs are deterministic.
  Kernel(Machine& machine, std::uint64_t seed = 0x5eed);

  Machine& machine() { return machine_; }
  const MachineModel& model() const { return machine_.model(); }
  BindingTable& bindings() { return bindings_; }
  Scheduler& scheduler() { return scheduler_; }

  // --- Domains and threads. ---
  DomainId CreateDomain(DomainConfig config);
  Domain& domain(DomainId id) { return *domains_[static_cast<std::size_t>(id)]; }
  const Domain& domain(DomainId id) const {
    return *domains_[static_cast<std::size_t>(id)];
  }
  Domain* FindDomain(DomainId id);
  std::size_t domain_count() const { return domains_.size(); }

  ThreadId CreateThread(DomainId domain);
  Thread& thread(ThreadId id) { return *threads_[static_cast<std::size_t>(id)]; }
  Thread* FindThread(ThreadId id);
  std::size_t thread_count() const { return threads_.size(); }
  void DestroyThread(Thread& t);

  // --- Fault injection and invariant observation (src/sim, testing). ---
  // Installs `injector` at every kernel injection point (binding validation,
  // context transfer, E-stack association, scheduler wakeup). Null
  // uninstalls; with no injector every hook is a null-pointer test.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
    bindings_.set_fault_injector(injector);
    scheduler_.set_fault_injector(injector);
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // The invariant checker (or any observer) subscribes here; NotifyEvent is
  // fired after every kernel event listed in KernelEventKind.
  void set_event_listener(KernelEventListener* listener) {
    listener_ = listener;
  }
  void NotifyEvent(KernelEventKind kind) {
    if (listener_ != nullptr) {
      listener_->OnKernelEvent(*this, kind);
    }
  }

  // A kernel-wide claim counter. No call draws from it: a call stamps
  // LinkageRecord::seq from its Thread's own counter (Thread::NextLinkageSeq).
  // It is kept only for perfbench's isolated kern.linkage_seq_ns timing,
  // and goes at the next change to perfbench (ROADMAP item 6). Relaxed,
  // because only uniqueness matters, not ordering.
  std::uint64_t NextLinkageSeq() {
    // LRPC_MO(unique-id)
    return linkage_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Non-owning view of every A-stack region ever allocated (the checker and
  // the termination collector scan by domain).
  const std::vector<AStackRegion*>& astack_regions() const { return regions_; }

  // --- Trap and page-touch accounting. ---
  void ChargeTrap(Processor& cpu) {
    cpu.Charge(CostCategory::kKernelTrap, model().kernel_trap);
  }
  // References `count` pages starting at `base_vpn` through the processor's
  // TLB (informational miss accounting; see src/sim/tlb.h). Only the
  // simulator models the TLB; on the host backends this does nothing.
  void TouchPages(Processor& cpu, std::uint64_t base_vpn, int count) {
    if (machine_.simulates_costs()) {
      cpu.tlb().TouchRange(base_vpn, count);
    }
  }
  // Kernel pages live at a fixed range, mapped in every context.
  std::uint64_t kernel_page_base() const { return 0; }

  // --- Cross-domain transfer. ---
  struct TransferResult {
    bool exchanged = false;  // Idle-processor exchange instead of a switch.
  };
  // Moves execution of `t` (on `cpu`) into `target`'s VM context. When the
  // machine simulates costs and domain caching is enabled, a processor
  // idling in the target context is exchanged for the caller's processor
  // (charging the cheap exchange instead of the TLB-invalidating switch).
  TransferResult EnterDomain(Processor& cpu, Thread& t, Domain& target);

  // Domain caching knobs (Section 3.4; the simulator only).
  void set_domain_caching(bool enabled) { domain_caching_ = enabled; }
  bool domain_caching() const { return domain_caching_; }
  // Parks `cpu` idling in `domain`'s context so calls into that domain can
  // use the exchange path. Only on a machine that simulates costs.
  void ParkIdleProcessor(Processor& cpu, DomainId domain);
  // Re-points idle processors at the domains showing the most LRPC activity
  // (the per-domain idle-miss counters the kernel keeps).
  void ProdIdleProcessors();
  // Automatic prodding: after every `threshold` idle misses the kernel
  // prods one idle processor toward the busiest missed context. 0 disables
  // (the default; benches and examples prod explicitly).
  void set_auto_prod_threshold(int threshold) {
    auto_prod_threshold_ = threshold;
  }

  // --- E-stack management (Section 3.2). ---
  // Ensures `ref` has an associated E-stack in `server`, lazily associating
  // or allocating one, and reclaiming stale associations when the supply
  // runs low. Returns the E-stack id.
  Result<int> EnsureEStack(Domain& server, const AStackRef& ref, SimTime now);
  // Breaks the E-stack association of A-stacks not used since `cutoff`.
  int ReclaimEStacks(Domain& server, SimTime cutoff);

  // EnsureEStack for the real-thread engine (docs/concurrency.md). The
  // repeat-call fast path — the association already exists — touches only
  // state the caller owns through its A-stack, so it takes no lock; the
  // first call on an A-stack associates under a kernel mutex, with no
  // reclamation or stealing (parallel worlds provision each server's
  // E-stack budget to cover its A-stack set, so Allocate cannot run dry
  // while other A-stacks' associations must stay untouched).
  Result<int> EnsureEStackParallel(Domain& server, const AStackRef& ref,
                                   SimTime now);

  // --- A-stack allocation (bind time; Section 3.1). ---
  // Allocates a contiguous region of `count` A-stacks of `size` bytes,
  // pair-wise shared between the binding's client and server. `secondary`
  // marks post-bind-time growth (slower validation; Section 5.2).
  AStackRegion* AllocateAStacks(BindingRecord& binding, std::size_t size,
                                int count, bool secondary);

  // Registers a region with the kernel so the termination collector can
  // find it even though it is owned elsewhere. (AllocateAStacks does this
  // automatically.)

  // --- Address-space accounting. ---
  // What a domain's LRPC machinery costs it in memory: E-stacks are the
  // large item (tens of KB each — the reason for lazy association), A-stack
  // regions are pair-wise mapped so both parties count them.
  struct DomainMemory {
    std::size_t estack_bytes = 0;
    std::size_t astack_bytes = 0;
    int astack_regions = 0;
    int linkage_records = 0;
  };
  DomainMemory DomainMemoryUsage(DomainId id) const;

 private:
  // EnsureEStack minus the injection point and the event notification.
  Result<int> EnsureEStackImpl(Domain& server, const AStackRef& ref,
                               SimTime now);

 public:

  // --- Domain termination (Section 5.3). ---
  // Revokes the domain's bindings, invalidates linkages, restarts visiting
  // threads in their callers with call-failed, and reclaims resources.
  Status TerminateDomain(DomainId id);

  // Unwinds `t`'s linkage stack to the first linkage whose caller domain is
  // still alive, delivering `exc` there; destroys the thread if none is.
  // Returns true if the thread survived.
  bool UnwindWithException(Thread& t, ThreadException exc);

  // Sends an advisory alert to `id` (the Taos alert mechanism, Section
  // 5.3). The notified thread may choose to ignore it.
  Status AlertThread(ThreadId id) {
    Thread* t = FindThread(id);
    if (t == nullptr || t->state() == ThreadState::kDead) {
      return Status(ErrorCode::kNoSuchThread);
    }
    t->Alert();
    return Status::Ok();
  }

  // The client side of the captured-thread escape (Section 5.3): abandons
  // `captured`'s outstanding call and returns a fresh thread in the client
  // domain whose state is "just returned with call-aborted". The captured
  // thread keeps executing in the server and dies in the kernel on release.
  Result<ThreadId> AbandonCapturedCall(Thread& captured);

  // --- Call watchdog (supervision layer; docs/supervision.md). ---
  // Arms a deadline for `thread`'s next outstanding call. The call path
  // polls the watchdog on its return leg; past the deadline the kernel
  // abandons the call through the captured-thread escape above, so the
  // in-flight call surfaces kCallAborted instead of hanging. Re-arming
  // replaces the previous deadline.
  void ArmCallWatchdog(ThreadId thread, SimTime deadline);
  void DisarmCallWatchdog(ThreadId thread);
  // The poll: abandons `t`'s call if its armed deadline has passed. Returns
  // true when the abandonment happened. Kept out of the fast-path regions;
  // the call site is a plain method call that does nothing when no watchdog
  // was ever armed. Injection point kWatchdogLateFire suppresses one
  // expired poll (the overrun is then only detectable after the return).
  bool PollCallWatchdog(Processor& cpu, Thread& t);
  // Reports-and-clears whether `thread`'s last armed watchdog fired, handing
  // back the replacement thread the abandonment created. This is how a
  // supervisor distinguishes a watchdog abandonment (-> kDeadlineExceeded)
  // from any other kCallAborted, and where it learns which thread to
  // continue on.
  bool ConsumeWatchdogFire(ThreadId thread, ThreadId* replacement);
  std::uint64_t watchdog_fires() const { return watchdog_fires_; }

 private:
  // One slot per supervised thread; slots are reused on re-arm so the
  // steady state allocates nothing.
  struct WatchdogEntry {
    ThreadId thread = kNoThread;
    SimTime deadline = 0;
    bool armed = false;
    bool fired = false;                // Sticky until consumed.
    ThreadId replacement = kNoThread;  // Thread AbandonCapturedCall made.
  };
  WatchdogEntry* FindWatchdog(ThreadId thread);

  Machine& machine_;
  BindingTable bindings_;
  Scheduler scheduler_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<std::unique_ptr<Thread>> threads_;
  FaultInjector* fault_injector_ = nullptr;
  KernelEventListener* listener_ = nullptr;
  std::atomic<std::uint64_t> linkage_seq_{0};
  // Guards first-call E-stack association under the real-thread engine.
  // The guarded state (the server's EStackPool and the region's estack
  // slots) lives behind references the analysis cannot name, so the
  // capability is documented here and held via MutexLock in
  // EnsureEStackParallel rather than spelled as GUARDED_BY.
  Mutex par_estack_mutex_;
  bool domain_caching_ = true;
  int auto_prod_threshold_ = 0;
  int misses_since_prod_ = 0;
  VmContextId next_vm_context_ = 1;  // 0 is reserved for the kernel.
  // Non-owning index of every A-stack region (owned by binding records);
  // lets E-stack reclamation and the collector scan by server domain.
  std::vector<AStackRegion*> regions_;
  std::vector<WatchdogEntry> watchdogs_;
  std::uint64_t watchdog_fires_ = 0;
};

}  // namespace lrpc

#endif  // SRC_KERN_KERNEL_H_
