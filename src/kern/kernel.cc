#include "src/kern/kernel.h"

#include "src/common/check.h"
#include "src/common/fast_path.h"
#include "src/common/logging.h"

namespace lrpc {

namespace {

// Domains are spaced 32 virtual pages apart, starting above the kernel's
// pages, so the TLB model sees distinct translations per domain.
constexpr std::uint64_t kDomainPageSpan = 32;
constexpr std::uint64_t kFirstDomainPage = 64;

}  // namespace

std::string_view KernelEventKindName(KernelEventKind kind) {
  switch (kind) {
    case KernelEventKind::kDomainCreated:
      return "DomainCreated";
    case KernelEventKind::kThreadCreated:
      return "ThreadCreated";
    case KernelEventKind::kTransfer:
      return "Transfer";
    case KernelEventKind::kEStackEnsured:
      return "EStackEnsured";
    case KernelEventKind::kLinkageClaimed:
      return "LinkageClaimed";
    case KernelEventKind::kCallReturned:
      return "CallReturned";
    case KernelEventKind::kTermination:
      return "Termination";
    case KernelEventKind::kAbandon:
      return "Abandon";
    case KernelEventKind::kRegionAllocated:
      return "RegionAllocated";
    case KernelEventKind::kWatchdogExpired:
      return "WatchdogExpired";
    case KernelEventKind::kSupervisorRetry:
      return "SupervisorRetry";
    case KernelEventKind::kFailover:
      return "Failover";
    case KernelEventKind::kCircuitStateChange:
      return "CircuitStateChange";
    case KernelEventKind::kAdmissionShed:
      return "AdmissionShed";
    case KernelEventKind::kAdmissionDegraded:
      return "AdmissionDegraded";
    case KernelEventKind::kPeerDeath:
      return "PeerDeath";
    case KernelEventKind::kAsyncSubmitted:
      return "AsyncSubmitted";
    case KernelEventKind::kAsyncCompleted:
      return "AsyncCompleted";
  }
  return "Unknown";
}

Kernel::Kernel(Machine& machine, std::uint64_t seed)
    : machine_(machine), bindings_(seed), scheduler_(machine) {}

DomainId Kernel::CreateDomain(DomainConfig config) {
  const auto id = static_cast<DomainId>(domains_.size());
  const VmContextId context = next_vm_context_++;
  const std::uint64_t page_base =
      kFirstDomainPage + static_cast<std::uint64_t>(id) * kDomainPageSpan;
  domains_.push_back(
      std::make_unique<Domain>(id, context, page_base, std::move(config)));
  LRPC_LOG(kDebug) << "created domain " << id << " ('"
                   << domains_.back()->name() << "'), vm context " << context;
  NotifyEvent(KernelEventKind::kDomainCreated);
  return id;
}

Domain* Kernel::FindDomain(DomainId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= domains_.size()) {
    return nullptr;
  }
  return domains_[static_cast<std::size_t>(id)].get();
}

ThreadId Kernel::CreateThread(DomainId domain_id) {
  const auto id = static_cast<ThreadId>(threads_.size());
  threads_.push_back(std::make_unique<Thread>(id, domain_id));
  domain(domain_id).AddThread(id);
  NotifyEvent(KernelEventKind::kThreadCreated);
  return id;
}

Thread* Kernel::FindThread(ThreadId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= threads_.size()) {
    return nullptr;
  }
  return threads_[static_cast<std::size_t>(id)].get();
}

void Kernel::DestroyThread(Thread& t) {
  t.set_state(ThreadState::kDead);
}

// The context-transfer leg every LRPC call and return pays (Section 3.4):
// either the idle-processor exchange or the TLB-invalidating switch, with
// no allocation or logging on either branch (rule lrpc-fast-path).
LRPC_FAST_PATH_BEGIN("kernel domain transfer");

Kernel::TransferResult Kernel::EnterDomain(Processor& cpu, Thread& t,
                                           Domain& target) {
  TransferResult result;
  const VmContextId target_context = target.vm_context();
  if (cpu.loaded_context() == target_context) {
    // Already in the right context (e.g. same-domain call); nothing to do.
    t.set_current_domain(target.id());
    NotifyEvent(KernelEventKind::kTransfer);
    return result;
  }
  // Only the simulator has VM contexts and TLBs for an idling processor to
  // keep warm; on the host backends every transfer is the plain switch.
  if (domain_caching_ && machine_.simulates_costs()) {
    Processor* idler = machine_.FindIdleInContext(target_context);
    // Injection point: the exchange is unavailable — a forced
    // processor-cache miss drops the call onto the switch path.
    if (idler != nullptr &&
        FaultPointFires(fault_injector_, FaultKind::kCacheMiss)) {
      idler = nullptr;
    }
    if (idler != nullptr) {
      machine_.ExchangeContexts(cpu, *idler);
      t.set_current_domain(target.id());
      result.exchanged = true;
      NotifyEvent(KernelEventKind::kTransfer);
      return result;
    }
    // Wanted an idle processor in this context but none was available;
    // the counters below drive ProdIdleProcessors.
    machine_.RecordIdleMiss(target_context);
    if (auto_prod_threshold_ > 0 &&
        ++misses_since_prod_ >= auto_prod_threshold_) {
      misses_since_prod_ = 0;
      ProdIdleProcessors();
    }
  }
  cpu.Charge(CostCategory::kContextSwitch, model().context_switch);
  cpu.LoadContext(target_context);
  t.set_current_domain(target.id());
  NotifyEvent(KernelEventKind::kTransfer);
  return result;
}

LRPC_FAST_PATH_END("kernel domain transfer");

void Kernel::ParkIdleProcessor(Processor& cpu, DomainId domain_id) {
  // EnterDomain never exchanges on a host backend, so a processor parked
  // there would idle for nothing.
  LRPC_CHECK(machine_.simulates_costs());
  cpu.LoadContext(domain(domain_id).vm_context());
  machine_.MarkIdle(cpu);
}

void Kernel::ProdIdleProcessors() {
  const VmContextId busiest = machine_.BusiestMissedContext();
  if (busiest == kNoVmContext) {
    return;
  }
  for (int i = 0; i < machine_.processor_count(); ++i) {
    Processor& cpu = machine_.processor(i);
    if (cpu.idle() && cpu.loaded_context() != busiest) {
      cpu.LoadContext(busiest);
      LRPC_LOG(kDebug) << "prodded idle processor " << cpu.id()
                       << " to spin in context " << busiest;
      return;  // Move one per prod; repeated misses move more.
    }
  }
}

Result<int> Kernel::EnsureEStack(Domain& server, const AStackRef& ref,
                                 SimTime now) {
  // Injection point: the server's E-stack budget reads as spent with
  // nothing reclaimable (Section 3.2's failure mode, forced).
  if (FaultPointFires(fault_injector_, FaultKind::kEStackExhaustion)) {
    return Status(ErrorCode::kEStackExhausted, "fault injection: exhausted");
  }
  Result<int> ensured = EnsureEStackImpl(server, ref, now);
  if (ensured.ok()) {
    NotifyEvent(KernelEventKind::kEStackEnsured);
  }
  return ensured;
}

Result<int> Kernel::EnsureEStackImpl(Domain& server, const AStackRef& ref,
                                     SimTime now) {
  AStackRegion& region = *ref.region;
  // Fast path: the association survives across calls precisely so that this
  // lookup is all a repeat call pays (Section 3.2).
  int estack_id = region.estack_of(ref.index);
  if (estack_id >= 0) {
    server.estacks().MarkAssociated(estack_id, now);
    region.set_last_used(ref.index, now);
    return estack_id;
  }

  EStackPool& pool = server.estacks();
  // An allocated-but-unassociated E-stack?
  if (EStack* free_stack = pool.FindUnassociated()) {
    pool.MarkAssociated(free_stack->id, now);
    region.set_estack(ref.index, free_stack->id);
    region.set_last_used(ref.index, now);
    return free_stack->id;
  }
  // Allocate a new one out of the server's budget.
  Result<int> allocated = pool.Allocate();
  if (!allocated.ok()) {
    // Budget exhausted: reclaim associations idle for a while, then retry.
    const SimTime cutoff = now - 50 * kMillisecond;
    if (ReclaimEStacks(server, cutoff) == 0) {
      // Nothing stale: steal the oldest association outright — but never
      // from an A-stack with an outstanding call, whose thread is running
      // on that E-stack right now.
      std::vector<bool> busy(static_cast<std::size_t>(pool.allocated()));
      for (AStackRegion* r : regions_) {
        if (r->server() != server.id()) {
          continue;
        }
        for (int i = 0; i < r->count(); ++i) {
          const int in_use_estack = r->estack_of(i);
          if (in_use_estack >= 0 && r->linkage(i).in_use) {
            busy[static_cast<std::size_t>(in_use_estack)] = true;
          }
        }
      }
      EStack* oldest = nullptr;
      for (int id = 0; id < pool.allocated(); ++id) {
        EStack& candidate = pool.stack(id);
        if (!candidate.associated || busy[static_cast<std::size_t>(id)]) {
          continue;
        }
        if (oldest == nullptr || candidate.last_used < oldest->last_used) {
          oldest = &candidate;
        }
      }
      if (oldest == nullptr) {
        // Every E-stack is under an active call: genuinely exhausted.
        return Status(ErrorCode::kEStackExhausted);
      }
      pool.MarkUnassociated(oldest->id);
      // Clear the A-stack side of the stolen association; that A-stack will
      // lazily re-associate on its next call.
      for (AStackRegion* r : regions_) {
        if (r->server() != server.id()) {
          continue;
        }
        for (int i = 0; i < r->count(); ++i) {
          if (r->estack_of(i) == oldest->id) {
            r->set_estack(i, -1);
          }
        }
      }
    }
    EStack* free_stack = pool.FindUnassociated();
    if (free_stack == nullptr) {
      Result<int> retry = pool.Allocate();
      if (!retry.ok()) {
        return retry.status();
      }
      pool.MarkAssociated(*retry, now);
      region.set_estack(ref.index, *retry);
      region.set_last_used(ref.index, now);
      return *retry;
    }
    pool.MarkAssociated(free_stack->id, now);
    region.set_estack(ref.index, free_stack->id);
    region.set_last_used(ref.index, now);
    return free_stack->id;
  }
  pool.MarkAssociated(*allocated, now);
  region.set_estack(ref.index, *allocated);
  region.set_last_used(ref.index, now);
  return *allocated;
}

Result<int> Kernel::EnsureEStackParallel(Domain& server, const AStackRef& ref,
                                         SimTime now) {
  AStackRegion& region = *ref.region;
  // Repeat-call fast path: everything touched here travels with ownership
  // of the A-stack (popped off its free list), so no lock is needed. The
  // pool-side MarkAssociated bookkeeping is skipped — the flag is already
  // set, and the pool's recency stamps only feed reclamation, which the
  // parallel mode never runs.
  const int estack_id = region.estack_of(ref.index);
  if (estack_id >= 0) {
    region.set_last_used(ref.index, now);
    return estack_id;
  }
  // First call on this A-stack: associate under the kernel's mutex so the
  // pool scans and the allocation are serialized.
  MutexLock guard(par_estack_mutex_);
  EStackPool& pool = server.estacks();
  if (EStack* free_stack = pool.FindUnassociated()) {
    pool.MarkAssociated(free_stack->id, now);
    region.set_estack(ref.index, free_stack->id);
    region.set_last_used(ref.index, now);
    return free_stack->id;
  }
  Result<int> allocated = pool.Allocate();
  if (!allocated.ok()) {
    return Status(ErrorCode::kEStackExhausted,
                  "parallel mode: E-stack budget below the A-stack set");
  }
  pool.MarkAssociated(*allocated, now);
  region.set_estack(ref.index, *allocated);
  region.set_last_used(ref.index, now);
  return *allocated;
}

int Kernel::ReclaimEStacks(Domain& server, SimTime cutoff) {
  int reclaimed = 0;
  for (AStackRegion* region : regions_) {
    if (region->server() != server.id()) {
      continue;
    }
    for (int i = 0; i < region->count(); ++i) {
      const int estack_id = region->estack_of(i);
      if (estack_id < 0 || region->last_used(i) > cutoff) {
        continue;
      }
      // Never reclaim from an A-stack with an outstanding call.
      if (region->linkage(i).in_use) {
        continue;
      }
      server.estacks().MarkUnassociated(estack_id);
      region->set_estack(i, -1);
      ++reclaimed;
    }
  }
  return reclaimed;
}

AStackRegion* Kernel::AllocateAStacks(BindingRecord& binding, std::size_t size,
                                      int count, bool secondary) {
  binding.regions.push_back(std::make_unique<AStackRegion>(
      binding.client, binding.server, size, count, secondary));
  AStackRegion* region = binding.regions.back().get();
  regions_.push_back(region);
  NotifyEvent(KernelEventKind::kRegionAllocated);
  return region;
}

Kernel::DomainMemory Kernel::DomainMemoryUsage(DomainId id) const {
  DomainMemory usage;
  if (id < 0 || static_cast<std::size_t>(id) >= domains_.size()) {
    return usage;
  }
  const Domain& d = *domains_[static_cast<std::size_t>(id)];
  usage.estack_bytes =
      static_cast<std::size_t>(d.estacks().allocated()) *
      d.estacks().estack_size();
  for (const AStackRegion* region : regions_) {
    if (region->client() != id && region->server() != id) {
      continue;
    }
    usage.astack_bytes += region->segment().size();
    ++usage.astack_regions;
    usage.linkage_records += region->count();
  }
  return usage;
}

Status Kernel::TerminateDomain(DomainId id) {
  Domain* dying = FindDomain(id);
  if (dying == nullptr) {
    return Status(ErrorCode::kNoSuchDomain);
  }
  if (!dying->alive()) {
    return Status(ErrorCode::kDomainTerminated, "already terminated");
  }
  LRPC_LOG(kInfo) << "terminating domain " << id << " ('" << dying->name()
                  << "')";
  dying->set_state(DomainState::kTerminating);

  // 1. Revoke every Binding Object associated with the domain, as client or
  //    server: no more out-calls, no more in-calls.
  std::vector<BindingRecord*> revoked = bindings_.RevokeForDomain(id);

  // 2. Stop all threads executing within the domain.
  for (auto& t : threads_) {
    if (t->state() != ThreadState::kDead && t->current_domain() == id) {
      t->set_state(ThreadState::kStopped);
    }
  }

  // 3. Invalidate active linkage records of the revoked bindings, so any
  //    thread returning from an outstanding call sees the invalidation.
  for (BindingRecord* b : revoked) {
    for (auto& region : b->regions) {
      region->InvalidateAllLinkages();
    }
  }

  // 4. The collector: threads that were running inside the dying domain on
  //    behalf of an LRPC call are restarted in their caller with a
  //    call-failed exception.
  for (auto& t : threads_) {
    if (t->state() != ThreadState::kStopped || t->current_domain() != id) {
      continue;
    }
    if (t->home_domain() == id) {
      // The domain's own thread, at home: dies with the domain (unless it
      // is out on a call, handled by the current_domain() != id case).
      DestroyThread(*t);
      continue;
    }
    // A visitor: unwind to the first linkage whose caller is still alive.
    UnwindWithException(*t, ThreadException::kCallFailed);
  }

  dying->set_state(DomainState::kDead);
  NotifyEvent(KernelEventKind::kTermination);
  return Status::Ok();
}

bool Kernel::UnwindWithException(Thread& t, ThreadException exc) {
  while (t.HasLinkages()) {
    const AStackRef ref = t.PopLinkage();
    LinkageRecord& linkage = ref.linkage();
    linkage.in_use = false;
    Domain* caller = FindDomain(linkage.caller_domain);
    if (caller != nullptr && caller->alive()) {
      t.set_current_domain(caller->id());
      t.set_user_sp(linkage.saved_stack_pointer);
      t.set_pending_exception(exc);
      t.set_state(ThreadState::kReady);
      return true;
    }
    // The caller itself is gone: raise call-failed further down on the way
    // past (the exception escalates to the next valid linkage).
    exc = ThreadException::kCallFailed;
  }
  // No valid linkage record anywhere: the thread is destroyed.
  DestroyThread(t);
  return false;
}

Result<ThreadId> Kernel::AbandonCapturedCall(Thread& captured) {
  if (!captured.HasLinkages()) {
    return Status(ErrorCode::kInvalidArgument, "thread has no outstanding call");
  }
  // The bottom linkage names the original client domain and restart state.
  const AStackRef bottom = captured.linkage_stack().front();
  const LinkageRecord& linkage = bottom.linkage();
  Domain* client = FindDomain(linkage.caller_domain);
  if (client == nullptr || !client->alive()) {
    return Status(ErrorCode::kDomainTerminated, "client domain is gone");
  }
  // New thread whose initial state is that of the captured thread as if it
  // had just returned from the server with a call-aborted exception.
  const ThreadId fresh_id = CreateThread(client->id());
  Thread& fresh = thread(fresh_id);
  fresh.set_user_sp(linkage.saved_stack_pointer);
  fresh.set_pending_exception(ThreadException::kCallAborted);
  fresh.set_state(ThreadState::kReady);
  // The captured thread continues executing in the server but is destroyed
  // in the kernel when released (the return path checks this flag).
  captured.set_captured(true);
  NotifyEvent(KernelEventKind::kAbandon);
  return fresh_id;
}

Kernel::WatchdogEntry* Kernel::FindWatchdog(ThreadId thread) {
  for (WatchdogEntry& entry : watchdogs_) {
    if (entry.thread == thread) {
      return &entry;
    }
  }
  return nullptr;
}

void Kernel::ArmCallWatchdog(ThreadId thread, SimTime deadline) {
  WatchdogEntry* entry = FindWatchdog(thread);
  if (entry == nullptr) {
    // First supervised call on this thread; later arms reuse the slot.
    watchdogs_.push_back({});
    entry = &watchdogs_.back();
    entry->thread = thread;
  }
  entry->deadline = deadline;
  entry->armed = true;
  entry->fired = false;
  entry->replacement = kNoThread;
}

void Kernel::DisarmCallWatchdog(ThreadId thread) {
  if (WatchdogEntry* entry = FindWatchdog(thread)) {
    entry->armed = false;
  }
}

bool Kernel::PollCallWatchdog(Processor& cpu, Thread& t) {
  WatchdogEntry* entry = FindWatchdog(t.id());
  if (entry == nullptr || !entry->armed || cpu.clock() <= entry->deadline) {
    return false;
  }
  // Injection point: the watchdog notices the expiry late — this poll is
  // skipped, the call completes, and only the supervisor's post-return
  // deadline check observes the overrun.
  if (FaultPointFires(fault_injector_, FaultKind::kWatchdogLateFire)) {
    return false;
  }
  entry->armed = false;
  if (!t.HasLinkages()) {
    return false;  // No outstanding call to abandon.
  }
  Result<ThreadId> fresh = AbandonCapturedCall(t);
  if (!fresh.ok()) {
    return false;  // e.g. the client domain itself died meanwhile.
  }
  entry->fired = true;
  entry->replacement = *fresh;
  ++watchdog_fires_;
  NotifyEvent(KernelEventKind::kWatchdogExpired);
  return true;
}

bool Kernel::ConsumeWatchdogFire(ThreadId thread, ThreadId* replacement) {
  WatchdogEntry* entry = FindWatchdog(thread);
  if (entry == nullptr || !entry->fired) {
    return false;
  }
  entry->fired = false;
  if (replacement != nullptr) {
    *replacement = entry->replacement;
  }
  entry->replacement = kNoThread;
  return true;
}

}  // namespace lrpc
