// The kernel's Binding Object table: the only one, on every backend.
//
// A Binding Object is the client's key for a server interface; it is
// presented to the kernel on every call and the kernel can detect a forged
// one (Section 3.1). Here a binding is a table index plus a random nonce;
// validation checks index, nonce, holder domain and the revoked bit. When a
// domain terminates, every Binding Object associated with it — as client or
// server — is revoked, stopping both out-calls and in-calls (Section 5.3).
//
// A binding whose server lives on another node carries the remote bit; the
// first instruction of the client stub tests it and branches to the
// conventional network-RPC path (Section 5.1).
//
// Validation sits on the call leg of every LRPC (Section 3.2), so under the
// parallel backend's host threads it must not funnel through a table-wide
// lock. Each binding owns one cache line holding a sequence counter and the
// fields validation reads (docs/concurrency.md):
//
//   reader    load seq (acquire); odd -> a writer is mid-update, retry;
//             read nonce/holder/revoked; reload seq (acquire); a changed
//             value means the entry mutated underfoot, retry
//   writer    take the writer mutex, bump seq to odd (release), write the
//             fields, bump seq back to even (release), bump the generation
//
// seq == 0 marks an id not created yet, so a reader never sees a
// half-written entry. The fields are relaxed atomics — the seq protocol
// provides the ordering, the atomicity only keeps the loads untorn — which
// keeps the scheme exact under ThreadSanitizer. Entries live in chunks that
// double in size and never move, so a validator can index one while a
// writer appends.
//
// The writers (Create, RevokeForDomain, an injected revocation) are the
// uncommon cases; validation takes no lock unless set_lock_free(false)
// selects the single-lock baseline bench_mt_throughput compares against.

#ifndef SRC_KERN_BINDING_TABLE_H_
#define SRC_KERN_BINDING_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/shm/astack.h"
#include "src/sim/fault_injector.h"

namespace lrpc {

struct BindingRecord {
  BindingId id = kNoBinding;
  std::uint64_t nonce = 0;
  DomainId client = kNoDomain;
  DomainId server = kNoDomain;
  InterfaceId interface_id = kNoInterface;
  // Set by the table's writers, which copy it into the entry validators
  // read; read it here only while no writer runs.
  bool revoked = false;
  bool remote = false;
  // Opaque pointer to the interface/PDL this binding grants access to; owned
  // by the LRPC runtime layer.
  const void* pdl = nullptr;
  // A-stack regions allocated for this binding (owned here so the
  // termination collector can invalidate their linkages).
  std::vector<std::unique_ptr<AStackRegion>> regions;
};

// The client-visible capability: the id plus the nonce. The kernel rejects
// a presented object whose nonce does not match the table's.
struct BindingObject {
  BindingId id = kNoBinding;
  std::uint64_t nonce = 0;
  bool remote = false;

  bool valid() const { return id != kNoBinding; }
};

class BindingTable {
 public:
  explicit BindingTable(std::uint64_t seed);
  ~BindingTable();
  BindingTable(const BindingTable&) = delete;
  BindingTable& operator=(const BindingTable&) = delete;

  BindingRecord& Create(DomainId client, DomainId server,
                        InterfaceId interface_id, const void* pdl, bool remote);

  // Call-time validation: detects forged, revoked, and stolen bindings.
  // The kBindingRevocation injection point lives here: a fault revokes the
  // record at the instant it would otherwise have validated. Safe against
  // concurrent writers.
  Result<BindingRecord*> Validate(const BindingObject& object,
                                  DomainId caller) const;

  // Validate through the calling thread's binding cache (docs/fast_path.md):
  // a repeat call through the same (binding, caller) pair skips the seqlock
  // read entirely when the table's generation has not moved since the cached
  // full validation. Every writer bumps the generation with release; the
  // cache probe loads it with acquire, so a thread that has observed a
  // revocation by any means can never hit a stale entry. Same statuses as
  // Validate, and a cache hit consults the injection point too.
  Result<BindingRecord*> ValidateCached(const BindingObject& object,
                                        DomainId caller) const;

  // The same checks with no side effects and no fault injection; the
  // invariant checker uses it to prove revoked nonces never validate.
  Status CheckValidate(const BindingObject& object, DomainId caller) const;

  // Lookup without the capability check (kernel-internal).
  BindingRecord* Find(BindingId id);

  // Revokes every binding in which `domain` participates; returns the
  // affected records so the collector can invalidate their linkages.
  std::vector<BindingRecord*> RevokeForDomain(DomainId domain);

  // All live (non-revoked) bindings where `domain` is the client.
  std::vector<BindingRecord*> ClientBindingsOf(DomainId domain);

  std::size_t size() const;
  const BindingRecord& record_at(std::size_t index) const;

  // Installed by Kernel::set_fault_injector; null means no injection.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // false selects the single-lock baseline, for this table and for every
  // A-stack free list LrpcRuntime::Import builds. Set before the first
  // import (ParallelMachine's constructor does), so no validator runs yet.
  void set_lock_free(bool lock_free) { lock_free_ = lock_free; }
  bool lock_free() const { return lock_free_; }

  // Monotonic mutation counter; cached validations are tagged with it.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  // ValidateCached probes the calling thread answered from its own cache,
  // without touching the seqlock, summed over every table.
  static std::uint64_t ThreadCacheHits();

 private:
  // One line per entry: the seqlock read walks seq, the fields, then seq
  // again — all on a single cache line — and a writer revoking one binding
  // invalidates only that binding's line in rival caches
  // (docs/fast_path.md layout audit).
  struct LRPC_CACHELINE_ALIGNED Entry {
    // 0 = not created; odd = writer mid-update; even > 0 = stable.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> nonce{0};
    std::atomic<DomainId> client{kNoDomain};
    std::atomic<bool> revoked{false};
    std::atomic<BindingRecord*> record{nullptr};
  };
  static_assert(sizeof(Entry) == kCacheLineSize,
                "binding-table entry layout audit: one line per entry");

  // Chunk c holds the ids [kFirstChunk * (2^c - 1), kFirstChunk *
  // (2^(c+1) - 1)); 64 chunks cover every non-negative BindingId.
  static constexpr std::uint64_t kFirstChunk = 64;
  static constexpr int kChunks = 64;
  static int ChunkOf(BindingId id);
  Entry* EntryAt(BindingId id) const;

  // The seqlock read behind Validate, ValidateCached and CheckValidate.
  Result<BindingRecord*> Read(const BindingObject& object,
                              DomainId caller) const;
  Result<BindingRecord*> InjectRevocation(BindingRecord* record) const;
  std::unique_lock<std::mutex> BaselineLock() const;

  // Writers. Const because an injected revocation happens inside a const
  // validation: that is why writer_mutex_ and generation_ are mutable.
  void Revoke(BindingRecord& record) const LRPC_EXCLUDES(writer_mutex_);
  void Publish(BindingRecord& record) const LRPC_REQUIRES(writer_mutex_);

  FaultInjector* injector_ = nullptr;
  bool lock_free_ = true;
  mutable Mutex writer_mutex_;
  Rng rng_ LRPC_GUARDED_BY(writer_mutex_);
  std::vector<std::unique_ptr<BindingRecord>> records_
      LRPC_GUARDED_BY(writer_mutex_);
  // Allocated by Create under writer_mutex_, published with release.
  std::atomic<Entry*> chunks_[kChunks] = {};
  // The baseline's single validator lock. Engaged conditionally
  // (std::unique_lock, only when !lock_free_), a shape the static analysis
  // cannot follow, so it stays a raw std::mutex; the seqlock protocol, not
  // a capability, is what protects the entries.
  mutable std::mutex baseline_mutex_;
  // Read by every cached validation and written only by the writers, on a
  // line of its own.
  LRPC_CACHELINE_ALIGNED mutable std::atomic<std::uint64_t> generation_{0};
};

}  // namespace lrpc

#endif  // SRC_KERN_BINDING_TABLE_H_
