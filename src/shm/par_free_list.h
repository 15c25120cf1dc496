// Host-parallel A-stack free lists (the real-thread engine's contended
// structure; docs/concurrency.md).
//
// The paper guards each per-interface A-stack free list with "a single lock"
// and argues that the fine granularity is what lets call throughput scale
// with processors (Sections 3.3, 3.4). Under the real-thread engine the free
// list is popped and pushed by concurrent host threads on every call and
// return, so it is implemented twice over the same fixed node set:
//
//   lock-free  a Treiber stack whose 64-bit head packs {tag:32, index:32};
//              the tag advances on every successful exchange, so a node that
//              is popped and pushed back between a rival's head load and its
//              compare-exchange cannot make the rival's stale next pointer
//              win (the ABA case)
//   locked     the paper's single-lock baseline, kept behind a flag as the
//              contention reference for bench_mt_throughput
//
// Ownership transfer is the synchronization: a successful pop acquires
// everything the previous owner released with its push. That edge is why the
// A-stack bytes, the linkage record and the E-stack association need no
// atomics of their own — exactly one thread owns them between a pop and the
// matching push.
//
// Nodes are registered once, single-threaded, before the first concurrent
// operation, and are never freed; the list only recirculates them.

#ifndef SRC_SHM_PAR_FREE_LIST_H_
#define SRC_SHM_PAR_FREE_LIST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/shm/astack.h"
#include "src/sim/processor.h"

namespace lrpc {

class ParFreeList {
 public:
  // `capacity` bounds Register calls; the node array is sized once so no
  // operation ever reallocates shared storage.
  ParFreeList(std::string name, bool lock_free, int capacity);

  // Setup, single-threaded: registers `ref` as the next node and places it
  // on the free list. Registration must follow each region's index order
  // (the order Import fills AStackQueue), so single-thread pops agree with
  // the simulated queue's LIFO discipline.
  void Register(AStackRef ref);

  // Pops the most recently pushed A-stack, or kAStacksExhausted. The charge
  // mirrors AStackQueue::Pop so the cost ledger keeps its Table 5 shape.
  Result<AStackRef> Pop(Processor& cpu, SimDuration charge_while_held = 0);
  void Push(Processor& cpu, AStackRef ref, SimDuration charge_while_held = 0);

  bool lock_free() const { return lock_free_; }
  const std::string& name() const { return name_; }
  int capacity() const { return capacity_; }
  int registered() const { return static_cast<int>(slots_.size()); }
  // Every node ever registered, in registration order (conservation audits).
  const std::vector<AStackRef>& nodes() const { return slots_; }

  // The free set right now. Only meaningful when no concurrent operations
  // are in flight (post-run audits).
  std::vector<AStackRef> Snapshot() const;

  // Lost head exchanges (relaxed; approximate while threads run).
  std::uint64_t cas_retries() const {
    // LRPC_MO(stat-counter)
    return cas_retries_.load(std::memory_order_relaxed);
  }
  // Tag of the current head; each successful pop or push advances it (tests
  // use it to observe the ABA counter).
  std::uint32_t head_tag() const {
    // LRPC_MO(quiescent-audit)
    return UnpackTag(head_.load(std::memory_order_relaxed));
  }

 private:
  static constexpr std::int32_t kEmpty = -1;

  static std::uint64_t Pack(std::uint32_t tag, std::int32_t index) {
    return (std::uint64_t{tag} << 32) |
           std::uint64_t{static_cast<std::uint32_t>(index)};
  }
  static std::uint32_t UnpackTag(std::uint64_t head) {
    return static_cast<std::uint32_t>(head >> 32);
  }
  static std::int32_t UnpackIndex(std::uint64_t head) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(head));
  }

  std::int32_t NodeOf(AStackRef ref) const;

  std::string name_;
  bool lock_free_;
  int capacity_;
  std::vector<AStackRef> slots_;  // Node id -> A-stack; fixed after setup.
  // Region -> id of its first node; regions register their nodes in index
  // order, so NodeOf is base + index. Read-only after setup.
  struct RegionBase {
    const AStackRegion* region;
    std::int32_t base;
  };
  std::vector<RegionBase> bases_;

  // Lock-free state. The head is the CAS target of every pop and push, so
  // it owns a cache line outright: before the layout audit it shared a line
  // with the statistics counters below, and every relaxed counter bump
  // forced the next rival's compare-exchange to re-fetch the line
  // (docs/fast_path.md).
  LRPC_CACHELINE_ALIGNED std::atomic<std::uint64_t> head_{Pack(0, kEmpty)};
  std::unique_ptr<std::atomic<std::int32_t>[]> next_;

  // Locked-baseline state.
  mutable Mutex mutex_;
  std::vector<std::int32_t> free_ids_ LRPC_GUARDED_BY(mutex_);

  // On its own line so bumping it never invalidates head_. Only a lost
  // exchange bumps it: a per-operation counter here would be one more
  // shared write on every call.
  LRPC_CACHELINE_ALIGNED std::atomic<std::uint64_t> cas_retries_{0};
};

static_assert(sizeof(std::atomic<std::uint64_t>) == 8);

}  // namespace lrpc

#endif  // SRC_SHM_PAR_FREE_LIST_H_
