// The A-stack free list: one per A-stack group of every binding, on every
// backend (docs/concurrency.md).
//
// The paper guards each per-interface A-stack free list with "a single lock"
// and argues that the fine granularity is what lets call throughput scale
// with processors (Sections 3.3, 3.4). Import builds one list per group and
// §5.2 growth adds regions to it. On the real-thread engine the list is
// popped and pushed by concurrent host threads on every call and return, so
// it is implemented twice over one node set, the discipline fixed when the
// list is built:
//
//   lock-free  a Treiber stack whose 64-bit head packs {tag:32, index:32};
//              the tag advances on every successful exchange, so a node that
//              is popped and pushed back between a rival's head load and its
//              compare-exchange cannot make the rival's stale next pointer
//              win (the ABA case)
//   locked     the paper's single-lock baseline, the contention reference
//              for bench_mt_throughput
//
// On a machine that simulates costs, every pop, push and registration also
// takes the group's SimLock around its charge, so the simulated lock's hold
// time and contention are the paper's (Figure 2). Host machines skip it.
//
// Ownership transfer is the synchronization: a successful pop acquires
// everything the previous owner released with its push. That edge is why the
// A-stack bytes, the linkage record and the E-stack association need no
// atomics of their own — exactly one thread owns them between a pop and the
// matching push.
//
// Nodes are registered single-threaded (bind time, and growth on the
// single-threaded backends) and are never freed; the list only recirculates
// them.

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
#include "src/sim/sim_lock.h"

namespace lrpc {

class ParFreeList {
 public:
  ParFreeList(std::string name, bool lock_free);

  // Single-threaded: registers `ref` as the next node and places it on the
  // free list. A region's nodes must be registered in index order.
  void Register(AStackRef ref);
  // Single-threaded: registers every A-stack of `region` in index order, as
  // one push under the simulator's lock (bind time and Section 5.2 growth).
  void AddRegion(Processor& cpu, AStackRegion* region);

  // Pops the most recently pushed A-stack, or kAStacksExhausted.
  // `charge_while_held` is the queueing work done inside the critical
  // section: it is the simulated lock's hold time (Section 3.4).
  Result<AStackRef> Pop(Processor& cpu, SimDuration charge_while_held = 0);
  void Push(Processor& cpu, AStackRef ref, SimDuration charge_while_held = 0);

  int registered() const { return static_cast<int>(slots_.size()); }
  // The simulator's lock (its statistics; never taken on a host machine).
  const SimLock& sim_lock() const { return sim_lock_; }

  // The free set right now, most recently pushed first. Only meaningful
  // when no concurrent operations are in flight (audits). The walk stops
  // after registered() + 1 nodes, so a corrupted (cyclic) list comes back
  // longer than it can be instead of hanging the caller.
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
  // The free-set operations proper, outside the simulator's lock.
  Result<AStackRef> PopNode();
  void PushNode(std::int32_t id);

  bool lock_free_;
  SimLock sim_lock_;
  std::vector<AStackRef> slots_;  // Node id -> A-stack; grows single-threaded.
  // Region -> id of its first node; regions register their nodes in index
  // order, so NodeOf is base + index.
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
  // Next links, one per node; reallocated (single-threaded) when a
  // registration outgrows it.
  std::unique_ptr<std::atomic<std::int32_t>[]> next_;
  std::size_t next_capacity_ = 0;

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
