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
// On a host machine a lock-free list also keeps one slot per processor in
// front of the shared head, each on its own cache line (the per-processor
// magazine of Bonwick and Adams, "Magazines and Vmem", USENIX 2001, one
// A-stack deep). A push parks the A-stack in the pushing processor's slot
// when it is empty; a pop takes its own slot first, then the shared list,
// then steals from other processors' slots. A caller that returns an
// A-stack and calls again therefore writes only its own line, and the head
// sees traffic only when a slot runs empty or full. The simulator and the
// one-lock baseline keep no slots.
//
// Ownership transfer is the synchronization: a successful pop acquires
// everything the previous owner released with its push, whether the
// A-stack passed through the shared list or a slot. That edge is why the
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
  // `processors` slots sit in front of a lock-free list's shared head: the
  // processor count of a host machine, 0 on a simulating one. The one-lock
  // baseline ignores it.
  ParFreeList(std::string name, bool lock_free, int processors = 0);

  // Single-threaded: registers `ref` as the next node and places it on the
  // shared list. A region's nodes must be registered in index order.
  void Register(AStackRef ref);
  // Single-threaded: registers every A-stack of `region` in index order, as
  // one push under the simulator's lock (bind time and Section 5.2 growth).
  void AddRegion(Processor& cpu, AStackRegion* region);

  // Pops a free A-stack: the one in `cpu`'s slot, else the most recently
  // pushed on the shared list, else one from another processor's slot. It
  // reports kAStacksExhausted only if, at some instant during the call, no
  // A-stack was free. `charge_while_held` is the queueing work done inside
  // the critical section: it is the simulated lock's hold time (Section
  // 3.4), and every path charges it.
  Result<AStackRef> Pop(Processor& cpu, SimDuration charge_while_held = 0);
  // Parks `ref` in `cpu`'s slot if that is empty, else pushes it on the
  // shared list. A processor is driven by one thread at a time (its clock is
  // a plain field), so only that thread fills its slot.
  void Push(Processor& cpu, AStackRef ref, SimDuration charge_while_held = 0);

  int registered() const { return static_cast<int>(nodes_.size()); }
  int slot_count() const { return slot_count_; }
  // The simulator's lock (its statistics; never taken on a host machine).
  const SimLock& sim_lock() const { return sim_lock_; }

  // The free set right now: the A-stacks parked in slots, then the shared
  // list from the most recently pushed. Only meaningful when no concurrent
  // operations are in flight (audits). The walk stops after registered() +
  // 1 nodes, so a corrupted (cyclic) list comes back longer than it can be
  // instead of hanging the caller.
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

  // One processor's slot: {tag:32, node:32}, the node kEmpty when the slot
  // holds nothing. Only a fill advances the tag, so a slot that reads empty
  // with the same tag twice was not filled in between.
  struct LRPC_CACHELINE_ALIGNED Slot {
    std::atomic<std::uint64_t> word{Pack(0, kEmpty)};
  };
  static_assert(sizeof(Slot) == kCacheLineSize,
                "free-list slot layout audit: one line per processor");

  std::int32_t NodeOf(AStackRef ref) const;
  // The free-set operations proper, outside the simulator's lock.
  Result<AStackRef> PopNode(const Processor& cpu);
  void PushNode(const Processor& cpu, std::int32_t id);
  // The shared list alone: PopHead (lock-free only) returns kEmpty when the
  // head is empty; PushShared pushes on either discipline's list.
  std::int32_t PopHead();
  void PushShared(std::int32_t id);
  // Takes the node out of `slot`, or returns kEmpty.
  static std::int32_t TakeSlot(Slot& slot);
  // One read of the head and every slot. False if any holds a node;
  // otherwise `*version` is the sum of their tags, which only grow.
  bool CollectEmpty(std::uint64_t* version) const;

  bool lock_free_;
  SimLock sim_lock_;
  std::vector<AStackRef> nodes_;  // Node id -> A-stack; grows single-threaded.
  // Region -> id of its first node; regions register their nodes in index
  // order, so NodeOf is base + index.
  struct RegionBase {
    const AStackRegion* region;
    std::int32_t base;
  };
  std::vector<RegionBase> bases_;

  // Lock-free state. The head is the CAS target of every pop and push that
  // misses the slots, so it owns a cache line outright: before the layout
  // audit it shared a line with the statistics counters below, and every
  // relaxed counter bump forced the next rival's compare-exchange to
  // re-fetch the line (docs/fast_path.md).
  LRPC_CACHELINE_ALIGNED std::atomic<std::uint64_t> head_{Pack(0, kEmpty)};
  // Next links, one per node; reallocated (single-threaded) when a
  // registration outgrows it.
  std::unique_ptr<std::atomic<std::int32_t>[]> next_;
  std::size_t next_capacity_ = 0;
  // One slot per processor, each on its own line; empty on a simulating
  // machine and in the one-lock baseline.
  std::unique_ptr<Slot[]> slots_;
  int slot_count_ = 0;

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
