#include "src/shm/par_free_list.h"

#include <algorithm>
#include <optional>

#include "src/common/check.h"
#include "src/sim/machine.h"

namespace lrpc {

namespace {

// The simulator's lock is taken on a simulating machine only; a host
// machine (Machine::simulates_costs false) charges without it.
bool Simulates(const Processor& cpu) {
  return cpu.machine() == nullptr || cpu.machine()->simulates_costs();
}

void ChargeHeld(Processor& cpu, SimDuration charge) {
  if (charge > 0) {
    cpu.Charge(CostCategory::kClientStub, charge);
  }
}

}  // namespace

ParFreeList::ParFreeList(std::string name, bool lock_free, int processors)
    : lock_free_(lock_free), sim_lock_(std::move(name)) {
  if (lock_free_ && processors > 0) {
    slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(processors));
    slot_count_ = processors;
  }
}

void ParFreeList::Register(AStackRef ref) {
  LRPC_CHECK(ref.valid());
  const auto id = static_cast<std::int32_t>(nodes_.size());
  if (nodes_.size() == next_capacity_) {
    // Single-threaded, so the links may move to a larger array.
    const std::size_t capacity = std::max<std::size_t>(8, 2 * next_capacity_);
    auto next = std::make_unique<std::atomic<std::int32_t>[]>(capacity);
    for (std::size_t i = 0; i < next_capacity_; ++i) {
      // LRPC_MO(setup-single-thread)
      const std::int32_t link = next_[i].load(std::memory_order_relaxed);
      // LRPC_MO(setup-single-thread)
      next[i].store(link, std::memory_order_relaxed);
    }
    next_ = std::move(next);
    next_capacity_ = capacity;
  }
  if (bases_.empty() || bases_.back().region != ref.region) {
    bases_.push_back({ref.region, id - ref.index});
  }
  LRPC_CHECK(NodeOf(ref) == id);
  nodes_.push_back(ref);
  PushShared(id);
}

// On a simulating machine each operation acquires the group's lock,
// charges, operates and releases, so the charge is the lock's hold time
// (Section 3.4, Figure 2).
void ParFreeList::AddRegion(Processor& cpu, AStackRegion* region) {
  std::optional<SimLockGuard> held;
  if (Simulates(cpu)) {
    held.emplace(sim_lock_, cpu);
  }
  for (int i = 0; i < region->count(); ++i) {
    Register(AStackRef{region, i});
  }
}

std::int32_t ParFreeList::NodeOf(AStackRef ref) const {
  for (const RegionBase& base : bases_) {
    if (base.region == ref.region) {
      return base.base + ref.index;
    }
  }
  return kEmpty;
}

Result<AStackRef> ParFreeList::Pop(Processor& cpu,
                                   SimDuration charge_while_held) {
  std::optional<SimLockGuard> held;
  if (Simulates(cpu)) {
    held.emplace(sim_lock_, cpu);
  }
  ChargeHeld(cpu, charge_while_held);
  return PopNode(cpu);
}

void ParFreeList::Push(Processor& cpu, AStackRef ref,
                       SimDuration charge_while_held) {
  std::optional<SimLockGuard> held;
  if (Simulates(cpu)) {
    held.emplace(sim_lock_, cpu);
  }
  ChargeHeld(cpu, charge_while_held);
  const std::int32_t id = NodeOf(ref);
  LRPC_CHECK(id >= 0 && id < registered());
  PushNode(cpu, id);
}

Result<AStackRef> ParFreeList::PopNode(const Processor& cpu) {
  if (!lock_free_) {
    MutexLock guard(mutex_);
    if (free_ids_.empty()) {
      return Status(ErrorCode::kAStacksExhausted);
    }
    const std::int32_t id = free_ids_.back();
    free_ids_.pop_back();
    return nodes_[static_cast<std::size_t>(id)];
  }
  if (slot_count_ == 0) {
    // The head alone is the free set: an empty head is an exact exhaustion.
    const std::int32_t id = PopHead();
    if (id == kEmpty) {
      return Status(ErrorCode::kAStacksExhausted);
    }
    return nodes_[static_cast<std::size_t>(id)];
  }
  const int own = cpu.id() % slot_count_;
  for (;;) {
    std::int32_t id = TakeSlot(slots_[static_cast<std::size_t>(own)]);
    if (id == kEmpty) {
      id = PopHead();
    }
    for (int i = 1; i < slot_count_ && id == kEmpty; ++i) {
      id = TakeSlot(slots_[static_cast<std::size_t>((own + i) % slot_count_)]);
    }
    if (id != kEmpty) {
      return nodes_[static_cast<std::size_t>(id)];
    }
    // Every place looked empty, but an A-stack can move from a place not
    // yet scanned to one already scanned. A double collect proves an
    // instant with nothing free: the tags only grow, so equal sums over two
    // all-empty collects mean no place changed between its two reads, and
    // every place was empty at the instant the first collect ended.
    std::uint64_t first = 0;
    std::uint64_t second = 0;
    if (CollectEmpty(&first) && CollectEmpty(&second) && first == second) {
      return Status(ErrorCode::kAStacksExhausted);
    }
  }
}

void ParFreeList::PushNode(const Processor& cpu, std::int32_t id) {
  if (slot_count_ > 0) {
    Slot& slot = slots_[static_cast<std::size_t>(cpu.id() % slot_count_)];
    // Only this processor fills its slot and rivals only empty it, so an
    // empty slot stays empty until the store below.
    // LRPC_MO(slot-owner-fill)
    const std::uint64_t word = slot.word.load(std::memory_order_relaxed);
    if (UnpackIndex(word) == kEmpty) {
      // Release publishes the owner's writes to the A-stack and its
      // linkage; the take that empties the slot acquires them.
      slot.word.store(Pack(UnpackTag(word) + 1, id), std::memory_order_release);
      return;
    }
  }
  PushShared(id);
}

std::int32_t ParFreeList::PopHead() {
  std::uint64_t head = head_.load(std::memory_order_acquire);
  for (;;) {
    const std::int32_t index = UnpackIndex(head);
    if (index < 0) {
      return kEmpty;
    }
    // A rival may pop `index` and push it back before our exchange; the
    // stale next value cannot win then, because the tag has moved on.
    const std::int32_t next =
        next_[static_cast<std::size_t>(index)].load(
            std::memory_order_relaxed);  // LRPC_MO(treiber-next)
    // Success is the acquire edge: it orders this thread after the push
    // that freed `index`, covering the A-stack and linkage it now owns.
    // The FAILURE ordering must also be acquire — it cannot be relaxed,
    // because the head value a failed exchange hands back is what the
    // next iteration's next_[index] read keys off. That read happens
    // BEFORE the eventually-successful exchange, so the success edge
    // cannot retroactively order it; only an acquire on the load that
    // observed `index` at the head guarantees the read sees the next
    // pointer its pusher stored (docs/fast_path.md, rejected relaxation).
    if (head_.compare_exchange_weak(head, Pack(UnpackTag(head) + 1, next),
                                    std::memory_order_acquire,
                                    std::memory_order_acquire)) {
      return index;
    }
    // LRPC_MO(stat-counter)
    cas_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ParFreeList::PushShared(std::int32_t id) {
  if (!lock_free_) {
    MutexLock guard(mutex_);
    free_ids_.push_back(id);
    return;
  }
  // LRPC_MO(cas-seed)
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  for (;;) {
    next_[static_cast<std::size_t>(id)].store(UnpackIndex(head),
                                              // LRPC_MO(treiber-next)
                                              std::memory_order_relaxed);
    // Release publishes every write this owner made to the A-stack and
    // its linkage; the next pop's acquire picks them up.
    if (head_.compare_exchange_weak(head, Pack(UnpackTag(head) + 1, id),
                                    std::memory_order_release,
                                    // LRPC_MO(cas-failure-reload)
                                    std::memory_order_relaxed)) {
      return;
    }
    // LRPC_MO(stat-counter)
    cas_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::int32_t ParFreeList::TakeSlot(Slot& slot) {
  // LRPC_MO(cas-seed)
  std::uint64_t word = slot.word.load(std::memory_order_relaxed);
  while (UnpackIndex(word) != kEmpty) {
    // Acquire pairs with the release store that filled the slot. The tag
    // stays: only fills advance it.
    if (slot.word.compare_exchange_weak(word, Pack(UnpackTag(word), kEmpty),
                                        std::memory_order_acquire,
                                        // LRPC_MO(cas-failure-reload)
                                        std::memory_order_relaxed)) {
      return UnpackIndex(word);
    }
  }
  return kEmpty;
}

bool ParFreeList::CollectEmpty(std::uint64_t* version) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (UnpackIndex(head) != kEmpty) {
    return false;
  }
  std::uint64_t sum = UnpackTag(head);
  for (int i = 0; i < slot_count_; ++i) {
    const std::uint64_t word =
        slots_[static_cast<std::size_t>(i)].word.load(std::memory_order_acquire);
    if (UnpackIndex(word) != kEmpty) {
      return false;
    }
    sum += UnpackTag(word);
  }
  *version = sum;
  return true;
}

std::vector<AStackRef> ParFreeList::Snapshot() const {
  std::vector<AStackRef> out;
  const std::size_t bound = nodes_.size() + 1;
  if (lock_free_) {
    for (int i = 0; i < slot_count_; ++i) {
      const std::int32_t index = UnpackIndex(
          slots_[static_cast<std::size_t>(i)].word.load(
              std::memory_order_relaxed));  // LRPC_MO(quiescent-audit)
      if (index != kEmpty) {
        out.push_back(nodes_[static_cast<std::size_t>(index)]);
      }
    }
    std::int32_t index = UnpackIndex(head_.load(std::memory_order_acquire));
    while (index >= 0 && out.size() < bound) {
      out.push_back(nodes_[static_cast<std::size_t>(index)]);
      index = next_[static_cast<std::size_t>(index)].load(
          std::memory_order_relaxed);  // LRPC_MO(quiescent-audit)
    }
    return out;
  }
  MutexLock guard(mutex_);
  for (auto it = free_ids_.rbegin(); it != free_ids_.rend(); ++it) {
    out.push_back(nodes_[static_cast<std::size_t>(*it)]);
  }
  return out;
}

}  // namespace lrpc
