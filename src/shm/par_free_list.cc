#include "src/shm/par_free_list.h"

#include <algorithm>
#include <optional>

#include "src/common/check.h"
#include "src/sim/machine.h"

namespace lrpc {

namespace {

// Backoff after a lost head exchange (Anderson, "The Performance of Spin
// Lock Alternatives for Shared-Memory Multiprocessors", IEEE TPDS 1990).
// The retry reuses the head value the failed exchange handed back, so it
// wins only if no rival moved the head during the wait; under contention
// the losers' waits double up to the cap while the winner runs
// uncontended, which trades fairness between callers for fewer collisions
// on the head line. docs/concurrency.md has the sweep that chose the cap.
constexpr int kMaxBackoffPauses = 64;

void Backoff(int& pauses) {
  for (int i = 0; i < pauses; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  if (pauses < kMaxBackoffPauses) {
    pauses *= 2;
  }
}

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

ParFreeList::ParFreeList(std::string name, bool lock_free)
    : lock_free_(lock_free), sim_lock_(std::move(name)) {}

void ParFreeList::Register(AStackRef ref) {
  LRPC_CHECK(ref.valid());
  const auto id = static_cast<std::int32_t>(slots_.size());
  if (slots_.size() == next_capacity_) {
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
  slots_.push_back(ref);
  PushNode(id);
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
  return PopNode();
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
  PushNode(id);
}

Result<AStackRef> ParFreeList::PopNode() {
  if (lock_free_) {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (int pauses = 1;; Backoff(pauses)) {
      const std::int32_t index = UnpackIndex(head);
      if (index < 0) {
        return Status(ErrorCode::kAStacksExhausted);
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
        return slots_[static_cast<std::size_t>(index)];
      }
      // LRPC_MO(stat-counter)
      cas_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  MutexLock guard(mutex_);
  if (free_ids_.empty()) {
    return Status(ErrorCode::kAStacksExhausted);
  }
  const std::int32_t id = free_ids_.back();
  free_ids_.pop_back();
  return slots_[static_cast<std::size_t>(id)];
}

void ParFreeList::PushNode(std::int32_t id) {
  if (lock_free_) {
    // LRPC_MO(cas-seed)
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    for (int pauses = 1;; Backoff(pauses)) {
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
  MutexLock guard(mutex_);
  free_ids_.push_back(id);
}

std::vector<AStackRef> ParFreeList::Snapshot() const {
  std::vector<AStackRef> out;
  const std::size_t bound = slots_.size() + 1;
  if (lock_free_) {
    std::int32_t index = UnpackIndex(head_.load(std::memory_order_acquire));
    while (index >= 0 && out.size() < bound) {
      out.push_back(slots_[static_cast<std::size_t>(index)]);
      index = next_[static_cast<std::size_t>(index)].load(
          std::memory_order_relaxed);  // LRPC_MO(quiescent-audit)
    }
    return out;
  }
  MutexLock guard(mutex_);
  for (auto it = free_ids_.rbegin(); it != free_ids_.rend(); ++it) {
    out.push_back(slots_[static_cast<std::size_t>(*it)]);
  }
  return out;
}

}  // namespace lrpc
