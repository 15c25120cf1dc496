#include "src/sim/idle_registry.h"

#include "src/common/check.h"

namespace lrpc {

IdleProcessorRegistry::IdleProcessorRegistry(int processor_count)
    : processor_count_(processor_count) {
  LRPC_CHECK(processor_count > 0);
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(processor_count));
}

void IdleProcessorRegistry::Park(int cpu, VmContextId context) {
  LRPC_DCHECK(cpu >= 0 && cpu < processor_count_);
  LRPC_DCHECK(context >= 0);
  // Exchange rather than store so re-parking an already-parked slot (a
  // context change while idling) leaves the hint balanced.
  const std::uint64_t prior = slots_[static_cast<std::size_t>(cpu)]
                                  .value.exchange(Encode(context),
                                                  std::memory_order_release);
  if (prior == 0) {
    // LRPC_MO(advisory-hint)
    parked_hint_.fetch_add(1, std::memory_order_relaxed);
  }
}

void IdleProcessorRegistry::Unpark(int cpu) {
  LRPC_DCHECK(cpu >= 0 && cpu < processor_count_);
  const std::uint64_t prior = slots_[static_cast<std::size_t>(cpu)]
                                  .value.exchange(0,
                                                  // LRPC_MO(advisory-hint)
                                                  std::memory_order_relaxed);
  if (prior != 0) {
    // LRPC_MO(advisory-hint)
    parked_hint_.fetch_sub(1, std::memory_order_relaxed);
  }
}

int IdleProcessorRegistry::TryClaimInContext(VmContextId context) {
  if (context < 0) {
    return -1;
  }
  // Advisory early-exit (see parked_hint_): a saturated machine attempts a
  // claim on both legs of every call, and without this the scan walks one
  // line per processor — twice per call — just to find nothing.
  // LRPC_MO(advisory-hint)
  if (parked_hint_.load(std::memory_order_relaxed) <= 0) {
    return -1;
  }
  const std::uint64_t want = Encode(context);
  for (int i = 0; i < processor_count_; ++i) {
    std::uint64_t seen = slots_[static_cast<std::size_t>(i)].value.load(
        std::memory_order_relaxed);  // LRPC_MO(cas-seed)
    if (seen != want) {
      continue;
    }
    // Acquire on success: the claimant is ordered after the Park that
    // published this processor, and therefore after the previous exchange's
    // writes to its clock, TLB and context.
    if (slots_[static_cast<std::size_t>(i)].value.compare_exchange_strong(
            // LRPC_MO(cas-failure-reload)
            seen, 0, std::memory_order_acquire, std::memory_order_relaxed)) {
      // LRPC_MO(advisory-hint)
      parked_hint_.fetch_sub(1, std::memory_order_relaxed);
      claims_.fetch_add(1, std::memory_order_relaxed);  // LRPC_MO(stat-counter)
      return i;
    }
  }
  return -1;
}

int IdleProcessorRegistry::parked_count() const {
  int parked = 0;
  for (int i = 0; i < processor_count_; ++i) {
    if (slots_[static_cast<std::size_t>(i)].value.load(
            std::memory_order_relaxed) != 0) {  // LRPC_MO(advisory-hint)
      ++parked;
    }
  }
  return parked;
}

}  // namespace lrpc
