// Lock-free idle-processor registry (domain caching under real threads;
// docs/concurrency.md).
//
// On the simulated machine the Section 3.4 exchange finds an idle processor
// with a linear scan over Processor::idle() flags — fine when one host
// thread drives everything, a data race the moment each Processor has its
// own std::thread. Here each processor gets one atomic slot:
//
//   0            not claimable (running, or already claimed)
//   context + 1  parked, idling with that VM context loaded
//
// Parking is a release store; claiming is a compare-exchange of the slot
// back to 0 with acquire on success. A successful claim therefore (a) is
// exclusive — no two callers can win the same exchange — and (b) orders the
// claimant after every mutation the previous exchange made to the parked
// processor's clock, TLB and loaded context. The kernel's EnterDomain uses
// this registry instead of the scan whenever a Machine has it enabled.
//
// Claiming is attempted twice per call (call and return leg), so the scan
// is fronted by a relaxed parked-count hint: when nothing is parked — the
// common case for a saturated machine — TryClaimInContext returns without
// touching any slot line. The hint is advisory (see the comment at
// parked_hint_); correctness always rides the slot compare-exchange.

#ifndef SRC_SIM_IDLE_REGISTRY_H_
#define SRC_SIM_IDLE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/common/cacheline.h"
#include "src/sim/processor.h"

namespace lrpc {

class IdleProcessorRegistry {
 public:
  explicit IdleProcessorRegistry(int processor_count);

  // Publishes processor `cpu` as claimable, idling in `context`. Release:
  // everything done to the processor before parking is visible to the
  // eventual claimant.
  void Park(int cpu, VmContextId context);
  // Withdraws a parked processor (it keeps whatever context it has loaded).
  void Unpark(int cpu);

  // Claims any processor parked in `context`; returns its id, or -1. The
  // winner owns the processor outright until it parks it again.
  int TryClaimInContext(VmContextId context);

  int processor_count() const { return processor_count_; }
  int parked_count() const;
  std::uint64_t claims() const {
    return claims_.load(std::memory_order_relaxed);  // LRPC_MO(stat-counter)
  }

 private:
  static std::uint64_t Encode(VmContextId context) {
    return static_cast<std::uint64_t>(context) + 1;
  }

  // One line per slot: a processor parking itself must not invalidate the
  // line a rival is compare-exchanging for a different processor
  // (docs/fast_path.md layout audit).
  struct LRPC_CACHELINE_ALIGNED Slot {
    std::atomic<std::uint64_t> value{0};
  };
  static_assert(sizeof(Slot) == kCacheLineSize,
                "idle-registry layout audit: one line per slot");

  int processor_count_;
  std::unique_ptr<Slot[]> slots_;
  // Advisory count of parked slots, maintained by Park/Unpark/claims with
  // relaxed operations. Relaxation argument (docs/fast_path.md): the hint
  // only gates an OPTIMIZATION — a claimant that reads 0 while a park is in
  // flight skips the scan and falls back to a full context switch, which is
  // always correct; a claimant that reads >0 for a slot already claimed
  // just scans and fails as before. No caller derives exclusivity or
  // visibility from the hint, so no ordering stronger than relaxed buys
  // anything. Its own line: it is written by every park/claim and read by
  // every call, and must not drag the claim counter along.
  LRPC_CACHELINE_ALIGNED std::atomic<int> parked_hint_{0};
  LRPC_CACHELINE_ALIGNED std::atomic<std::uint64_t> claims_{0};
};

}  // namespace lrpc

#endif  // SRC_SIM_IDLE_REGISTRY_H_
