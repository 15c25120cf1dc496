// Simulated processor: a local clock, a loaded VM context, a TLB, and a
// phase-attributed cost ledger. Work executed by the kernel and by the RPC
// implementations advances the clock of the processor it runs on; the
// machine-wide bus-contention factor stretches wall-clock time when several
// processors are active, while the ledger always records uncontended model
// costs (so Table 5 sums exactly regardless of load). The ledger and the TLB
// model run only when the machine simulates costs (Machine::simulates_costs);
// on the host backends a charge advances the clock alone.

#ifndef SRC_SIM_PROCESSOR_H_
#define SRC_SIM_PROCESSOR_H_

#include <cstdint>

#include "src/common/cacheline.h"
#include "src/sim/cost_ledger.h"
#include "src/sim/tlb.h"
#include "src/sim/time.h"

namespace lrpc {

class Machine;

// Identifies a virtual-memory context (one per protection domain).
using VmContextId = std::int32_t;
constexpr VmContextId kNoVmContext = -1;

// Line-aligned: the parallel machine stores processors contiguously and
// each worker thread advances its own clock on every call (host calls
// advance only the clock), so a processor must never share a cache line
// with its neighbour (docs/fast_path.md layout audit).
class LRPC_CACHELINE_ALIGNED Processor {
 public:
  Processor(Machine* machine, int id, int tlb_entries)
      : machine_(machine), id_(id), tlb_(tlb_entries) {}

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  int id() const { return id_; }
  SimTime clock() const { return clock_; }
  void set_clock(SimTime t) { clock_ = t; }

  VmContextId loaded_context() const { return loaded_context_; }

  // Charges `amount` of work in `category`: the ledger records the raw
  // amount (only when the machine simulates costs); the clock advances by
  // the bus-contention-scaled amount.
  void Charge(CostCategory category, SimDuration amount);

  // Advances the clock without attributing model cost (e.g. idle spinning
  // until a timestamp).
  void AdvanceTo(SimTime t) {
    if (t > clock_) {
      clock_ = t;
    }
  }

  // Loads a VM context. If it differs from the loaded one, the (untagged)
  // TLB is invalidated when the machine simulates costs. Does NOT charge
  // time; callers charge the context-switch cost explicitly so it lands in
  // the right category.
  void LoadContext(VmContextId context);

  // Sets the loaded context without touching the TLB. Used by the
  // domain-caching exchange, where the TLB state travels with the context.
  void LoadContextNoInvalidate(VmContextId context) {
    loaded_context_ = context;
  }

  // Is this processor idling (spinning in some domain's context, available
  // for the domain-caching optimization)?
  bool idle() const { return idle_; }
  void set_idle(bool idle) { idle_ = idle; }

  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }

  CostLedger& ledger() { return ledger_; }
  const CostLedger& ledger() const { return ledger_; }

  Machine* machine() const { return machine_; }

 private:
  // Hot scalars first: a Null call touches the clock and loaded context on
  // every charge and domain transfer, and they fit the first line together
  // with the identity fields; the TLB and ledger (bulkier, touched via
  // their own methods) follow.
  Machine* machine_;
  int id_;
  SimTime clock_ = 0;
  VmContextId loaded_context_ = kNoVmContext;
  bool idle_ = false;
  Tlb tlb_;
  CostLedger ledger_;

  static_assert(sizeof(Machine*) + sizeof(int) + sizeof(SimTime) +
                        sizeof(VmContextId) + sizeof(bool) <=
                    kCacheLineSize,
                "processor layout audit: hot scalars exceed one line");
};

static_assert(alignof(Processor) == kCacheLineSize,
              "processor layout audit: class must be line-aligned");

}  // namespace lrpc

#endif  // SRC_SIM_PROCESSOR_H_
