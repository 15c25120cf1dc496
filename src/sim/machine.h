// Machine: a simulated shared-memory multiprocessor.
//
// Owns the processors, the cost model, and the idle-processor registry used
// by the domain-caching optimization (Section 3.4), which only the simulator
// runs. Also provides the globally-earliest-first stepping order that makes
// SimLock an exact FIFO contention model for multiprocessor throughput
// experiments (Figure 2).

#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <memory>
#include <vector>

#include "src/sim/machine_model.h"
#include "src/sim/processor.h"
#include "src/sim/time.h"

namespace lrpc {

class LrpcRuntime;

class Machine {
 public:
  Machine(MachineModel model, int processor_count);

  const MachineModel& model() const { return model_; }

  // Whether the processors keep the C-VAX cost ledger and TLB model (the
  // deterministic simulator) or only the clock (the host backends, where
  // nothing reads a ledger or a TLB). The backend of the LrpcRuntime built
  // on this machine decides it; a machine no runtime runs on simulates.
  bool simulates_costs() const { return simulates_costs_; }
  int processor_count() const { return static_cast<int>(processors_.size()); }

  Processor& processor(int i) { return *processors_[static_cast<std::size_t>(i)]; }
  const Processor& processor(int i) const {
    return *processors_[static_cast<std::size_t>(i)];
  }

  // --- Bus contention. ---
  // Number of processors concurrently doing call work. Each active processor
  // beyond the first stretches every charge by
  // model.bus_contention_per_extra_processor.
  int active_processors() const { return active_processors_; }
  void set_active_processors(int n) { active_processors_ = n; }
  double ContentionFactor() const {
    const int extra = active_processors_ > 1 ? active_processors_ - 1 : 0;
    return 1.0 + model_.bus_contention_per_extra_processor * extra;
  }

  // --- Idle-processor registry (domain caching, Section 3.4). ---
  // Marks `cpu` as idling in the context it currently has loaded.
  void MarkIdle(Processor& cpu);
  void MarkBusy(Processor& cpu);
  // A processor idling with `context` loaded, or nullptr. O(processors).
  Processor* FindIdleInContext(VmContextId context);
  // Records that a call wanted an idle processor in `context` but none was
  // found; the kernel uses these counters to prod idle processors to spin
  // in the domains showing the most LRPC activity.
  void RecordIdleMiss(VmContextId context);
  std::uint64_t idle_misses(VmContextId context) const;
  // The context with the highest miss count (what an idling processor should
  // spin in), or kNoVmContext if there have been no misses.
  VmContextId BusiestMissedContext() const;

  // Exchanges the loaded VM contexts (and TLB warmth) of the caller's
  // processor and an idle processor, so the calling thread continues on a
  // processor where the target context is already loaded. Charges the
  // exchange cost to `caller`. After the exchange `idler` idles in the
  // caller's old context.
  void ExchangeContexts(Processor& caller, Processor& idler);

  // The active processor with the smallest local clock; drive this one next
  // for exact FIFO lock contention. Only considers processors [0, n) where
  // n = active_processors().
  Processor& NextProcessorToRun();

  // Aggregate ledger across all processors.
  CostLedger AggregateLedger() const;

  // Resets clocks, ledgers, TLB stats and idle state.
  void Reset();

 private:
  // The runtime's constructor is the only place a backend is chosen, so it
  // is the only caller; every runtime built on one machine must agree.
  friend class LrpcRuntime;
  void BindBackend(bool simulates_costs);

  MachineModel model_;
  std::vector<std::unique_ptr<Processor>> processors_;
  int active_processors_ = 1;
  std::vector<std::uint64_t> idle_miss_counts_;  // Indexed by VmContextId.
  bool backend_bound_ = false;
  bool simulates_costs_ = true;
};

}  // namespace lrpc

#endif  // SRC_SIM_MACHINE_H_
