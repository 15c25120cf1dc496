#include "src/sim/machine.h"

#include <algorithm>

#include "src/common/check.h"

namespace lrpc {

Machine::Machine(MachineModel model, int processor_count)
    : model_(std::move(model)) {
  LRPC_CHECK(processor_count > 0);
  processors_.reserve(static_cast<std::size_t>(processor_count));
  for (int i = 0; i < processor_count; ++i) {
    processors_.push_back(std::make_unique<Processor>(this, i, model_.tlb_entries));
  }
}

void Machine::BindBackend(bool simulates_costs) {
  LRPC_CHECK(!backend_bound_ || simulates_costs_ == simulates_costs);
  backend_bound_ = true;
  simulates_costs_ = simulates_costs;
}

void Machine::MarkIdle(Processor& cpu) { cpu.set_idle(true); }

void Machine::MarkBusy(Processor& cpu) { cpu.set_idle(false); }

Processor* Machine::FindIdleInContext(VmContextId context) {
  for (auto& cpu : processors_) {
    if (cpu->idle() && cpu->loaded_context() == context) {
      return cpu.get();
    }
  }
  return nullptr;
}

void Machine::RecordIdleMiss(VmContextId context) {
  if (context < 0) {
    return;
  }
  const auto index = static_cast<std::size_t>(context);
  if (index >= idle_miss_counts_.size()) {
    idle_miss_counts_.resize(index + 1, 0);
  }
  ++idle_miss_counts_[index];
}

std::uint64_t Machine::idle_misses(VmContextId context) const {
  if (context < 0 ||
      static_cast<std::size_t>(context) >= idle_miss_counts_.size()) {
    return 0;
  }
  return idle_miss_counts_[static_cast<std::size_t>(context)];
}

VmContextId Machine::BusiestMissedContext() const {
  VmContextId best = kNoVmContext;
  std::uint64_t best_count = 0;
  for (std::size_t i = 0; i < idle_miss_counts_.size(); ++i) {
    if (idle_miss_counts_[i] > best_count) {
      best_count = idle_miss_counts_[i];
      best = static_cast<VmContextId>(i);
    }
  }
  return best;
}

void Machine::ExchangeContexts(Processor& caller, Processor& idler) {
  LRPC_CHECK(idler.idle());
  // The exchange is a short critical handshake between the two processors;
  // both must have reached it, so the thread continues at the later of the
  // two clocks plus the exchange cost.
  idler.AdvanceTo(caller.clock());
  caller.AdvanceTo(idler.clock());
  caller.Charge(CostCategory::kProcessorExchange, model_.processor_exchange);

  // Swap the loaded contexts. The TLB contents travel with the context in
  // this model: the idler's TLB is warm for the target domain and becomes
  // the caller's, which is exactly the point of domain caching. We model
  // the swap by exchanging context ids and TLB states without invalidation.
  const VmContextId caller_ctx = caller.loaded_context();
  const VmContextId idler_ctx = idler.loaded_context();
  std::swap(caller.tlb(), idler.tlb());
  // LoadContext would invalidate; assign directly via LoadContext semantics.
  // (Both processors end with the other's context loaded and warm.)
  caller.LoadContextNoInvalidate(idler_ctx);
  idler.LoadContextNoInvalidate(caller_ctx);
  // The idler keeps idling, now in the caller's old context (likely useful
  // for the return exchange on calls that return quickly).
}

Processor& Machine::NextProcessorToRun() {
  const int n = std::max(1, std::min(active_processors_, processor_count()));
  int best = 0;
  for (int i = 1; i < n; ++i) {
    if (processors_[static_cast<std::size_t>(i)]->clock() <
        processors_[static_cast<std::size_t>(best)]->clock()) {
      best = i;
    }
  }
  return *processors_[static_cast<std::size_t>(best)];
}

CostLedger Machine::AggregateLedger() const {
  CostLedger total;
  for (const auto& cpu : processors_) {
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(CostCategory::kCategoryCount); ++c) {
      total.Charge(static_cast<CostCategory>(c),
                   cpu->ledger().total(static_cast<CostCategory>(c)));
    }
  }
  return total;
}

void Machine::Reset() {
  for (auto& cpu : processors_) {
    cpu->set_clock(0);
    cpu->set_idle(false);
    cpu->ledger().Reset();
    cpu->tlb().ResetStats();
    cpu->tlb().Invalidate();
    cpu->LoadContextNoInvalidate(kNoVmContext);
  }
  idle_miss_counts_.clear();
}

}  // namespace lrpc
