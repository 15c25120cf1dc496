#include "src/sim/processor.h"

#include "src/sim/machine.h"

namespace lrpc {

void Processor::Charge(CostCategory category, SimDuration amount) {
  if (machine_ == nullptr || machine_->simulates_costs()) {
    ledger_.Charge(category, amount);
  }
  const double factor = machine_ != nullptr ? machine_->ContentionFactor() : 1.0;
  clock_ += static_cast<SimDuration>(static_cast<double>(amount) * factor + 0.5);
}

void Processor::LoadContext(VmContextId context) {
  if (context == loaded_context_) {
    return;
  }
  loaded_context_ = context;
  // No process tag in the TLB: a context switch invalidates everything.
  if (machine_ == nullptr || machine_->simulates_costs()) {
    tlb_.Invalidate();
  }
}

}  // namespace lrpc
