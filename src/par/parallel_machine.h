// ParallelMachine: the real-thread execution engine (docs/concurrency.md).
//
// Maps each simulated Processor onto a dedicated std::thread. Built on a
// kParallelHost runtime before the world's first import, it fixes the lock
// discipline (Treiber stack, or the single-lock baseline) of the kernel's
// binding table and of the ParFreeList Import builds per binding per group.
// Binding validation needs no re-routing: the kernel's own table is a
// seqlock table on every backend (src/kern/binding_table.h). No processor
// idles for the Section 3.4 exchange here; only the simulator models it.
//
// Workers drive LrpcRuntime::Call on their own Processor; there is no
// second call path. The deterministic simulator stays the default backend
// and is untouched by any of this.

#ifndef SRC_PAR_PARALLEL_MACHINE_H_
#define SRC_PAR_PARALLEL_MACHINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/lrpc/runtime.h"
#include "src/shm/par_free_list.h"

namespace lrpc {

struct ParallelOptions {
  // Worker threads; worker w drives machine().processor(w). The machine
  // must have at least this many processors.
  int workers = 2;
  // false selects the single-lock baselines (free lists and binding table),
  // the contention reference Figure 3 compares against.
  bool lock_free = true;
};

class ParallelMachine {
 public:
  // Fixes the lock discipline of the kernel's binding table and of every
  // free list Import will build. Single-threaded, before the world's first
  // import.
  ParallelMachine(LrpcRuntime& runtime, ParallelOptions options);

  struct RunReport {
    double seconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t failures = 0;
    double calls_per_second = 0.0;
    std::vector<std::uint64_t> calls_per_worker;
  };

  // Spawns options().workers host threads, each invoking `body(w)` in a
  // loop until the wall budget elapses, and joins them. `body` returns the
  // status of one call; non-ok counts as a failure. The engine's only
  // scheduling is the host's: there is no simulated interleaving here.
  RunReport RunWorkers(std::chrono::milliseconds budget,
                       const std::function<Status(int)>& body);

  // Post-run conservation audit (no call may be outstanding):
  // LrpcRuntime::AuditAStacks over every binding, where an A-stack still
  // claimed counts as lost.
  Status AuditConservation() const;

  // Every binding's free lists, in import and group order.
  std::vector<ParFreeList*> free_lists() const;
  // Sum of CAS retries across every free list (contention observability).
  std::uint64_t total_cas_retries() const;

 private:
  LrpcRuntime& runtime_;
  ParallelOptions options_;
};

}  // namespace lrpc

#endif  // SRC_PAR_PARALLEL_MACHINE_H_
