// ParallelMachine: the real-thread execution engine (docs/concurrency.md).
//
// Maps each simulated Processor onto a dedicated std::thread and re-routes
// the three shared structures on the LRPC critical path through their
// host-concurrent re-implementations:
//
//   A-stack free lists   ParFreeList (Treiber stack, or the single-lock
//                        baseline) installed per binding per group
//   binding validation   ShardedBindingTable, a seqlock-per-entry mirror of
//                        the kernel's table
//   idle processors      IdleProcessorRegistry, an atomic slot per cpu that
//                        makes the Section 3.4 exchange a lock-free claim
//
// The engine reuses the existing kernel call path: AdoptWorld() flips an
// already-built world (domains, bindings, A-stacks) over to the concurrent
// structures, and workers drive LrpcRuntime::Call on their own Processor.
// The deterministic simulator stays the default backend and is untouched by
// any of this.

#ifndef SRC_PAR_PARALLEL_MACHINE_H_
#define SRC_PAR_PARALLEL_MACHINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/kern/sharded_binding_table.h"
#include "src/lrpc/runtime.h"
#include "src/shm/par_free_list.h"

namespace lrpc {

struct ParallelOptions {
  // Worker threads; worker w drives machine().processor(w). The machine
  // must have at least this many processors (extras can be parked idle).
  int workers = 2;
  // false selects the single-lock baselines (free lists and binding table),
  // the contention reference Figure 3 compares against.
  bool lock_free = true;
  int binding_shards = 16;
  // Capacity of the sharded binding mirror. The default suits the unit
  // tests and benches; fleet-scale worlds (10k+ bindings, src/scale) must
  // raise it — ids at or beyond the cap fail to mirror in AdoptWorld.
  int max_bindings = 256;
};

class ParallelMachine {
 public:
  ParallelMachine(LrpcRuntime& runtime, ParallelOptions options);

  // Flips the runtime's already-built world over to the concurrent
  // structures: enables the lock-free idle registry, mirrors the binding
  // table into the sharded validator, and installs one ParFreeList per
  // binding per A-stack group (seeded with the queue's current free set).
  // Single-threaded; call once, after every Import and before any worker
  // runs. Bindings are pinned to kFail exhaustion (growth would mutate the
  // region list under concurrent readers).
  void AdoptWorld();

  // Parks `cpu_index` idling in `domain`'s context and publishes it to the
  // claim registry (the Section 3.4 idle-processor supply).
  void ParkIdle(int cpu_index, DomainId domain);

  // One LRPC on worker `w`'s processor. Valid on any thread, but each
  // worker index must be driven by at most one host thread at a time.
  Status Call(int w, ThreadId thread, ClientBinding& binding, int procedure,
              std::span<const CallArg> args, std::span<const CallRet> rets,
              CallStats& stats);

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

  // Post-run conservation audit (no concurrent operations may be in
  // flight): every registered A-stack is free exactly once, none lost,
  // none duplicated.
  Status AuditConservation() const;

  const ParallelOptions& options() const { return options_; }
  LrpcRuntime& runtime() { return runtime_; }
  ShardedBindingTable& bindings() { return bindings_; }
  const std::vector<std::unique_ptr<ParFreeList>>& free_lists() const {
    return free_lists_;
  }
  // Sum of CAS retries across every free list (contention observability).
  std::uint64_t total_cas_retries() const;

 private:
  LrpcRuntime& runtime_;
  ParallelOptions options_;
  ShardedBindingTable bindings_;
  std::vector<std::unique_ptr<ParFreeList>> free_lists_;
  bool adopted_ = false;
};

}  // namespace lrpc

#endif  // SRC_PAR_PARALLEL_MACHINE_H_
