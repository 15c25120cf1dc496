// ParWorld: a ready-made multi-domain world for the real-thread engine
// (docs/concurrency.md) — the parallel counterpart of Testbed.
//
// N workers spread over M client domains call one server domain exporting
// the paper's four measurement procedures (Table 4). Worker w drives
// processor w with its own kernel thread in client domain w % M; with M == 1
// every worker contends on a single binding's free lists, the §3.4 pattern
// bench_mt_throughput measures. The handlers are Testbed's
// (AddPaperProcedures), which count per processor because with the
// parallel backend several workers execute them concurrently.
//
// The world also builds with the deterministic-simulator backend
// (workers == 1): the equivalence property test runs the same call sequence
// on both backends and expects identical results, statuses and clocks.

#ifndef SRC_PAR_PAR_WORLD_H_
#define SRC_PAR_PAR_WORLD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/lrpc/runtime.h"
#include "src/lrpc/testbed.h"
#include "src/par/parallel_machine.h"

namespace lrpc {

inline constexpr std::size_t kParBigSize = kBigSize;

struct ParWorldOptions {
  MachineModel model = MachineModel::CVaxFirefly();
  int workers = 2;
  int domains = 1;  // Client domains; worker w binds through domain w % M.
  // Must be 0: no processor idles for the Section 3.4 exchange on a host
  // backend, and the simulator world has one processor per worker. Kept
  // only because perfbench/ sets it.
  int parked = 0;
  bool lock_free = true;
  // Free A-stacks per group per binding: the concurrency the binding admits
  // before calls fail with kAStacksExhausted (no growth in parallel mode).
  int astacks_per_group = 8;
  RuntimeBackend backend = RuntimeBackend::kParallelHost;
};

class ParWorld {
 public:
  explicit ParWorld(ParWorldOptions options);

  Machine& machine() { return *machine_; }
  Kernel& kernel() { return *kernel_; }
  LrpcRuntime& runtime() { return *runtime_; }
  // Null when the world was built on the deterministic backend.
  ParallelMachine* par() { return par_.get(); }
  const ParWorldOptions& options() const { return options_; }

  DomainId server_domain() const { return server_; }
  DomainId client_domain(int i) const {
    return clients_[static_cast<std::size_t>(i)];
  }
  ThreadId worker_thread(int w) const {
    return threads_[static_cast<std::size_t>(w)];
  }
  ClientBinding& worker_binding(int w) {
    return *bindings_[static_cast<std::size_t>(w) %
                      static_cast<std::size_t>(options_.domains)];
  }

  int null_proc() const { return null_proc_; }
  int add_proc() const { return add_proc_; }
  int bigin_proc() const { return bigin_proc_; }
  int biginout_proc() const { return biginout_proc_; }

  // --- Per-worker callers (worker w's processor, thread and binding),
  // through LrpcRuntime::Call on either backend. ---
  Status CallNull(int w, CallStats* stats = nullptr);
  Status CallAdd(int w, std::int32_t a, std::int32_t b, std::int32_t* sum,
                 CallStats* stats = nullptr);
  Status CallBigIn(int w, const std::uint8_t (&data)[kParBigSize],
                   CallStats* stats = nullptr);
  Status CallBigInOut(int w, const std::uint8_t (&in)[kParBigSize],
                      std::uint8_t (&out)[kParBigSize],
                      CallStats* stats = nullptr);

  // Sum of every byte the server observed across all BigIn calls (stress
  // tests balance this against what the clients sent).
  std::uint64_t server_bytes_seen() const { return counters_.bigin_bytes(); }
  // Completed server executions, counted inside the handlers.
  std::uint64_t server_calls_seen() const { return counters_.calls(); }

 private:
  Status Dispatch(int w, ClientBinding& binding, int procedure,
                  std::span<const CallArg> args, std::span<const CallRet> rets,
                  CallStats* stats);

  ParWorldOptions options_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<LrpcRuntime> runtime_;
  std::unique_ptr<ParallelMachine> par_;
  DomainId server_ = kNoDomain;
  std::vector<DomainId> clients_;
  std::vector<ThreadId> threads_;    // One per worker.
  std::vector<ClientBinding*> bindings_;  // One per client domain.
  Interface* iface_ = nullptr;
  int null_proc_ = -1;
  int add_proc_ = -1;
  int bigin_proc_ = -1;
  int biginout_proc_ = -1;
  PaperCounters counters_;
};

}  // namespace lrpc

#endif  // SRC_PAR_PAR_WORLD_H_
