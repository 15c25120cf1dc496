// A ready-made world for tests, benchmarks and examples: a machine, a
// kernel, the LRPC runtime, a client and a server domain, and the paper's
// four measurement procedures (Table 4):
//
//   Null      no arguments, no results, does nothing
//   Add       two 4-byte arguments, one 4-byte result
//   BigIn     one 200-byte argument
//   BigInOut  one 200-byte argument and one 200-byte result

#ifndef SRC_LRPC_TESTBED_H_
#define SRC_LRPC_TESTBED_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/lrpc/runtime.h"
#include "src/lrpc/server_frame.h"

namespace lrpc {

inline constexpr std::size_t kBigSize = 200;

// What the paper procedures' handlers count. Atomic because on the parallel
// backend several workers run the handlers at once.
struct PaperCounters {
  // Completed handler executions (a handler that rejects its arguments does
  // not count).
  std::atomic<std::uint64_t> calls{0};
  // Sum of every byte BigIn observed, accumulated across calls.
  std::atomic<std::uint64_t> bigin_bytes{0};
};

struct TestbedOptions {
  MachineModel model = MachineModel::CVaxFirefly();
  int processors = 1;
  bool domain_caching = true;
  // Park processor 1 idling in the server's context (the LRPC/MP setup).
  bool park_idle_in_server = false;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});

  Machine& machine() { return *machine_; }
  Kernel& kernel() { return *kernel_; }
  LrpcRuntime& runtime() { return *runtime_; }
  Processor& cpu(int i = 0) { return machine_->processor(i); }

  DomainId client_domain() const { return client_; }
  DomainId server_domain() const { return server_; }
  ThreadId client_thread() const { return thread_; }
  Interface* interface_spec() { return iface_; }
  ClientBinding& binding() { return *binding_; }

  int null_proc() const { return null_proc_; }
  int add_proc() const { return add_proc_; }
  int bigin_proc() const { return bigin_proc_; }
  int biginout_proc() const { return biginout_proc_; }

  // --- Convenience callers (on processor 0, the client thread). ---
  Status CallNull(CallStats* stats = nullptr);
  Status CallAdd(std::int32_t a, std::int32_t b, std::int32_t* sum,
                 CallStats* stats = nullptr);
  Status CallBigIn(const std::uint8_t (&data)[kBigSize],
                   CallStats* stats = nullptr);
  Status CallBigInOut(const std::uint8_t (&in)[kBigSize],
                      std::uint8_t (&out)[kBigSize], CallStats* stats = nullptr);

  // Sum of the bytes the server observed across its BigIn calls
  // (functional verification that data really crossed domains).
  std::uint64_t server_bytes_seen() const {
    // LRPC_MO(stat-counter)
    return counters_.bigin_bytes.load(std::memory_order_relaxed);
  }

 private:
  TestbedOptions options_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<LrpcRuntime> runtime_;
  DomainId client_ = kNoDomain;
  DomainId server_ = kNoDomain;
  ThreadId thread_ = kNoThread;
  Interface* iface_ = nullptr;
  ClientBinding* binding_ = nullptr;
  int null_proc_ = -1;
  int add_proc_ = -1;
  int bigin_proc_ = -1;
  int biginout_proc_ = -1;
  PaperCounters counters_;
};

// Adds the four Table 4 procedures to `iface`, with handlers that really
// compute (Add sums, BigInOut echoes bytes reversed) and count into
// `counters`, which must outlive every call. Each procedure admits
// `simultaneous_calls` concurrent calls (the paper's default is five,
// Section 5.2). Returns the indices via the out-params.
void AddPaperProcedures(Interface* iface, int* null_proc, int* add_proc,
                        int* bigin_proc, int* biginout_proc,
                        PaperCounters& counters, int simultaneous_calls = 5);

}  // namespace lrpc

#endif  // SRC_LRPC_TESTBED_H_
