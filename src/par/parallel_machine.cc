#include "src/par/parallel_machine.h"

#include <atomic>
#include <string>
#include <thread>

#include "src/common/check.h"

namespace lrpc {

ParallelMachine::ParallelMachine(LrpcRuntime& runtime, ParallelOptions options)
    : runtime_(runtime), options_(options) {
  LRPC_CHECK(runtime_.backend() == RuntimeBackend::kParallelHost);
  LRPC_CHECK(options_.workers >= 1);
  LRPC_CHECK(runtime_.machine().processor_count() >= options_.workers);
  // Import reads the discipline when it builds a binding's free lists, so
  // it cannot change once one exists.
  LRPC_CHECK(runtime_.bindings().empty());
  runtime_.kernel().bindings().set_lock_free(options_.lock_free);
}

ParallelMachine::RunReport ParallelMachine::RunWorkers(
    std::chrono::milliseconds budget, const std::function<Status(int)>& body) {
  const int n = options_.workers;
  std::vector<std::uint64_t> calls(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> failures(static_cast<std::size_t>(n), 0);
  std::atomic<bool> stop{false};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      // Tallied in locals and stored once: adjacent vector elements share a
      // line, and a per-call store there would be one more shared write.
      std::uint64_t done = 0;
      std::uint64_t failed = 0;
      while (!stop.load(std::memory_order_relaxed)) {  // LRPC_MO(stop-flag)
        const Status status = body(w);
        ++done;
        if (!status.ok()) {
          ++failed;
        }
      }
      calls[static_cast<std::size_t>(w)] = done;
      failures[static_cast<std::size_t>(w)] = failed;
    });
  }
  std::this_thread::sleep_for(budget);
  stop.store(true, std::memory_order_relaxed);  // LRPC_MO(stop-flag)
  for (std::thread& t : threads) {
    t.join();
  }
  const auto end = std::chrono::steady_clock::now();

  RunReport report;
  report.seconds = std::chrono::duration<double>(end - start).count();
  report.calls_per_worker = calls;
  for (int w = 0; w < n; ++w) {
    report.calls += calls[static_cast<std::size_t>(w)];
    report.failures += failures[static_cast<std::size_t>(w)];
  }
  report.calls_per_second =
      report.seconds > 0.0 ? static_cast<double>(report.calls) / report.seconds
                           : 0.0;
  return report;
}

Status ParallelMachine::AuditConservation() const {
  std::vector<std::string> found;
  runtime_.AuditAStacks(/*quiescent=*/true, found);
  return found.empty()
             ? Status::Ok()
             : Status(ErrorCode::kInvalidArgument,
                      "A-stack conservation: a free list lost, duplicated or "
                      "corrupted an A-stack (LrpcRuntime::AuditAStacks)");
}

std::vector<ParFreeList*> ParallelMachine::free_lists() const {
  std::vector<ParFreeList*> lists;
  for (const auto& binding : runtime_.bindings()) {
    for (int group = 0; group < binding->free_list_count(); ++group) {
      lists.push_back(&binding->free_list(group));
    }
  }
  return lists;
}

std::uint64_t ParallelMachine::total_cas_retries() const {
  std::uint64_t total = 0;
  for (const ParFreeList* list : free_lists()) {
    total += list->cas_retries();
  }
  return total;
}

}  // namespace lrpc
