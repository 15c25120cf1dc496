#include "src/par/parallel_machine.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "src/common/check.h"

namespace lrpc {

ParallelMachine::ParallelMachine(LrpcRuntime& runtime, ParallelOptions options)
    : runtime_(runtime), options_(options) {
  LRPC_CHECK(runtime_.backend() == RuntimeBackend::kParallelHost);
  LRPC_CHECK(options_.workers >= 1);
  LRPC_CHECK(runtime_.machine().processor_count() >= options_.workers);
}

void ParallelMachine::AdoptWorld() {
  LRPC_CHECK(!adopted_);
  adopted_ = true;

  runtime_.machine().EnableParallelIdle();
  runtime_.kernel().bindings().set_lock_free(options_.lock_free);

  for (const auto& binding : runtime_.bindings()) {
    if (binding->object().remote) {
      continue;  // Remote calls take the network path, never the free lists.
    }
    // Growth (Section 5.2) mutates the binding's region list, which the
    // concurrent call leg reads without a lock; parallel worlds provision a
    // fixed A-stack set up front instead.
    binding->set_exhaustion_policy(AStackExhaustionPolicy::kFail);
    for (int group = 0; group < binding->queue_count(); ++group) {
      AStackQueue& queue = binding->queue(group);
      auto list = std::make_unique<ParFreeList>(
          binding->interface_spec()->name() + ".binding" +
              std::to_string(binding->object().id) + ".group" +
              std::to_string(group),
          options_.lock_free, static_cast<int>(queue.entries().size()));
      // The simulated queue keeps its full entry set (post-run conservation
      // checks still see it); the par list is the live overlay. Registering
      // in the queue's push order preserves the LIFO discipline.
      for (const AStackRef& ref : queue.entries()) {
        list->Register(ref);
      }
      binding->set_par_queue(group, list.get());
      free_lists_.push_back(std::move(list));
    }
  }
}

void ParallelMachine::ParkIdle(int cpu_index, DomainId domain) {
  // After AdoptWorld so ParkIdleProcessor publishes to the claim registry.
  LRPC_CHECK(adopted_);
  runtime_.kernel().ParkIdleProcessor(runtime_.machine().processor(cpu_index),
                                      domain);
}

Status ParallelMachine::Call(int w, ThreadId thread, ClientBinding& binding,
                             int procedure, std::span<const CallArg> args,
                             std::span<const CallRet> rets, CallStats& stats) {
  LRPC_CHECK(adopted_);
  return runtime_.Call(runtime_.machine().processor(w), thread, binding,
                       procedure, args, rets, &stats);
}

ParallelMachine::RunReport ParallelMachine::RunWorkers(
    std::chrono::milliseconds budget, const std::function<Status(int)>& body) {
  LRPC_CHECK(adopted_);
  const int n = options_.workers;
  std::vector<std::uint64_t> calls(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> failures(static_cast<std::size_t>(n), 0);
  std::atomic<bool> stop{false};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      const auto slot = static_cast<std::size_t>(w);
      while (!stop.load(std::memory_order_relaxed)) {  // LRPC_MO(stop-flag)
        const Status status = body(w);
        ++calls[slot];
        if (!status.ok()) {
          ++failures[slot];
        }
      }
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
  for (const auto& list : free_lists_) {
    std::vector<AStackRef> free_now = list->Snapshot();
    std::vector<AStackRef> all = list->nodes();
    if (free_now.size() != all.size()) {
      return Status(ErrorCode::kInvalidArgument,
                    "A-stack conservation: free set after run is smaller or "
                    "larger than the registered set");
    }
    const auto by_identity = [](const AStackRef& a, const AStackRef& b) {
      return a.region != b.region ? a.region < b.region : a.index < b.index;
    };
    std::sort(free_now.begin(), free_now.end(), by_identity);
    std::sort(all.begin(), all.end(), by_identity);
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!(free_now[i] == all[i])) {
        return Status(ErrorCode::kInvalidArgument,
                      "A-stack conservation: an A-stack was lost or "
                      "duplicated (free set is not the registered set)");
      }
    }
  }
  return Status::Ok();
}

std::uint64_t ParallelMachine::total_cas_retries() const {
  std::uint64_t total = 0;
  for (const auto& list : free_lists_) {
    total += list->cas_retries();
  }
  return total;
}

}  // namespace lrpc
