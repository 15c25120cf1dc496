// ClientBinding: the client-domain side of one binding.
//
// After a successful import the client holds the Binding Object (presented
// to the kernel on every call) and, for each procedure's A-stack group, a
// free list of the A-stacks allocated at bind time, managed as a LIFO
// guarded by its own lock (Sections 3.1-3.2) — or, on the lock-free
// discipline, by no lock at all (src/shm/par_free_list.h).

#ifndef SRC_LRPC_CLIENT_BINDING_H_
#define SRC_LRPC_CLIENT_BINDING_H_

#include <memory>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/ids.h"
#include "src/kern/binding_table.h"
#include "src/lrpc/circuit_breaker.h"
#include "src/lrpc/interface.h"
#include "src/shm/astack.h"
#include "src/shm/par_free_list.h"

namespace lrpc {

// What to do when a call finds the procedure's A-stack free list empty
// (Section 5.2: "the client can either wait for one to become available...
// or allocate more").
enum class AStackExhaustionPolicy : std::uint8_t {
  kFail,          // Return kAStacksExhausted to the caller.
  kAllocateMore,  // Grow with a secondary (slower-to-validate) region.
};

class LRPC_CACHELINE_ALIGNED ClientBinding {
 public:
  ClientBinding(DomainId client, BindingObject object, const Interface* iface,
                BindingRecord* record)
      : object_(object), iface_(iface), record_(record), client_(client) {}

  DomainId client() const { return client_; }
  const BindingObject& object() const { return object_; }
  const Interface* interface_spec() const { return iface_; }
  BindingRecord* record() { return record_; }

  AStackExhaustionPolicy exhaustion_policy() const { return policy_; }
  void set_exhaustion_policy(AStackExhaustionPolicy p) { policy_ = p; }

  // One A-stack free list per A-stack sharing group, built by Import.
  void AddFreeList(std::unique_ptr<ParFreeList> list) {
    free_lists_.push_back(std::move(list));
  }
  ParFreeList& free_list(int group) {
    return *free_lists_[static_cast<std::size_t>(group)];
  }
  int free_list_count() const { return static_cast<int>(free_lists_.size()); }

  // Total A-stacks ever allocated to this binding (primary + secondary):
  // every one is registered with its group's free list.
  int allocated_astacks() const {
    int total = 0;
    for (const auto& list : free_lists_) {
      total += list->registered();
    }
    return total;
  }

  // The per-binding circuit breaker (docs/supervision.md), created lazily
  // by the first supervised call so unsupervised bindings pay nothing.
  // State lives here, not in the supervisor, so it is genuinely per-binding
  // and survives supervisor reconfiguration.
  CircuitBreaker* breaker() { return breaker_.get(); }
  CircuitBreaker& EnsureBreaker(const BreakerPolicy& policy) {
    if (breaker_ == nullptr) {
      breaker_ = std::make_unique<CircuitBreaker>(policy);
    }
    return *breaker_;
  }

 private:
  // Hot-first member order (docs/fast_path.md layout audit): every call
  // reads the Binding Object, the interface, the binding record and the
  // free-list vector, so those four lead the class and share its first
  // (aligned) cache line. Bind-time bookkeeping and the lazily-built breaker
  // are per-call-cold and follow.
  BindingObject object_;
  const Interface* iface_;
  BindingRecord* record_;
  std::vector<std::unique_ptr<ParFreeList>> free_lists_;
  // --- end of the per-call hot group ---
  DomainId client_;
  AStackExhaustionPolicy policy_ = AStackExhaustionPolicy::kAllocateMore;
  std::unique_ptr<CircuitBreaker> breaker_;

  // The class is not standard-layout (vector members), so the audit asserts
  // sizes rather than offsets: the hot group starts at offset 0 (first
  // member, no bases, no vtable) and must fit the first line.
  static_assert(sizeof(BindingObject) + 2 * sizeof(void*) +
                        sizeof(std::vector<std::unique_ptr<ParFreeList>>) <=
                    kCacheLineSize,
                "client-binding layout audit: hot group exceeds one line");
};

static_assert(alignof(ClientBinding) == kCacheLineSize,
              "client-binding layout audit: class must be line-aligned");

}  // namespace lrpc

#endif  // SRC_LRPC_CLIENT_BINDING_H_
