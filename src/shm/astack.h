// A-stacks (argument stacks) and their linkage records.
//
// At bind time the kernel allocates, for each procedure descriptor (or each
// group of procedures sharing similarly-sized A-stacks), a number of
// argument stacks mapped read-write into both the client and server domains
// (Section 3.1). Arguments and results travel on the A-stack; the kernel
// keeps one linkage record per A-stack — accessible only to the kernel — in
// which the caller's return address and stack pointer are recorded at call
// time. A-stacks are laid out contiguously so that
//   (a) call-time validation is a simple range check, and
//   (b) the linkage record is quickly located from any A-stack address.
// Later (non-contiguous) allocations are supported but validate more slowly
// (Section 5.2).

#ifndef SRC_SHM_ASTACK_H_
#define SRC_SHM_ASTACK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/shm/segment.h"
#include "src/sim/time.h"

namespace lrpc {

// Capacity of the linkage record's register window: the inline
// ("register-style", Section 2.2) call path marshals small all-fixed-size
// argument lists straight into the linkage record instead of the A-stack.
// 64 bytes covers the eligibility limit of 32 in-bytes plus 32 out-bytes at
// 8-byte-aligned slot offsets (docs/fast_path.md).
inline constexpr std::size_t kLinkageRegsSize = 64;

// Kernel-private call linkage. One per A-stack.
//
// Layout audit (docs/fast_path.md): adjacent records in a region are popped
// and pushed by different worker threads, so each record owns its cache
// lines outright. Line 0 packs every field the general call path touches;
// line 1 is the register window, touched only by the inline path (which in
// exchange never touches the A-stack segment at all).
struct LRPC_CACHELINE_ALIGNED LinkageRecord {
  // --- Line 0: claimed and released on every call. ---
  bool valid = true;         // Invalidated when a party domain terminates.
  bool in_use = false;       // An outstanding call owns this A-stack/linkage.
  std::uint32_t procedure = 0;
  // The calling thread's claim order, stamped when the linkage is pushed;
  // the invariant checker uses it to verify linkage-stack LIFO discipline.
  std::uint64_t seq = 0;
  ThreadId caller_thread = kNoThread;
  DomainId caller_domain = kNoDomain;
  BindingId binding = kNoBinding;
  std::uint64_t return_address = 0;      // Simulated client PC.
  std::uint64_t saved_stack_pointer = 0; // Simulated client SP.
  // --- Line 1: the inline path's register window. ---
  LRPC_CACHELINE_ALIGNED std::uint8_t regs[kLinkageRegsSize] = {};
};

static_assert(sizeof(LinkageRecord) == 2 * kCacheLineSize,
              "linkage record layout audit: two lines, hot fields + regs");
static_assert(offsetof(LinkageRecord, valid) == 0);
static_assert(offsetof(LinkageRecord, procedure) == 4);
static_assert(offsetof(LinkageRecord, seq) == 8);
static_assert(offsetof(LinkageRecord, caller_thread) == 16);
static_assert(offsetof(LinkageRecord, caller_domain) == 20);
static_assert(offsetof(LinkageRecord, binding) == 24);
static_assert(offsetof(LinkageRecord, return_address) == 32);
static_assert(offsetof(LinkageRecord, saved_stack_pointer) == 40,
              "every general-path field fits the first cache line");
static_assert(offsetof(LinkageRecord, regs) == kCacheLineSize,
              "the register window starts on its own line");

// Per-A-stack mutable call state that is NOT part of the linkage claim
// protocol: the lazy E-stack association and the last-use timestamp. Both
// are written on every call by whichever thread owns the A-stack, so
// adjacent indices must not share a line (they did when these lived in two
// parallel vectors); packing them into one aligned slot also means a repeat
// call touches one line here instead of two.
struct LRPC_CACHELINE_ALIGNED AStackSlotState {
  int estack = -1;
  SimTime last_used = 0;
};

static_assert(sizeof(AStackSlotState) == kCacheLineSize,
              "one slot-state line per A-stack");

// One contiguous run of equally-sized A-stacks shared pair-wise between a
// client and a server domain, with their co-located linkage records.
class AStackRegion {
 public:
  AStackRegion(DomainId client, DomainId server, std::size_t astack_size,
               int count, bool secondary);

  DomainId client() const { return client_; }
  DomainId server() const { return server_; }
  std::size_t astack_size() const { return astack_size_; }
  int count() const { return count_; }
  // True when allocated after bind time, outside the primary contiguous
  // range: validation takes the slower path (Section 5.2).
  bool secondary() const { return secondary_; }

  SharedSegment& segment() { return segment_; }
  const SharedSegment& segment() const { return segment_; }

  std::size_t OffsetOf(int index) const {
    return static_cast<std::size_t>(index) * astack_size_;
  }

  // The fast call-time check: is `offset` the base of an A-stack in this
  // region? Returns the A-stack index.
  Result<int> ValidateOffset(std::size_t offset) const;

  LinkageRecord& linkage(int index) { return linkages_[static_cast<std::size_t>(index)]; }
  const LinkageRecord& linkage(int index) const {
    return linkages_[static_cast<std::size_t>(index)];
  }

  // Lazy A-stack/E-stack association (Section 3.2): the id of the E-stack
  // currently associated with A-stack `index`, or -1.
  int estack_of(int index) const {
    return slot_state_[static_cast<std::size_t>(index)].estack;
  }
  void set_estack(int index, int estack) {
    slot_state_[static_cast<std::size_t>(index)].estack = estack;
  }

  // Timestamp of the most recent call on each A-stack; the kernel reclaims
  // E-stacks from A-stacks not recently used.
  SimTime last_used(int index) const {
    return slot_state_[static_cast<std::size_t>(index)].last_used;
  }
  void set_last_used(int index, SimTime t) {
    slot_state_[static_cast<std::size_t>(index)].last_used = t;
  }

  // Invalidate every linkage in this region (domain termination, §5.3).
  void InvalidateAllLinkages();

 private:
  DomainId client_;
  DomainId server_;
  std::size_t astack_size_;
  int count_;
  bool secondary_;
  SharedSegment segment_;
  std::vector<LinkageRecord> linkages_;
  std::vector<AStackSlotState> slot_state_;
};

// A reference to one A-stack: the region plus the index within it.
struct AStackRef {
  AStackRegion* region = nullptr;
  int index = -1;

  bool valid() const { return region != nullptr && index >= 0; }
  std::size_t offset() const { return region->OffsetOf(index); }
  LinkageRecord& linkage() const { return region->linkage(index); }

  friend bool operator==(const AStackRef& a, const AStackRef& b) {
    return a.region == b.region && a.index == b.index;
  }
};

}  // namespace lrpc

#endif  // SRC_SHM_ASTACK_H_
