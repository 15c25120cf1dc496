// Interfaces, procedure descriptors (PDs) and procedure descriptor lists
// (PDLs).
//
// A server exports one or more interfaces, each a specific set of
// procedures. The exporter maintains a PDL with one PD per procedure; a PD
// carries the entry address in the server domain, the number of
// simultaneous calls initially permitted, and the size of the procedure's
// A-stack (Section 3.1). The stub generator (src/idl) computes these from
// interface definitions; the builder API here is what generated stubs — and
// hand-written examples — use at run time.

#ifndef SRC_LRPC_INTERFACE_H_
#define SRC_LRPC_INTERFACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"

namespace lrpc {

class ServerFrame;

// The server-side body of a procedure: reads arguments from (and writes
// results to) the A-stack through the frame. The kernel upcalls into the
// entry stub which branches here.
using ServerProc = std::function<Status(ServerFrame&)>;

enum class ParamDirection : std::uint8_t {
  kIn,
  kOut,
  kInOut,
};

// Per-parameter marshaling attributes (Section 3.5).
struct ParamFlags {
  // The server processes the value without interpretation (e.g. the byte
  // array of a file Write): no immutability copy is needed, the server
  // reads it straight off the A-stack. Identified to the stub generator by
  // the interface writer.
  bool no_verify = false;
  // Immutability matters: the server stub copies the value off the A-stack
  // into server-private memory before use, so the client cannot change it
  // mid-call (copy "E" of Table 3).
  bool immutable = false;
  // Type-sensitive value (e.g. a CARDINAL): the conformance check is folded
  // into the server stub's copy. Implies an E copy.
  bool type_checked = false;
  // Passed by reference: the client stub copies the referent onto the
  // A-stack and the server stub re-creates a reference on its E-stack
  // (never trusting a client-supplied address).
  bool by_ref = false;
};

struct ParamDesc {
  std::string name;
  ParamDirection direction = ParamDirection::kIn;
  std::size_t size = 0;        // Fixed size in bytes; 0 for variable-sized.
  std::size_t max_size = 0;    // For variable-sized params: the cap.
  ParamFlags flags;
  // Conformance predicate for type-checked parameters (e.g. CARDINAL's
  // non-negativity); folded into the server stub's copy (Section 3.5).
  std::function<bool(const void* data, std::size_t len)> conformance;

  bool fixed_size() const { return size > 0 || (size == 0 && max_size == 0); }
  std::size_t ASlotSize() const {
    if (size > 0) {
      return size;
    }
    // Variable-sized: length word plus the cap; at least room for an
    // out-of-band descriptor (marker + length + segment index = 16 bytes).
    return sizeof(std::uint32_t) + (max_size > 12 ? max_size : 12);
  }
  bool is_in() const { return direction != ParamDirection::kOut; }
  bool is_out() const { return direction != ParamDirection::kIn; }
};

struct ProcedureDef {
  std::string name;
  std::vector<ParamDesc> params;
  ServerProc handler;
  // "The number defaults to five, but can be overridden by the interface
  // writer" (Section 5.2).
  int simultaneous_calls = 5;
  // Override for the A-stack size; 0 means "computed from the parameters".
  std::size_t astack_size_override = 0;
};

// Byte caps for the register-style inline path: a procedure whose packed
// arguments and packed results each fit kInlineBytesLimit — the paper's
// "passed in registers" case of Section 2.2 — marshals directly into the
// linkage record instead of the A-stack. The slot span must also fit the
// linkage's register window (kLinkageRegsSize; asserted where both are
// visible).
constexpr std::size_t kInlineBytesLimit = 32;
constexpr std::size_t kInlineSlotSpanLimit = 64;

// A procedure descriptor: what the clerk hands the kernel at bind time.
struct ProcedureDescriptor {
  std::uint64_t entry_address = 0;  // Entry stub address in the server.
  int simultaneous_calls = 5;
  // The procedure's own A-stack bytes (ComputeAStackSize), and the group
  // bucket they round up to. A call to a server process ships exactly
  // `window_bytes` (LrpcRuntime::ProcCallOf).
  std::size_t window_bytes = 0;
  std::size_t astack_size = 0;
  // Which A-stack group this procedure draws from (procedures with
  // similarly-sized A-stacks share; Section 3.1).
  int astack_group = 0;
  const ProcedureDef* def = nullptr;
  // Register-style inline path (docs/fast_path.md), precomputed at Seal so
  // the call path branches on one bool: true iff every parameter is fixed
  // size with plain marshaling (no immutability copy, no conformance check,
  // no by-reference re-creation) and the packed in/out bytes and slot span
  // fit the linkage record's register window.
  bool inline_eligible = false;
  std::uint32_t in_bytes = 0;   // Packed argument bytes (in + inout).
  std::uint32_t out_bytes = 0;  // Packed result bytes (out + inout).
  std::uint32_t slot_span = 0;  // Aligned slot bytes across all params.
};

// When an interface has variable-sized arguments the A-stack defaults to
// the Ethernet packet size (Section 5.2); larger values go out-of-band.
constexpr std::size_t kDefaultVariableAStackSize = 1500;

class Interface {
 public:
  Interface(InterfaceId id, std::string name, DomainId server);

  InterfaceId id() const { return id_; }
  const std::string& name() const { return name_; }
  DomainId server() const { return server_; }

  // Builder: adds a procedure; returns its index in the PDL.
  int AddProcedure(ProcedureDef def);

  // Finalizes the PDL: computes A-stack sizes and sharing groups. Must be
  // called once, before export; AddProcedure afterwards is a usage error.
  void Seal();
  bool sealed() const { return sealed_; }

  int procedure_count() const { return static_cast<int>(pdl_.size()); }
  const ProcedureDescriptor& pd(int index) const {
    return pdl_[static_cast<std::size_t>(index)];
  }
  const std::vector<ProcedureDescriptor>& pdl() const { return pdl_; }

  Result<int> FindProcedure(std::string_view proc_name) const;

  // Number of distinct A-stack sharing groups after Seal().
  int astack_group_count() const { return astack_group_count_; }
  // Aggregate A-stack demands of one group: the size is the group max, the
  // count is the max simultaneous_calls among members ("the total number of
  // A-stacks being shared" bounds concurrent calls — a soft limit).
  std::size_t group_astack_size(int group) const {
    return group_sizes_[static_cast<std::size_t>(group)];
  }
  int group_astack_count(int group) const {
    return group_counts_[static_cast<std::size_t>(group)];
  }

  // Computed A-stack byte requirement of a single procedure (arguments and
  // results overlay the same stack, so it is the max of the two directions,
  // not the sum... both live there across the call: use the sum of in-slot
  // and out-slot sizes so results never overwrite unconsumed arguments).
  static std::size_t ComputeAStackSize(const ProcedureDef& def);

 private:
  InterfaceId id_;
  std::string name_;
  DomainId server_;
  std::vector<ProcedureDef> defs_;
  std::vector<ProcedureDescriptor> pdl_;
  std::vector<std::size_t> group_sizes_;
  std::vector<int> group_counts_;
  int astack_group_count_ = 0;
  bool sealed_ = false;
};

// Byte offset of parameter `param_index`'s slot within the procedure's
// A-stack (slots are laid out in declaration order, 8-byte aligned).
std::size_t ParamOffset(const ProcedureDef& def, std::size_t param_index);

}  // namespace lrpc

#endif  // SRC_LRPC_INTERFACE_H_
