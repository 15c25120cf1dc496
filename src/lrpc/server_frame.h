// ServerFrame: the server procedure's view of one call.
//
// The kernel primes the server's E-stack with the call frame the procedure
// expects, so the entry stub can branch straight to the first instruction
// (Section 3.3). The frame exposes the A-stack's argument slots to the
// handler — directly for ordinary and no-verify parameters (the server
// reads them off the shared A-stack, the whole point of the design), and
// from a stub-made private copy for parameters whose immutability or type
// conformance matters (Section 3.5).
//
// A frame lives for one call on the server leg of every backend, so it
// allocates nothing for a procedure with up to kInlineSlots parameters and
// no private copies: its slot table is inline and left uninitialized until
// PrepareArguments decodes the in-parameters, and the private copies (copy
// E) share one per-frame buffer.

#ifndef SRC_LRPC_SERVER_FRAME_H_
#define SRC_LRPC_SERVER_FRAME_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/lrpc/copy_stats.h"
#include "src/lrpc/interface.h"
#include "src/shm/astack.h"
#include "src/sim/processor.h"

namespace lrpc {

class LrpcRuntime;

class ServerFrame {
 public:
  // `runtime` may be null when the frame is not backed by the LRPC runtime
  // (the message-RPC baseline); out-of-band arguments then do not resolve.
  ServerFrame(LrpcRuntime* runtime, Processor& cpu, const ProcedureDef& def,
              AStackRef astack, DomainId server, DomainId client,
              ThreadId thread, CopyStats* copies);

  const ProcedureDef& procedure() const { return def_; }
  DomainId server_domain() const { return server_; }
  DomainId client_domain() const { return client_; }
  ThreadId thread() const { return thread_; }
  Processor& cpu() { return cpu_; }
  LrpcRuntime* runtime() { return runtime_; }

  // --- Entry-stub work (called by the call path, not by handlers). ---
  // Decodes every in-parameter's slot, makes the private copies (copy E)
  // for immutable/type-checked in-params and recreates by-ref references;
  // runs the folded type checks. A failed check aborts the call before the
  // handler runs. When the transport has already privatized the arguments
  // (message RPC copies every argument into the server), pass
  // `already_private` to skip the E copies while still running the folded
  // type checks. The argument accessors below need a prepared frame.
  Status PrepareArguments(bool already_private = false);

  // Register-window mode (docs/fast_path.md): inline-path calls attach the
  // linkage record's register window before PrepareArguments, and the frame
  // then serves every argument from (and writes every result to) `regs` at
  // the parameter's slot offset — no A-stack decode, no segment rights
  // checks. Only valid for inline-eligible procedures (all parameters fixed
  // size, plain marshaling), which the runtime guarantees.
  void AttachRegisterWindow(std::uint8_t* regs) { regs_ = regs; }
  bool register_window() const { return regs_ != nullptr; }

  // True when someone alerted this call's thread (Section 5.3's advisory
  // signal). A long-running server procedure may poll this and return
  // early with kCallAborted — or ignore it entirely.
  bool Alerted() const;

  // --- Handler-facing argument access. ---
  // Byte length of in-parameter `index` (its fixed size, or the transmitted
  // length for variable-sized parameters).
  Result<std::size_t> ArgSize(int index) const;

  // Copies in-parameter `index` into `out` (up to `len` bytes); returns the
  // byte count. Serves from the private copy when one was made.
  Result<std::size_t> ReadArg(int index, void* out, std::size_t len) const;

  // Zero-copy view of in-parameter `index`'s bytes. Only valid for the
  // duration of the call. For private-copied parameters the view is of the
  // private copy; otherwise it is the shared A-stack itself (so a hostile
  // client could change it mid-call — exactly the paper's mutable
  // semantics).
  Result<const std::uint8_t*> ArgView(int index) const;

  // Typed convenience for small scalar arguments.
  template <typename T>
  Result<T> Arg(int index) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    Result<std::size_t> n = ReadArg(index, &value, sizeof(T));
    if (!n.ok()) {
      return n.status();
    }
    if (*n < sizeof(T)) {
      return Status(ErrorCode::kInvalidArgument, "argument narrower than type");
    }
    return value;
  }

  // --- Handler-facing result writing. ---
  // Writes out-parameter `index`'s value into its A-stack slot. The server
  // places results directly into the A-stack: no reply message exists
  // (Section 3.2).
  Status WriteResult(int index, const void* data, std::size_t len);

  template <typename T>
  Status Result_(int index, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return WriteResult(index, &value, sizeof(T));
  }

 private:
  // One in-parameter's decoded slot. Trivially constructible, so the inline
  // table costs nothing to construct: PrepareArguments writes the slot of
  // each in-parameter, and nothing reads any other.
  struct SlotInfo {
    // Payload offset (past any length prefix) in the A-stack segment or the
    // register window, or in private_ for a private copy.
    std::size_t data_offset;
    std::size_t length;         // Actual payload bytes this call.
    std::uint64_t oob_index;    // The out-of-band segment, if out_of_band.
    bool out_of_band;
    bool private_copy;          // Served from private_.
  };
  static_assert(std::is_trivially_default_constructible_v<SlotInfo>);

  // Slots held inline; a procedure with more parameters spills its table
  // to the heap.
  static constexpr std::size_t kInlineSlots = 8;

  Status DecodeSlot(int index, SlotInfo* info) const;
  // The slot of in-parameter `index` of a prepared frame, or an error.
  Result<const SlotInfo*> PreparedSlot(int index) const;
  // Copies up to `len` bytes of `slot`'s payload into `out`.
  Result<std::size_t> ReadSlot(const SlotInfo& slot, void* out,
                               std::size_t len) const;

  LrpcRuntime* runtime_;
  Processor& cpu_;
  const ProcedureDef& def_;
  AStackRef astack_;
  DomainId server_;
  DomainId client_;
  ThreadId thread_;
  CopyStats* copies_;
  std::uint8_t* regs_ = nullptr;  // Register window; null = A-stack mode.
  bool prepared_ = false;
  SlotInfo* slots_ = nullptr;     // inline_slots_ or spilled_, once prepared.
  SlotInfo inline_slots_[kInlineSlots];
  std::vector<SlotInfo> spilled_;     // Tables over kInlineSlots.
  std::vector<std::uint8_t> private_;  // Every private copy's bytes.
};

}  // namespace lrpc

#endif  // SRC_LRPC_SERVER_FRAME_H_
