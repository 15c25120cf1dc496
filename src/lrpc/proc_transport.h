// ProcTransport: the seam between the LRPC call path and a real
// multi-process backend (docs/multiprocess.md).
//
// On RuntimeBackend::kMultiProcess the server-execution section of the fast
// path hands the marshaled argument window to a ProcTransport instead of
// branching into the handler in-process. The transport owns the forked
// server processes, the shared channel segments and the futex doorbells;
// the runtime keeps owning binding validation, linkage bookkeeping and the
// termination collector. The split mirrors FallbackTransport
// (supervised_call.h): lrpc_core declares the abstract class, src/proc
// implements it, and nothing in the core links against process plumbing.
//
// A call the channel cannot carry — one with out-of-band segments, or a
// window over payload_capacity() — never reaches the transport: the kernel
// call leg refuses it with kMessageTooLarge, so no call to a server process
// runs its handler in the client process.
//
// Execute()'s return value describes the transport leg, not the handler:
//   kOk          the server process ran the handler; *handler_status is the
//                handler's own Status, and when that is ok `window` holds
//                the result bytes.
//   kPeerDied    the server process died before accepting the call — the
//                handler never ran, so the failure is retryable.
//   kCallFailed  the server process died after accepting the call — the
//                handler may have executed; never retried.
// On either death status the caller must run the termination collector
// against the dead domain (the transport has already reaped the corpse and
// reclaimed its shared segments by the time Execute returns).

#ifndef SRC_LRPC_PROC_TRANSPORT_H_
#define SRC_LRPC_PROC_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/ids.h"
#include "src/common/status.h"

namespace lrpc {

class Interface;

class ProcTransport {
 public:
  // Where a FaultKind::kPeerProcessDeath injection kills the server,
  // relative to the doorbell protocol (docs/multiprocess.md):
  //   kBeforeAccept  SIGKILL lands before the server bumps accept_seq —
  //                  the client observes kPeerDied (retryable).
  //   kInServerBody  the server dies after accepting, inside the handler —
  //                  the client observes kCallFailed.
  //   kAfterReturn   the server dies after ringing the return doorbell —
  //                  the call completes normally; the host reaps the
  //                  corpse, and the next call finds it dead.
  enum class KillPhase : std::uint8_t {
    kNone,
    kBeforeAccept,
    kInServerBody,
    kAfterReturn,
  };

  virtual ~ProcTransport() = default;

  // True when `server` has a live forked process behind it.
  virtual bool Serves(DomainId server) const = 0;

  // Largest argument/result window one call moves through the shared
  // channel; the runtime refuses calls that need more.
  virtual std::size_t payload_capacity() const = 0;

  // Forks a server process for `server` executing `iface`'s handlers.
  // The interface must be sealed; call after Export.
  virtual Status SpawnServer(DomainId server, const Interface* iface) = 0;

  // One domain transfer: ship `window` (the marshaled A-stack bytes, or the
  // linkage register window when `inline_window`) to `server`'s process,
  // wait on the return doorbell, and copy the result bytes back into
  // `window`. `kill` arms a deliberate SIGKILL at the given phase. This is
  // ExecuteBatch on a batch of one.
  virtual Status Execute(DomainId server, DomainId client, int procedure,
                         bool inline_window, std::uint8_t* window,
                         std::size_t window_len, Status* handler_status,
                         KillPhase kill = KillPhase::kNone) = 0;

  // One call of a batched domain transfer (docs/async.md): an AsyncRing's
  // flush leg ships every pending window in a single doorbell ring.
  struct BatchCall {
    int procedure = -1;
    bool inline_window = false;
    std::uint8_t* window = nullptr;
    std::size_t window_len = 0;
    Status leg;             // Per-call transport-leg status (see Execute).
    Status handler_status;  // The handler's own Status when `leg` is ok.
  };

  // Batched submission/return legs: ship `calls` to `server`'s process
  // behind one doorbell wake pair, and triage each call individually on
  // peer death (never accepted => kPeerDied, retryable; accepted but not
  // finished => kCallFailed; finished => the handler's real result).
  // Per-call outcomes land in each entry's `leg`/`handler_status`; the
  // return value reports only a failure of the batch as a whole, which
  // every `leg` carries too. `kill` arms at most one SIGKILL for the whole
  // batch.
  virtual Status ExecuteBatch(DomainId server, DomainId client,
                              std::span<BatchCall> calls,
                              KillPhase kill = KillPhase::kNone) = 0;

  // Idempotent teardown hook: the runtime's TerminateDomain calls this so a
  // termination initiated from the simulated side also kills, reaps and
  // unmaps the real process behind the domain.
  virtual void OnDomainTerminated(DomainId domain) = 0;
};

}  // namespace lrpc

#endif  // SRC_LRPC_PROC_TRANSPORT_H_
