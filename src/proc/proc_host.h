// ProcHost: the multi-process backend behind RuntimeBackend::kMultiProcess
// (docs/multiprocess.md).
//
// Each server domain becomes a real forked process. A call's argument
// window (the bytes its procedure's parameters occupy, or its register
// window) crosses a MAP_SHARED channel segment behind a futex doorbell, the
// domain transfer; a window of up to 24 bytes rides the doorbells' own
// cache line (proc_channel.h). Binding admission runs over a UNIX-domain
// socket handshake checked against the nameserver. One death detector,
// waitpid(WNOHANG) on the host's own server pids, runs between a call's
// wait slices (ExecuteBatch) and out of any call (PollDeaths), so peer
// death — deliberate (chaos SIGKILL schedules), induced (wedged peers past
// the call deadline) or spontaneous — is detected, reaped, and fed to the
// §5.3 termination collector, never hung on. A stop (Shutdown, or the
// host's destruction) is bounded: a server that does not leave its serve
// loop within a short grace is SIGKILLed. A server process exits by itself
// once its client process is gone.
//
// Lifetime: the host attaches itself to the runtime on construction and
// detaches on destruction, so it must not outlive the runtime. Everything
// is single-threaded on the client side (the chaos/property drivers are),
// matching the one-outstanding-batch-per-channel protocol.

#ifndef SRC_PROC_PROC_HOST_H_
#define SRC_PROC_PROC_HOST_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/lrpc/proc_transport.h"
#include "src/lrpc/runtime.h"
#include "src/proc/proc_channel.h"
#include "src/proc/proc_segment.h"

namespace lrpc {

class ProcHost final : public ProcTransport {
 public:
  struct Options {
    // Wall deadline for one domain transfer: a peer that has not returned
    // by then is treated as wedged, SIGKILLed and collected — the backend's
    // own watchdog, guaranteeing no client ever hangs on a corpse.
    int call_deadline_ms = 5000;
  };

  explicit ProcHost(LrpcRuntime& runtime) : ProcHost(runtime, Options()) {}
  ProcHost(LrpcRuntime& runtime, Options options);
  ~ProcHost() override;

  ProcHost(const ProcHost&) = delete;
  ProcHost& operator=(const ProcHost&) = delete;

  // True when this environment lets us fork and wait (probed once; some
  // sandboxes forbid it, and every caller is expected to skip gracefully).
  static bool ForkPermitted();

  // --- ProcTransport. ---
  bool Serves(DomainId server) const override;
  std::size_t payload_capacity() const override { return kProcPayloadBytes; }
  Status SpawnServer(DomainId server, const Interface* iface) override;
  // A batch of one through ExecuteBatch.
  Status Execute(DomainId server, DomainId client, int procedure,
                 bool inline_window, std::uint8_t* window,
                 std::size_t window_len, Status* handler_status,
                 KillPhase kill) override;
  // The channel protocol (docs/multiprocess.md): every call of the batch
  // crosses the channel's arena behind ONE call doorbell and ONE return
  // doorbell; a peer death is triaged per entry via the status words. A
  // batch of more than kProcBatchMax calls, or with a window over
  // kProcPayloadBytes, fails whole with kMessageTooLarge.
  Status ExecuteBatch(DomainId server, DomainId client,
                      std::span<BatchCall> calls,
                      KillPhase kill) override;
  void OnDomainTerminated(DomainId domain) override;

  // --- Robustness surface (out-of-call). ---
  // Sweeps the live endpoints with waitpid(WNOHANG) for peers that died
  // outside any call (the chaos raw-SIGKILL case); reaps them, marks them
  // dead-pending and returns their domains.
  std::vector<DomainId> PollDeaths();
  // Runs the termination collector on every dead-pending domain (revoking
  // bindings, unwinding captured threads, reclaiming segments); returns the
  // number collected.
  int CollectDead();

  // --- Test and bench surface. ---
  // Raw SIGKILL of a server's process, not synchronized with any call.
  Status KillPeer(DomainId server);
  // Stops the server: the channel's shutdown flag and a doorbell ring, then
  // SIGKILL if it has not exited within the grace. Reaped either way; the
  // endpoint is left dead-pending.
  Status Shutdown(DomainId server);
  int peer_pid(DomainId server) const;
  // Endpoints whose process is believed alive.
  std::size_t live_endpoints() const;
  // Channel segments still mapped — the reclamation audit: after every dead
  // domain is collected this equals live_endpoints().
  std::size_t mapped_segments() const;
  std::uint64_t transfers() const { return transfers_; }
  // The shared channel of `server`'s endpoint, as the client maps it (null
  // when the domain has none): what a hostile client process can write.
  ProcChannel* channel(DomainId server);

 private:
  struct Endpoint {
    DomainId domain = kNoDomain;
    const Interface* iface = nullptr;
    int pid = -1;
    ProcSegment segment;            // Holds the channel.
    ProcChannel* channel = nullptr;
    // Process running. Once false, the process is reaped and the endpoint
    // is dead-pending until the collector erases it.
    bool live = false;
  };

  // Serve loop of the forked child; never returns. It sends its hello on
  // `ctl_fd`, reads each batch's header once, and walks the arena with
  // ProcEntryLayout, checking every window against the arena's end before
  // it touches it. It exits on the shutdown flag, or once its parent is no
  // longer `client_pid`.
  [[noreturn]] void ChildServe(Endpoint& self, int ctl_fd, int client_pid);
  // One handler execution in the child for the entry whose window is
  // `window`, which the caller has checked lies inside the arena. The
  // handler runs on the procedure's entry of `scratch` (one A-stack per
  // procedure, built before the serve loop): the window is copied in,
  // served from the A-stack or its linkage's register window, and copied
  // back, and nothing is allocated. `client` is the batch's client domain
  // and the other arguments are entry fields, each read once by the
  // caller; a `len` other than the procedure's exact window fails
  // kInvalidArgument.
  Status ChildRunHandler(Endpoint& self, Processor& cpu,
                         std::span<const std::unique_ptr<AStackRegion>> scratch,
                         DomainId client, int procedure, bool inline_window,
                         std::uint8_t* window, std::size_t len);

  // The one death detector: waitpid(WNOHANG) on the endpoint's own pid.
  // True, with the endpoint dead, once its process has exited and been
  // reaped (or was reaped elsewhere).
  bool Exited(Endpoint& ep);
  // SIGKILLs a live endpoint's process, reaps it and marks it dead;
  // idempotent.
  void Kill(Endpoint& ep);
  // The one stop path, for Shutdown and the destructor: the shutdown flag
  // and a doorbell ring, a grace for the server to exit, then SIGKILL.
  void Stop(Endpoint& ep);

  Endpoint* Find(DomainId domain);
  const Endpoint* Find(DomainId domain) const;

  LrpcRuntime& runtime_;
  Options options_;
  std::map<DomainId, Endpoint> endpoints_;
  std::uint64_t transfers_ = 0;
};

}  // namespace lrpc

#endif  // SRC_PROC_PROC_HOST_H_
