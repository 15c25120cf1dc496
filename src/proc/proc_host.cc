#include "src/proc/proc_host.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "src/common/fast_path.h"
#include "src/lrpc/interface.h"
#include "src/lrpc/server_frame.h"
#include "src/nameserver/name_server.h"
#include "src/proc/futex_doorbell.h"
#include "src/shm/astack.h"

namespace lrpc {

namespace {

// Futex slice between liveness checks while a batch is outstanding.
constexpr int kWaitSliceMs = 2;
// Wall deadline for the spawn handshake over the control socket.
constexpr int kHelloDeadlineMs = 5000;
// How long a stop waits for a server to leave its serve loop before it
// SIGKILLs it.
constexpr int kStopGraceMs = 500;
// The server's futex slice while it waits for a batch: how often an idle
// server polls the shutdown flag and whether its client is still alive.
constexpr int kIdleSliceMs = 50;

// Reads exactly `len` bytes from `fd`, polling with a wall deadline so a
// child that dies before (or while) sending its hello cannot hang the spawn.
bool ReadFullWithDeadline(int fd, void* buffer, std::size_t len,
                          int deadline_ms) {
  auto* out = static_cast<std::uint8_t*>(buffer);
  std::size_t got = 0;
  int waited_ms = 0;
  while (got < len) {
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int slice_ms = 10;
    const int ready = poll(&pfd, 1, slice_ms);
    if (ready > 0) {
      const ssize_t n = read(fd, out + got, len - got);
      if (n <= 0) {
        return false;  // EOF or error: the peer is gone.
      }
      got += static_cast<std::size_t>(n);
      continue;
    }
    waited_ms += slice_ms;
    if (waited_ms >= deadline_ms) {
      return false;
    }
  }
  return true;
}

// The handler status a server process wrote into an entry's status word
// (1 + its ErrorCode), read once. The server can write any value there; one
// that names no ErrorCode reads as kCallFailed, since the handler ran but
// its status is unreadable.
Status DecodeHandlerStatus(std::uint32_t status) {
  const std::uint32_t code = status - 1;
  if (status == kProcPending ||
      code > std::numeric_limits<std::uint8_t>::max() ||
      ErrorCodeName(static_cast<ErrorCode>(code)) == "kUnknown") {
    return Status(ErrorCode::kCallFailed,
                  "server wrote a handler status that names no error code");
  }
  return Status(static_cast<ErrorCode>(code));
}

}  // namespace

bool ProcHost::ForkPermitted() {
  // Probed once per process: fork a child that exits immediately and reap
  // it. Sandboxes that forbid fork fail here and every proc-backend user
  // skips gracefully.
  static const bool permitted = [] {
    const pid_t pid = fork();
    if (pid < 0) {
      return false;
    }
    if (pid == 0) {
      _exit(0);
    }
    int wait_status = 0;
    return waitpid(pid, &wait_status, 0) == pid;
  }();
  return permitted;
}

ProcHost::ProcHost(LrpcRuntime& runtime, Options options)
    : runtime_(runtime), options_(options) {
  runtime_.AttachProcTransport(this);
}

ProcHost::~ProcHost() {
  for (auto& [domain, ep] : endpoints_) {
    Stop(ep);
  }
  endpoints_.clear();
  runtime_.AttachProcTransport(nullptr);
}

bool ProcHost::Serves(DomainId server) const {
  // Dead-pending endpoints still count: the next call must reach the
  // channel and get kPeerDied, and a call the channel cannot carry must be
  // refused, not run in the client process.
  return Find(server) != nullptr;
}

Status ProcHost::SpawnServer(DomainId server, const Interface* iface) {
  if (!ForkPermitted()) {
    return Status(ErrorCode::kUnimplemented,
                  "fork is not permitted in this environment");
  }
  if (iface == nullptr || !iface->sealed()) {
    return Status(ErrorCode::kInvalidArgument,
                  "proc server needs a sealed interface");
  }
  if (Find(server) != nullptr) {
    return Status(ErrorCode::kAlreadyExists, "domain already has a process");
  }
  // The export must be registered before a process is admitted for it: the
  // hello handshake below is checked against this entry.
  Result<ExportEntry> entry = runtime_.names().Lookup(iface->name());
  if (!entry.ok() || entry->server != server) {
    return Status(ErrorCode::kNoSuchInterface,
                  "spawn before export: nameserver has no matching entry");
  }

  Endpoint ep;
  ep.domain = server;
  ep.iface = iface;
  LRPC_RETURN_IF_ERROR(ep.segment.Map(sizeof(ProcChannel)));
  ep.channel = new (ep.segment.data()) ProcChannel();

  // The control socket carries the binding handshake (ProcHello).
  int ctl[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) != 0) {
    return Status(ErrorCode::kOutOfMemory, "control socketpair failed");
  }

  // Insert before fork so the child can see its own endpoint (and every
  // sibling's, whose channels it drops rights to).
  auto [it, inserted] = endpoints_.emplace(server, std::move(ep));
  Endpoint& slot = it->second;

  const int client_pid = static_cast<int>(getpid());
  const pid_t pid = fork();
  if (pid == 0) {
    // Server process: drop the parent's end of the socket, and serve until
    // shutdown, SIGKILL or the client's death.
    close(ctl[0]);
    ChildServe(slot, ctl[1], client_pid);  // [[noreturn]]
  }
  close(ctl[1]);
  if (pid < 0) {
    close(ctl[0]);
    endpoints_.erase(it);
    return Status(ErrorCode::kOutOfMemory, "fork failed");
  }
  slot.pid = static_cast<int>(pid);

  // Binding admission: the child announces what it serves over the UNIX
  // socket; admit only if the claim matches the nameserver's registration.
  ProcHello hello;
  bool admitted =
      ReadFullWithDeadline(ctl[0], &hello, sizeof(hello), kHelloDeadlineMs);
  close(ctl[0]);
  if (admitted) {
    admitted = hello.magic == kProcHelloMagic &&
               hello.domain == static_cast<std::int32_t>(server) &&
               hello.procedures ==
                   static_cast<std::uint32_t>(iface->procedure_count()) &&
               std::strncmp(hello.name, iface->name().c_str(),
                            kProcHelloNameBytes) == 0;
  }
  if (!admitted) {
    kill(pid, SIGKILL);
    int wait_status = 0;
    (void)waitpid(pid, &wait_status, 0);
    endpoints_.erase(it);
    return Status(ErrorCode::kBindingRefused,
                  "proc hello handshake failed or mismatched the export");
  }
  slot.live = true;
  return Status::Ok();
}

[[noreturn]] void ProcHost::ChildServe(Endpoint& self, int ctl_fd,
                                       int client_pid) {
  // Real per-domain rights: this server may touch only its own channel.
  // Sibling channels stay mapped (fork inherits the world) but go PROT_NONE,
  // the mprotect expression of the paper's pair-wise sharing rule.
  for (auto& [domain, ep] : endpoints_) {
    if (domain != self.domain) {
      (void)ep.segment.Protect(ProcSegment::Access::kNone);
    }
  }

  ProcHello hello;
  hello.domain = static_cast<std::int32_t>(self.domain);
  hello.pid = static_cast<std::int32_t>(getpid());
  hello.procedures = static_cast<std::uint32_t>(self.iface->procedure_count());
  std::snprintf(hello.name, sizeof(hello.name), "%s",
                self.iface->name().c_str());
  (void)!write(ctl_fd, &hello, sizeof(hello));
  close(ctl_fd);

  // One scratch A-stack per procedure, the size of its window, built
  // before the first call and reused by every call: together with
  // ServerFrame's inline slot table, no call allocates on the heap the child
  // inherited from the client at fork. No client domain maps them; the
  // window crosses in the channel.
  std::vector<std::unique_ptr<AStackRegion>> scratch;
  for (int p = 0; p < self.iface->procedure_count(); ++p) {
    scratch.push_back(std::make_unique<AStackRegion>(
        kNoDomain, self.domain, self.iface->pd(p).window_bytes, 1,
        /*secondary=*/false));
  }

  ProcChannel* ch = self.channel;
  Processor& cpu = runtime_.machine().processor(0);
  std::uint32_t handled = 0;
  for (;;) {
    // Not a seqlock: call_seq is a monotonic doorbell with one outstanding
    // batch per channel, so the entries it publishes are stable until the
    // server bumps return_seq.
    std::uint32_t seen = ch->call_seq.load(  // NOLINT(lrpc-seqlock-recheck)
        std::memory_order_acquire);
    while (seen == handled) {
      // LRPC_MO(stop-flag)
      if (ch->shutdown.load(std::memory_order_relaxed) != 0) {
        _exit(0);
      }
      seen = FutexDoorbell::WaitWhile(&ch->call_seq, &ch->call_sleepers,
                                      handled, kIdleSliceMs);
      // An idle slice ran out: a client process that died (abort, SIGKILL)
      // has left this server to another parent, and nothing will call it.
      if (seen == handled && getppid() != client_pid) {
        _exit(0);
      }
    }

    // Accept: from here on, a death is mid-batch, and the client triages
    // each entry by its status word instead of failing the batch retryable.
    // The batch header is read once: a client that rewrites it mid-batch
    // changes nothing the handlers see.
    ch->accept_seq.fetch_add(1, std::memory_order_acq_rel);
    const std::uint32_t die = ch->die_mode;
    const std::uint32_t count = std::min(ch->batch_count, kProcBatchMax);
    const auto client = static_cast<DomainId>(ch->client_domain);

    // Serve every entry, then ring the return doorbell once. A chaos death
    // "in the server body" lands before entry count/2 — before the handler
    // of a batch of one — so a batch's corpse holds finished and unfinished
    // entries alike.
    std::size_t header = 0;
    for (std::uint32_t i = 0;
         i < count && header <= kProcArenaBytes - sizeof(ProcEntry); ++i) {
      if (die == kProcDieInServerBody && i == count / 2) {
        kill(getpid(), SIGKILL);
      }
      ProcEntry& entry = ch->entry(header);
      // Client-written: bounded by the arena before any arithmetic, so no
      // offset derived from it wraps. A window that would run past the
      // arena's end is refused and ends the walk.
      const std::uint32_t len = entry.window_len;
      const ProcEntrySpan span =
          ProcEntryLayout(header, std::min<std::size_t>(len, kProcArenaBytes));
      const bool inside =
          len <= kProcArenaBytes && span.window + len <= kProcArenaBytes;
      const Status handler_status =
          inside ? ChildRunHandler(self, cpu, scratch, client, entry.procedure,
                                   entry.inline_window != 0, ch->window(span),
                                   len)
                 : Status(ErrorCode::kInvalidArgument,
                          "argument window runs past the channel's arena");
      entry.status.store(1 + static_cast<std::uint32_t>(handler_status.code()),
                         std::memory_order_release);
      if (!inside) {
        break;
      }
      header = span.next;
    }
    handled = seen;
    ch->return_seq.fetch_add(1, std::memory_order_seq_cst);
    FutexDoorbell::Wake(&ch->return_seq, &ch->return_sleepers);
    if (die == kProcDieAfterReturn) {
      // Chaos schedule: the batch itself succeeded; die right after the
      // return doorbell so the *next* call finds a corpse.
      kill(getpid(), SIGKILL);
    }
  }
}

// The server leg in the child: no allocation, no logging, no lock.
LRPC_FAST_PATH_BEGIN("proc server leg");

Status ProcHost::ChildRunHandler(
    Endpoint& self, Processor& cpu,
    std::span<const std::unique_ptr<AStackRegion>> scratch, DomainId client,
    int procedure, bool inline_window, std::uint8_t* window,
    std::size_t len) {
  if (procedure < 0 || procedure >= self.iface->procedure_count()) {
    return Status(ErrorCode::kNoSuchProcedure);
  }
  const ProcedureDescriptor& pd = self.iface->pd(procedure);
  const ProcedureDef& def = *pd.def;
  // `len` comes from memory the client process can write. An honest client
  // sends exactly the procedure's window (LrpcRuntime::ProcCallOf): the
  // register window for an inline call, the bytes its parameters occupy
  // otherwise. Any other length could overrun the scratch A-stack, or leave
  // the reused A-stack holding bytes of an earlier call.
  const std::size_t expected = inline_window ? pd.slot_span : pd.window_bytes;
  if ((inline_window && !pd.inline_eligible) || len != expected) {
    return Status(ErrorCode::kInvalidArgument,
                  "argument window is not the procedure's window");
  }
  // The handler runs on the server's own copy of the window, never on the
  // shared bytes, so the client cannot change an argument the handler has
  // read: the scratch A-stack for a marshaled call, that A-stack's linkage
  // register window for an inline call.
  AStackRegion& region = *scratch[static_cast<std::size_t>(procedure)];
  const AStackRef ref{&region, 0};
  std::uint8_t* own =
      inline_window ? ref.linkage().regs : region.segment().DataUnchecked();
  std::memcpy(own, window, len);
  ServerFrame frame(nullptr, cpu, def, ref, self.domain, client, kNoThread,
                    nullptr);
  if (inline_window) {
    frame.AttachRegisterWindow(own);
  }
  Status handler_status = frame.PrepareArguments();
  if (handler_status.ok() && def.handler) {
    handler_status = def.handler(frame);
  }
  std::memcpy(window, own, len);
  return handler_status;
}

LRPC_FAST_PATH_END("proc server leg");

Status ProcHost::Execute(DomainId server, DomainId client, int procedure,
                         bool inline_window, std::uint8_t* window,
                         std::size_t window_len, Status* handler_status,
                         KillPhase kill_phase) {
  BatchCall call{.procedure = procedure,
                 .inline_window = inline_window,
                 .window = window,
                 .window_len = window_len};
  (void)ExecuteBatch(server, client, std::span<BatchCall>(&call, 1),
                     kill_phase);
  *handler_status = call.handler_status;
  return call.leg;
}

Status ProcHost::ExecuteBatch(DomainId server, DomainId client,
                              std::span<BatchCall> calls,
                              KillPhase kill_phase) {
  // Ends every call of the batch with the same transport-leg status.
  auto fail_all = [&calls](ErrorCode code, const char* detail) {
    for (BatchCall& call : calls) {
      call.leg = Status(code, detail);
    }
    return Status(code, detail);
  };
  if (calls.empty()) {
    return Status::Ok();
  }
  if (calls.size() > kProcBatchMax ||
      std::any_of(calls.begin(), calls.end(), [](const BatchCall& call) {
        return call.window_len > kProcPayloadBytes;
      })) {
    return fail_all(ErrorCode::kMessageTooLarge,
                    "batch exceeds the channel's arena");
  }
  Endpoint* ep = Find(server);
  if (ep == nullptr) {
    return fail_all(ErrorCode::kNoSuchDomain, "no process endpoint");
  }
  if (!ep->live) {
    // A corpse detected earlier (post-return self-kill, or an out-of-call
    // death not yet collected): the batch never reaches the server, so this
    // is a pre-accept death — retryable.
    (void)fail_all(ErrorCode::kPeerDied, "server process already dead");
    return Status::Ok();
  }
  if (kill_phase == KillPhase::kBeforeAccept) {
    // Chaos schedule: kill before ringing the doorbell, so no handler
    // provably runs.
    Kill(*ep);
    (void)fail_all(ErrorCode::kPeerDied,
                   "server process died before accepting the call");
    return Status::Ok();
  }

  ProcChannel* ch = ep->channel;
  ch->die_mode = kill_phase == KillPhase::kInServerBody ? kProcDieInServerBody
                 : kill_phase == KillPhase::kAfterReturn ? kProcDieAfterReturn
                                                         : kProcDieNone;
  ch->client_domain = static_cast<std::int32_t>(client);
  ch->batch_count = static_cast<std::uint32_t>(calls.size());
  std::size_t header = 0;
  for (const BatchCall& call : calls) {
    const ProcEntrySpan span = ProcEntryLayout(header, call.window_len);
    ProcEntry& entry = ch->entry(header);
    entry.procedure = call.procedure;
    entry.inline_window = call.inline_window ? 1u : 0u;
    entry.window_len = static_cast<std::uint32_t>(call.window_len);
    // Ordered by the call_seq increment below, like the plain fields.
    // LRPC_MO(pre-publish-reset)
    entry.status.store(kProcPending, std::memory_order_relaxed);
    if (call.window_len > 0) {
      std::memcpy(ch->window(span), call.window, call.window_len);
    }
    header = span.next;
  }
  const std::uint32_t accepted_before =
      ch->accept_seq.load(std::memory_order_acquire);
  const std::uint32_t returned_before =
      ch->return_seq.load(std::memory_order_acquire);
  // ONE doorbell ring for the whole batch; the single return ring is its
  // pair.
  ch->call_seq.fetch_add(1, std::memory_order_seq_cst);
  FutexDoorbell::Wake(&ch->call_seq, &ch->call_sleepers);
  ++transfers_;

  // Reads each entry's outcome back, at the offsets the client itself laid
  // out. A finished entry brings its handler's status, and its results when
  // the handler succeeded. After a death (`unfinished` set) an entry whose
  // status word the server never published may have run its handler, so it
  // fails with kCallFailed.
  auto read_back = [&](const char* unfinished) {
    std::size_t at = 0;
    for (BatchCall& call : calls) {
      const ProcEntrySpan span = ProcEntryLayout(at, call.window_len);
      const std::uint32_t status =
          ch->entry(at).status.load(std::memory_order_acquire);
      if (unfinished != nullptr && status == kProcPending) {
        call.leg = Status(ErrorCode::kCallFailed, unfinished);
      } else {
        call.leg = Status::Ok();
        call.handler_status = DecodeHandlerStatus(status);
        if (call.handler_status.ok() && call.window_len > 0) {
          std::memcpy(call.window, ch->window(span), call.window_len);
        }
      }
      at = span.next;
    }
  };
  // A death before accept fails every call retryable; after it, the status
  // words triage call by call.
  auto triage_death = [&](const char* unfinished) {
    if (ch->accept_seq.load(std::memory_order_acquire) == accepted_before) {
      (void)fail_all(ErrorCode::kPeerDied,
                     "server process died before accepting the call");
    } else {
      read_back(unfinished);
    }
  };

  int waited_ms = 0;
  for (;;) {
    const std::uint32_t returned =
        FutexDoorbell::WaitWhile(&ch->return_seq, &ch->return_sleepers,
                                 returned_before, kWaitSliceMs);
    if (returned != returned_before) {
      // The server rang the return doorbell once for the whole batch; its
      // release published every entry's results under our acquire load.
      read_back(nullptr);
      if (kill_phase == KillPhase::kAfterReturn) {
        // The deliberate post-return death is synchronous (the child
        // SIGKILLed itself right after ringing); reap it now so the next
        // call observes kPeerDied deterministically.
        Kill(*ep);
      }
      return Status::Ok();
    }

    // Liveness check between futex slices — this is what turns "peer died
    // mid-call" into a prompt status instead of a hang.
    if (Exited(*ep)) {
      triage_death("server process died mid-call");
      return Status::Ok();
    }

    waited_ms += kWaitSliceMs;
    if (waited_ms >= options_.call_deadline_ms) {
      // The backend's own watchdog: a wedged peer is indistinguishable from
      // a hung call, so kill and collect it rather than hang the client.
      Kill(*ep);
      triage_death("wedged server killed mid-call");
      return Status::Ok();
    }
  }
}

bool ProcHost::Exited(Endpoint& ep) {
  // Only this endpoint's pid, never -1, so the host cannot reap another
  // subsystem's children. ECHILD means someone else reaped it: it is gone.
  int wait_status = 0;
  if (waitpid(ep.pid, &wait_status, WNOHANG) == 0) {
    return false;
  }
  ep.live = false;
  return true;
}

void ProcHost::Kill(Endpoint& ep) {
  if (!ep.live) {
    return;
  }
  // After SIGKILL the blocking reap returns promptly.
  kill(ep.pid, SIGKILL);
  int wait_status = 0;
  (void)waitpid(ep.pid, &wait_status, 0);
  ep.live = false;
}

void ProcHost::Stop(Endpoint& ep) {
  if (!ep.live) {
    return;
  }
  // LRPC_MO(stop-flag)
  ep.channel->shutdown.store(1, std::memory_order_relaxed);
  FutexDoorbell::Wake(&ep.channel->call_seq, &ep.channel->call_sleepers);
  for (int waited_ms = 0; waited_ms < kStopGraceMs; waited_ms += 10) {
    if (Exited(ep)) {
      return;
    }
    usleep(10 * 1000);
  }
  // Still in a handler, or wedged: the server leaves its loop only between
  // batches, so a stop must not wait on it.
  Kill(ep);
}

void ProcHost::OnDomainTerminated(DomainId domain) {
  auto it = endpoints_.find(domain);
  if (it == endpoints_.end()) {
    return;  // Not a proc-backed domain, or already reclaimed.
  }
  Kill(it->second);
  // Reclaim: the endpoint's destructor unmaps the shared channel segment.
  endpoints_.erase(it);
}

std::vector<DomainId> ProcHost::PollDeaths() {
  std::vector<DomainId> dead;
  for (auto& [domain, ep] : endpoints_) {
    if (ep.live && Exited(ep)) {
      dead.push_back(domain);
    }
  }
  return dead;
}

int ProcHost::CollectDead() {
  // Snapshot first: TerminateDomain re-enters OnDomainTerminated, which
  // erases from endpoints_.
  std::vector<DomainId> pending;
  for (const auto& [domain, ep] : endpoints_) {
    if (!ep.live) {
      pending.push_back(domain);
    }
  }
  int collected = 0;
  for (DomainId domain : pending) {
    (void)runtime_.TerminateDomain(domain);
    ++collected;
  }
  return collected;
}

Status ProcHost::KillPeer(DomainId server) {
  Endpoint* ep = Find(server);
  if (ep == nullptr) {
    return Status(ErrorCode::kNoSuchDomain, "no process endpoint");
  }
  if (!ep->live) {
    return Status(ErrorCode::kDomainTerminated, "peer already dead");
  }
  kill(ep->pid, SIGKILL);
  // Deliberately no reap here: the out-of-call death tests exercise the
  // detector (PollDeaths, or the next call's liveness check).
  return Status::Ok();
}

Status ProcHost::Shutdown(DomainId server) {
  Endpoint* ep = Find(server);
  if (ep == nullptr) {
    return Status(ErrorCode::kNoSuchDomain, "no process endpoint");
  }
  if (!ep->live) {
    return Status(ErrorCode::kDomainTerminated, "peer already dead");
  }
  Stop(*ep);
  return Status::Ok();
}

ProcChannel* ProcHost::channel(DomainId server) {
  Endpoint* ep = Find(server);
  return ep != nullptr ? ep->channel : nullptr;
}

int ProcHost::peer_pid(DomainId server) const {
  const Endpoint* ep = Find(server);
  return ep != nullptr ? ep->pid : -1;
}

std::size_t ProcHost::live_endpoints() const {
  std::size_t n = 0;
  for (const auto& [domain, ep] : endpoints_) {
    if (ep.live) {
      ++n;
    }
  }
  return n;
}

std::size_t ProcHost::mapped_segments() const {
  std::size_t n = 0;
  for (const auto& [domain, ep] : endpoints_) {
    if (ep.segment.mapped()) {
      ++n;
    }
  }
  return n;
}

ProcHost::Endpoint* ProcHost::Find(DomainId domain) {
  auto it = endpoints_.find(domain);
  return it != endpoints_.end() ? &it->second : nullptr;
}

const ProcHost::Endpoint* ProcHost::Find(DomainId domain) const {
  auto it = endpoints_.find(domain);
  return it != endpoints_.end() ? &it->second : nullptr;
}

}  // namespace lrpc
