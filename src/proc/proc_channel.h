// ProcChannel: the shared-memory call channel between the client process
// and one forked server domain (docs/multiprocess.md).
//
// One channel per server endpoint, placement-new'd into a ProcSegment
// before fork so both sides address the same object. Every transfer ships
// a batch of calls, and a synchronous call is a batch of one. The protocol
// is three monotonic sequence words behind futex doorbells:
//
//   call_seq    the client publishes a batch (entries written first, then
//               the seq_cst increment; the server's acquire load makes the
//               entries visible).
//   accept_seq  the server bumps it when it dequeues the batch — the word
//               that splits peer death into "before accept" (kPeerDied,
//               retryable: no handler ran) and "after accept" (each entry's
//               `status` word decides).
//   return_seq  the server publishes the results (entries written first,
//               seq_cst increment, futex wake; the client's acquire read
//               pairs).
//
// `payload` is the batch's arena: each entry is a ProcEntry header followed
// by its window, and the next entry starts at the next 4-byte boundary. The
// server publishes each entry's `status` word after the entry's results, so
// after a mid-batch death the client can tell the finished entries from the
// rest.
//
// One batch is outstanding per channel at a time (the parent serializes),
// so the plain fields need no ordering of their own: they are written
// strictly before the sequence increment that publishes them.

#ifndef SRC_PROC_PROC_CHANNEL_H_
#define SRC_PROC_PROC_CHANNEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

namespace lrpc {

// Largest argument/result window one call carries across the channel. The
// runtime refuses a call with a larger window, or with out-of-band
// segments, with kMessageTooLarge (LrpcRuntime::KernelCallLeg).
inline constexpr std::size_t kProcPayloadBytes = 4096;

// Most calls one batch carries: an AsyncRing flush of its full depth.
inline constexpr std::uint32_t kProcBatchMax = 16;  // == AsyncRing::kMaxDepth.

// Deliberate-death modes for the chaos schedules (FaultKind::
// kPeerProcessDeath): the server process SIGKILLs itself at the named
// protocol point. Plain ints, not the KillPhase enum: the channel is shared
// memory and keeps a stable ABI of scalar words.
inline constexpr std::uint32_t kProcDieNone = 0;
inline constexpr std::uint32_t kProcDieInServerBody = 1;
inline constexpr std::uint32_t kProcDieAfterReturn = 2;

// An entry's status word before the server finishes the entry.
inline constexpr std::uint32_t kProcPending = 0;

// The header of one call in the arena; the call's window follows it.
struct ProcEntry {
  std::int32_t procedure = -1;
  std::uint32_t inline_window = 0;  // 1: the window is the register window.
  std::uint32_t window_len = 0;
  // kProcPending until the server finishes the entry, then 1 + the
  // ErrorCode of the handler's own Status. The server's release store
  // publishes the entry's results with it; the client's acquire load reads
  // both, and after a peer death tells the finished entries from the rest.
  std::atomic<std::uint32_t> status{kProcPending};
};

// Arena bytes of an entry with a `window_len`-byte window: the header, then
// the window rounded up so the next header stays aligned.
constexpr std::size_t ProcEntryBytes(std::size_t window_len) {
  constexpr std::size_t kAlign = alignof(ProcEntry);
  return sizeof(ProcEntry) + (window_len + kAlign - 1) / kAlign * kAlign;
}

// A full batch of the largest windows fits.
inline constexpr std::size_t kProcArenaBytes =
    kProcBatchMax * ProcEntryBytes(kProcPayloadBytes);

struct ProcChannel {
  // User-provided, so even a value-initializing `new ProcChannel()` leaves
  // the arena to the zero-filled mapping: building a channel writes only
  // its first page.
  ProcChannel() {}

  std::atomic<std::uint32_t> call_seq{0};
  std::atomic<std::uint32_t> accept_seq{0};
  std::atomic<std::uint32_t> return_seq{0};
  // Sleepers counts for the doorbells' wake elision (FutexDoorbell): a
  // ringer skips the futex syscall while its partner is still polling.
  std::atomic<std::uint32_t> call_sleepers{0};
  std::atomic<std::uint32_t> return_sleepers{0};
  // Graceful-shutdown flag, polled by the server between batches.
  std::atomic<std::uint32_t> shutdown{0};

  // --- Per-batch header, written by the client before the call_seq store. ---
  std::uint32_t die_mode = kProcDieNone;
  std::int32_t client_domain = -1;
  std::uint32_t batch_count = 0;
  // Puts entry 0's header, status word included, on the doorbells' cache
  // line and its window at the start of the next one, so a synchronous
  // call's arguments and results never share a line with the words both
  // processes poll. In scratch runs a window starting on that line made
  // perfbench's proc_call median 8-16% slower.
  std::uint32_t reserved[3] = {};

  // The batch arena (see the file comment).
  alignas(ProcEntry) std::uint8_t payload[kProcArenaBytes];

  // The entry `offset` bytes into the arena, and its window.
  ProcEntry& entry(std::size_t offset) {
    return *std::launder(reinterpret_cast<ProcEntry*>(payload + offset));
  }
  std::uint8_t* window(std::size_t offset) {
    return payload + offset + sizeof(ProcEntry);
  }
};

// The doorbells must be plain lock-free words for the cross-process futexes
// to mean anything.
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "proc channel doorbells must be address-free");
static_assert(std::is_trivially_destructible_v<ProcChannel>,
              "the channel lives in a shared mapping and is never destroyed");
static_assert(offsetof(ProcChannel, payload) + sizeof(ProcEntry) == 64,
              "entry 0's window must start the channel's second cache line");

// The handshake the server process sends over the UNIX-domain control
// socket right after fork: it announces the export it serves, and the
// parent admits the endpoint only after checking the claim against the
// nameserver's registration (binding/import over the socket,
// docs/multiprocess.md).
inline constexpr std::uint32_t kProcHelloMagic = 0x4c525043;  // 'LRPC'
inline constexpr std::size_t kProcHelloNameBytes = 64;

struct ProcHello {
  std::uint32_t magic = kProcHelloMagic;
  std::int32_t domain = -1;
  std::int32_t pid = -1;
  std::uint32_t procedures = 0;
  char name[kProcHelloNameBytes] = {};
};

static_assert(std::is_trivially_copyable_v<ProcHello>,
              "the hello crosses a socket as raw bytes");

}  // namespace lrpc

#endif  // SRC_PROC_PROC_CHANNEL_H_
