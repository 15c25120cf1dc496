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
// `payload` is the batch's arena: each entry is a ProcEntry header and a
// window, placed by ProcEntryLayout. The server publishes each entry's
// `status` word after the entry's results, so after a mid-batch death the
// client can tell the finished entries from the rest.
//
// The channel's first cache line holds the words a call only reads: the
// doorbells' sleepers counts and the shutdown flag. The second, the hot
// line, holds what a call writes: the sequence words, the batch header,
// entry 0's header with its status word, and the first 24 bytes of entry
// 0's window. A Null, Add or inline Add call, whose window fits those 24
// bytes, crosses in that one line each way.
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

#include "src/common/cacheline.h"

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

// The header of one call in the arena.
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

// Where one entry's window sits in the arena, and where the header of the
// entry after it goes (arena offsets).
struct ProcEntrySpan {
  std::size_t window = 0;
  std::size_t next = 0;
};

// A full batch of the largest windows fits: under ProcEntryLayout an entry
// takes at most its header, less than a line of padding in front of a
// window that starts a line, and its window.
inline constexpr std::size_t kProcArenaBytes =
    kProcBatchMax * (sizeof(ProcEntry) + kCacheLineSize + kProcPayloadBytes);

struct ProcChannel {
  // User-provided, so even a value-initializing `new ProcChannel()` leaves
  // the arena to the zero-filled mapping: building a channel writes only
  // its first page.
  ProcChannel() {}

  // --- The cold line: read by every ring, written only by a partner going
  // to sleep or by a shutdown. ---
  // Sleepers counts for the doorbells' wake elision (FutexDoorbell): a
  // ringer skips the futex syscall while its partner is still polling.
  std::atomic<std::uint32_t> call_sleepers{0};
  std::atomic<std::uint32_t> return_sleepers{0};
  // Graceful-shutdown flag, polled by the server between batches.
  std::atomic<std::uint32_t> shutdown{0};

  // --- The hot line. ---
  LRPC_CACHELINE_ALIGNED std::atomic<std::uint32_t> call_seq{0};
  std::atomic<std::uint32_t> accept_seq{0};
  std::atomic<std::uint32_t> return_seq{0};
  // Per-batch header, written by the client before the call_seq store.
  std::uint32_t die_mode = kProcDieNone;
  std::int32_t client_domain = -1;
  std::uint32_t batch_count = 0;

  // The batch arena (see ProcEntryLayout).
  alignas(ProcEntry) std::uint8_t payload[kProcArenaBytes];

  // The entry whose header is `header` bytes into the arena, and the window
  // of an entry laid out by ProcEntryLayout.
  ProcEntry& entry(std::size_t header) {
    return *std::launder(reinterpret_cast<ProcEntry*>(payload + header));
  }
  std::uint8_t* window(const ProcEntrySpan& span) {
    return payload + span.window;
  }
};

// The arena's one layout rule; the client's layout, the server's walk and
// the client's read-back all use it. A window goes right behind its header
// when it fits the rest of that cache line, and at the start of the next
// line otherwise, so a small window shares its header's line and no window
// straddles the hot line. The next header follows at the next 4-byte
// boundary. The server bounds a client-written `window_len` by the arena
// before it calls this, so no offset here can wrap.
constexpr ProcEntrySpan ProcEntryLayout(std::size_t header,
                                        std::size_t window_len) {
  constexpr std::size_t kAlign = alignof(ProcEntry);
  constexpr std::size_t kPhase =
      offsetof(ProcChannel, payload) % kCacheLineSize;
  const std::size_t behind = header + sizeof(ProcEntry);
  const std::size_t line_left =
      (kCacheLineSize - (kPhase + behind) % kCacheLineSize) % kCacheLineSize;
  const std::size_t window =
      window_len <= line_left ? behind : behind + line_left;
  return {.window = window,
          .next = window + (window_len + kAlign - 1) / kAlign * kAlign};
}

// The doorbells must be plain lock-free words for the cross-process futexes
// to mean anything.
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "proc channel doorbells must be address-free");
static_assert(std::is_trivially_destructible_v<ProcChannel>,
              "the channel lives in a shared mapping and is never destroyed");

// The audited layout (docs/multiprocess.md).
inline constexpr std::size_t kProcHotLine =
    offsetof(ProcChannel, call_seq) / kCacheLineSize;
static_assert(offsetof(ProcChannel, payload) / kCacheLineSize == kProcHotLine,
              "the batch header and the arena start on the hot line");
static_assert(ProcEntryLayout(0, 24).window == sizeof(ProcEntry) &&
                  (offsetof(ProcChannel, payload) + sizeof(ProcEntry) + 24 -
                   1) / kCacheLineSize == kProcHotLine,
              "the sequence words, the batch header, entry 0's header and 24 "
              "window bytes share one line");
static_assert(ProcEntryLayout(0, 25).window ==
                  (kProcHotLine + 1) * kCacheLineSize -
                      offsetof(ProcChannel, payload),
              "a longer entry-0 window starts the line after the hot line");
static_assert((offsetof(ProcChannel, payload) + 12 - 1) / kCacheLineSize ==
                  kProcHotLine,
              "payload's first 12 bytes share call_seq's line: the doorbell "
              "references of perfbench and bench_host_processes pass their "
              "arguments there");
static_assert(offsetof(ProcChannel, call_sleepers) / kCacheLineSize !=
                      kProcHotLine &&
                  offsetof(ProcChannel, return_sleepers) / kCacheLineSize !=
                      kProcHotLine &&
                  offsetof(ProcChannel, shutdown) / kCacheLineSize !=
                      kProcHotLine &&
                  offsetof(ProcChannel, payload) < 4096,
              "the read-mostly words sit on a cold line of the first page");

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
