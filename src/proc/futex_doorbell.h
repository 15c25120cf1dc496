// FutexDoorbell: the cross-process wakeup primitive of the multi-process
// backend (docs/multiprocess.md).
//
// A doorbell is a 32-bit sequence word in a MAP_SHARED segment paired with
// a sleepers count in the same segment. The sender advances the word and
// wakes sleepers only when the count says someone is actually in the kernel
// — a partner still in its poll window costs the sender nothing. The
// receiver polls briefly (yielding on a single processor, pausing on SMP —
// Section 3.4's idle processor "caching the domain"), then announces itself
// in the sleepers count and futex-sleeps. The futex operations are the
// non-PRIVATE forms — waiter and waker are different processes sharing the
// mapping — and every wait is bounded, so a dead peer can never strand a
// sleeper (the caller's liveness checks run between slices).

#ifndef SRC_PROC_FUTEX_DOORBELL_H_
#define SRC_PROC_FUTEX_DOORBELL_H_

#include <atomic>
#include <cstdint>

namespace lrpc {

class FutexDoorbell {
 public:
  // Wakes every process sleeping on `word`, if `sleepers` says there is
  // one. The caller must have advanced `word` with a seq_cst RMW before
  // calling: the elision handshake is seq_cst on both sides, so a waiter
  // that slipped past the poll window is never missed.
  static void Wake(std::atomic<std::uint32_t>* word,
                   std::atomic<std::uint32_t>* sleepers);

  // Polls, then sleeps until *word != seen or ~timeout_ms elapsed,
  // whichever is first; returns the freshly-loaded value (acquire).
  // Spurious returns are fine: callers loop on the value, re-checking peer
  // liveness per slice.
  static std::uint32_t WaitWhile(std::atomic<std::uint32_t>* word,
                                 std::atomic<std::uint32_t>* sleepers,
                                 std::uint32_t seen, int timeout_ms);
};

}  // namespace lrpc

#endif  // SRC_PROC_FUTEX_DOORBELL_H_
