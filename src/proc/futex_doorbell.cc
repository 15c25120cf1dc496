#include "src/proc/futex_doorbell.h"

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

namespace lrpc {

namespace {

long Futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t value,
           const struct timespec* timeout) {
  // The non-PRIVATE ops: the word is shared across address spaces.
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, value,
                 timeout, nullptr, 0);
}

// True when this host has more than one processor: the poll phase pause-
// spins (the partner can be running right now); on a single processor
// spinning only delays the partner, so the poll yields the slice instead.
bool MultiProcessor() {
  static const bool multi = sysconf(_SC_NPROCESSORS_ONLN) > 1;
  return multi;
}

// Poll budget before announcing in the sleepers count and futex-sleeping.
// On SMP a ping-pong partner answering within a few microseconds is caught
// spinning; on one processor a bounded run of yields hands the slice to
// the partner directly (a yield round trip is cheaper than a futex one).
constexpr int kSpinIterations = 4096;
constexpr int kYieldIterations = 128;

}  // namespace

void FutexDoorbell::Wake(std::atomic<std::uint32_t>* word,
                         std::atomic<std::uint32_t>* sleepers) {
  // The Dekker handshake with WaitWhile: the caller's seq_cst word advance
  // and this seq_cst sleepers read are ordered against the waiter's seq_cst
  // sleepers increment and word re-check, so one side or the other always
  // sees the rendezvous. (No fence: gcc's TSan rejects
  // atomic_thread_fence.) A caller that advances with a weaker RMW still
  // gets a full barrier on x86, where every RMW is a locked instruction;
  // elsewhere a missed wake costs at most one bounded WaitWhile slice.
  if (sleepers->load(std::memory_order_seq_cst) == 0) {
    return;  // Partner is polling; it will see the word move.
  }
  Futex(word, FUTEX_WAKE, INT_MAX, nullptr);
}

std::uint32_t FutexDoorbell::WaitWhile(std::atomic<std::uint32_t>* word,
                                       std::atomic<std::uint32_t>* sleepers,
                                       std::uint32_t seen, int timeout_ms) {
  // Poll phase — Section 3.4's idle processor caching the domain.
  if (MultiProcessor()) {
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      const std::uint32_t now = word->load(std::memory_order_acquire);
      if (now != seen) {
        return now;
      }
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  } else {
    for (int spin = 0; spin < kYieldIterations; ++spin) {
      const std::uint32_t now = word->load(std::memory_order_acquire);
      if (now != seen) {
        return now;
      }
      sched_yield();
    }
  }

  // Announce, re-check, sleep: both seq_cst, pairing with Wake's, so a
  // ring that lands between our last poll and the futex call either sees
  // our announcement (and wakes) or moved the word before our re-check.
  sleepers->fetch_add(1, std::memory_order_seq_cst);
  std::uint32_t now = word->load(std::memory_order_seq_cst);
  if (now == seen) {
    struct timespec ts;
    ts.tv_sec = timeout_ms / 1000;
    ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
    // EAGAIN (word moved), EINTR and ETIMEDOUT all mean "reload and let
    // the caller decide"; the doorbell makes no completion promise.
    Futex(word, FUTEX_WAIT, seen, &ts);
    now = word->load(std::memory_order_acquire);
  }
  sleepers->fetch_sub(1, std::memory_order_acq_rel);
  return now;
}

}  // namespace lrpc
