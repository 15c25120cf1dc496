// Threads and thread control blocks.
//
// LRPC deals in *concrete* threads: the client's own thread is dispatched
// into the server's domain, so one concrete thread can be deep in several
// domains at once. The TCB therefore carries a stack of linkage references
// (Section 3.2, footnote 3) — one per outstanding cross-domain call — that
// the return path pops, and that the termination collector (Section 5.3)
// walks to deliver call-failed exceptions.
//
// On the real-thread engine each worker drives its own Thread on every
// call (its current domain, user stack pointer, linkage stack and claim
// counter), so a Thread owns its cache lines outright: two workers' TCBs
// never share one (docs/fast_path.md layout audit).

#ifndef SRC_KERN_THREAD_H_
#define SRC_KERN_THREAD_H_

#include <cstdint>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/ids.h"
#include "src/shm/astack.h"

namespace lrpc {

enum class ThreadState : std::uint8_t {
  kReady,
  kRunning,
  kBlocked,    // Waiting on a message rendezvous (baseline RPC only).
  kStopped,    // Frozen by the termination collector.
  kDead,
};

// Exceptions raised into a caller by the uncommon-case machinery.
enum class ThreadException : std::uint8_t {
  kNone,
  kCallFailed,   // Server domain terminated while the call was outstanding.
  kCallAborted,  // The client abandoned this (captured) thread's call.
};

class LRPC_CACHELINE_ALIGNED Thread {
 public:
  Thread(ThreadId id, DomainId home) : id_(id), home_(home), current_(home) {}

  ThreadId id() const { return id_; }
  DomainId home_domain() const { return home_; }

  // The domain the thread is currently executing in.
  DomainId current_domain() const { return current_; }
  void set_current_domain(DomainId d) { current_ = d; }

  ThreadState state() const { return state_; }
  void set_state(ThreadState s) { state_ = s; }

  ThreadException pending_exception() const { return pending_exception_; }
  void set_pending_exception(ThreadException e) { pending_exception_ = e; }
  // Returns and clears the pending exception.
  ThreadException TakeException() {
    const ThreadException e = pending_exception_;
    pending_exception_ = ThreadException::kNone;
    return e;
  }

  // --- Linkage stack (kernel-only). ---
  // The stack of outstanding cross-domain calls this thread is involved in;
  // the top entry is the call currently executing.
  void PushLinkage(AStackRef ref) { linkage_stack_.push_back(ref); }
  AStackRef PopLinkage() {
    const AStackRef top = linkage_stack_.back();
    linkage_stack_.pop_back();
    return top;
  }
  bool HasLinkages() const { return !linkage_stack_.empty(); }
  const std::vector<AStackRef>& linkage_stack() const { return linkage_stack_; }
  std::vector<AStackRef>& linkage_stack() { return linkage_stack_; }
  // This thread's claim order, stamped into LinkageRecord::seq when a call
  // pushes a linkage. The invariant checker compares seq values only within
  // one thread's stack, so a per-thread count is enough, and concurrent
  // callers draw theirs without touching a shared line.
  std::uint64_t NextLinkageSeq() { return ++linkage_seq_; }

  // --- Async in-flight linkages (kernel-only; docs/async.md). ---
  // A-stack/linkage pairs an AsyncRing claimed for this thread but has not
  // yet pushed: the submit leg reserves the pair (in_use, caller recorded)
  // and registers it here, so the kernel and the invariant checker can see
  // every in-flight call even though only the one currently executing sits
  // on the linkage stack. The flush leg moves each entry from this set onto
  // the stack (one at a time) for the duration of its server execution.
  void RegisterAsyncPending(AStackRef ref) { async_pending_.push_back(ref); }
  void UnregisterAsyncPending(const AStackRef& ref) {
    for (auto it = async_pending_.begin(); it != async_pending_.end(); ++it) {
      if (*it == ref) {
        async_pending_.erase(it);
        return;
      }
    }
  }
  const std::vector<AStackRef>& async_pending() const { return async_pending_; }

  // Simulated user stack pointer; repointed at the server's E-stack during
  // a call and restored from the linkage on return.
  std::uint64_t user_sp() const { return user_sp_; }
  void set_user_sp(std::uint64_t sp) { user_sp_ = sp; }

  // A thread is "captured" when its client domain abandoned it while a
  // server held it (Section 5.3); it is destroyed in the kernel on release.
  bool captured() const { return captured_; }
  void set_captured(bool c) { captured_ = c; }

  // The Taos alert mechanism (Section 5.3): "one thread [may] signal
  // another, but the notified thread may choose to ignore the alert."
  // Alerts are advisory: nothing in the kernel acts on them; a server
  // procedure may poll and return early — or not.
  void Alert() { alerted_ = true; }
  bool alerted() const { return alerted_; }
  bool TakeAlert() {
    const bool was = alerted_;
    alerted_ = false;
    return was;
  }

 private:
  ThreadId id_;
  DomainId home_;
  DomainId current_;
  ThreadState state_ = ThreadState::kReady;
  ThreadException pending_exception_ = ThreadException::kNone;
  std::vector<AStackRef> linkage_stack_;
  std::uint64_t linkage_seq_ = 0;
  std::vector<AStackRef> async_pending_;
  std::uint64_t user_sp_ = 0;
  bool captured_ = false;
  bool alerted_ = false;
};

}  // namespace lrpc

#endif  // SRC_KERN_THREAD_H_
