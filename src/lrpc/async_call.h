// Async LRPC: completion objects, call pipelining and doorbell batching
// (docs/async.md).
//
// Every synchronous call pays the trap pair and the domain-transfer pair —
// 36 us of traps plus 66 us of context switches out of the 157 us Null call
// (Table 4/5) — so single-caller throughput is bounded by round-trip
// latency. An AsyncRing holds up to `depth` outstanding calls for one
// (binding, thread) pair and amortizes exactly those two costs across the
// batch, io_uring-style:
//
//   Submit  the client-stub half of one call: pop an A-stack from the
//           binding's per-group free list, marshal the arguments (copy A)
//           and *claim* the linkage record — in_use, caller recorded — but
//           do not trap. The reservation registers with the thread
//           (Thread::async_pending) so the kernel's invariant checker sees
//           every in-flight call (invariant I5).
//   Flush   the batched kernel leg: ONE trap pair, ONE Binding Object
//           validation and ONE domain-transfer pair for the whole batch;
//           per call it runs the synchronous path's phase functions
//           (src/lrpc/call.cc) — the A-stack checks, E-stack association,
//           the linkage push and pop around the server execution (so the
//           termination collector, the captured-thread escape and the call
//           watchdog all operate unchanged), and the client stub's return
//           half after the return transfer. On the multi-process backend
//           the batch crosses the shared channel behind a single futex
//           doorbell ring (ProcTransport::ExecuteBatch).
//   Reap    consumes published completions: runs callbacks, parks the rest
//           for CallFuture polling.
//
// Completions travel through a single-producer single-consumer ring whose
// publish/consume protocol (release store on the tail, acquire load by the
// consumer) is proved loss- and duplicate-free over every 2-thread
// interleaving in tests/model_check_test.cc; the differential property
// suite (tests/async_property_test.cc) proves N pipelined calls complete
// with the same results and kernel-event multiset as the same calls issued
// synchronously.

#ifndef SRC_LRPC_ASYNC_CALL_H_
#define SRC_LRPC_ASYNC_CALL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/lrpc/runtime.h"

namespace lrpc {

class AsyncRing;

// Identifies one submitted call within its ring; strictly increasing.
using CallToken = std::uint64_t;

// The completion record of one async call: everything the synchronous call
// would have returned, as a value (no resources held — the A-stack is back
// on its free list by the time a completion is published).
struct AsyncCompletion {
  CallToken token = 0;
  int procedure = -1;
  Status status;
  CallStats stats;
};

// Callback-style completion: invoked from Reap, on the reaping thread.
using AsyncCallback = std::function<void(const AsyncCompletion&)>;

// Future/poll-style completion handle. Poll() consumes any published
// completions (no submission work); Wait() flushes the ring first, so it
// completes in bounded time on the deterministic backend.
class CallFuture {
 public:
  CallFuture() = default;

  bool valid() const { return ring_ != nullptr; }
  CallToken token() const { return token_; }

  // Drains published completions into the ring's result set; true once this
  // call's completion has been observed.
  bool Poll();
  // Flush + Poll: returns the completion, driving the ring if needed.
  const AsyncCompletion& Wait(Processor& cpu);
  // The completion record; valid only after Poll()/Wait() observed it.
  const AsyncCompletion& result() const;

 private:
  friend class AsyncRing;
  CallFuture(AsyncRing* ring, CallToken token) : ring_(ring), token_(token) {}

  AsyncRing* ring_ = nullptr;
  CallToken token_ = 0;
};

class AsyncRing {
 public:
  // Depth ceiling: matches DomainConfig::estack_capacity, since every
  // in-flight call of a batch holds its own E-stack association.
  static constexpr int kMaxDepth = 16;

  // One ring per (binding, thread) pair. `depth` is clamped to
  // [1, kMaxDepth]. The binding must be local (the wire path has no batched
  // leg); remote bindings fail at Submit.
  AsyncRing(LrpcRuntime& runtime, ClientBinding& binding, ThreadId thread,
            int depth);

  AsyncRing(const AsyncRing&) = delete;
  AsyncRing& operator=(const AsyncRing&) = delete;

  ClientBinding& binding() { return binding_; }
  ThreadId thread() const { return thread_; }
  int depth() const { return depth_; }

  // Calls submitted but not yet flushed.
  int pending() const { return submit_count_; }
  // True when a Submit would return kAsyncQueueFull.
  bool full() const;

  // The submission leg (client-stub half). Argument bytes are copied into
  // the A-stack here, so `args` may die after Submit returns; every
  // CallRet destination must stay alive until the completion is reaped.
  Result<CallToken> Submit(Processor& cpu, int procedure,
                           std::span<const CallArg> args,
                           std::span<const CallRet> rets,
                           AsyncCallback callback = nullptr);

  // Submit, wrapped in a future handle.
  Result<CallFuture> SubmitFuture(Processor& cpu, int procedure,
                                  std::span<const CallArg> args,
                                  std::span<const CallRet> rets);

  // The batched kernel leg: executes every pending call and publishes their
  // completions. One trap pair and one transfer pair for the whole batch.
  void Flush(Processor& cpu);

  // Consumes published completions: invokes callbacks, parks callback-less
  // completions in results(). Returns the number consumed.
  int Reap();

  // Flush + Reap: returns when nothing is pending or published.
  void Drain(Processor& cpu);

  // Reaped, callback-less completions, in completion order.
  const std::vector<AsyncCompletion>& results() const { return results_; }
  std::vector<AsyncCompletion> TakeResults() { return std::move(results_); }
  // The reaped completion for `token`, or nullptr.
  const AsyncCompletion* Find(CallToken token) const;

  // Supervision hook (docs/supervision.md): a non-zero deadline arms the
  // kernel call watchdog around each in-flight server execution; an
  // over-deadline call is abandoned through the captured-thread escape and
  // completes kCallAborted (the ring is then poisoned — see dead()).
  void set_call_deadline(SimDuration deadline) { call_deadline_ = deadline; }

  // True once the ring's thread died (captured-thread escape, watchdog
  // abandonment): submissions fail kNoSuchThread. A replacement thread in
  // the client domain (e.g. from AbandonCapturedCall) revives the ring.
  bool dead() const { return dead_; }
  void AdoptThread(ThreadId replacement) {
    thread_ = replacement;
    dead_ = false;
  }

 private:
  // One pending (submitted, unflushed) call: the call protocol's per-call
  // state plus what the ring adds. Slots hold no heap storage beyond their
  // reserved vectors, so the submit leg stays allocation-free.
  struct Slot : LrpcRuntime::CallSlot {
    CallToken token = 0;
    std::vector<CallRet> ret_storage;  // Viewed by CallSlot::rets.
    CallStats call_stats;              // Pointed at by CallSlot::stats.
    AsyncCallback callback;
    Status status;
    // This flush's channel entry, on the multi-process backend.
    const ProcTransport::BatchCall* proc = nullptr;
    // Ended during the flush before the client stub's return half: never
    // executed, or ended in the kernel by the return leg.
    bool finished = false;
  };

  // One cell of the SPSC completion ring: the value plus the callback the
  // consumer dispatches (moved through the cell with the value, so the
  // producer's release store publishes both).
  struct CompCell {
    AsyncCompletion value;
    AsyncCallback callback;
  };

  // Publishes into the SPSC completion ring (release store on the tail).
  void PublishCompletion(Slot& slot);
  // Completions published but not yet reaped.
  std::uint32_t Unreaped() const;

  LrpcRuntime& runtime_;
  ClientBinding& binding_;
  ThreadId thread_;
  int depth_;
  SimDuration call_deadline_ = 0;
  bool dead_ = false;
  CallToken next_token_ = 0;

  std::vector<Slot> slots_;  // Fixed size depth_; [0, submit_count_) pending.
  int submit_count_ = 0;

  // SPSC completion ring (docs/async.md): the flush leg publishes at
  // comp_tail_, Reap consumes at comp_head_. Each side keeps a plain mirror
  // of its own index and reads only the other side's word atomically, so
  // the protocol needs no read-modify-write operations.
  std::vector<CompCell> comp_;  // Fixed size depth_.
  std::atomic<std::uint32_t> comp_tail_{0};
  std::atomic<std::uint32_t> comp_head_{0};
  std::uint32_t tail_mirror_ = 0;  // Producer-private copy of comp_tail_.
  std::uint32_t head_mirror_ = 0;  // Consumer-private copy of comp_head_.

  std::vector<AsyncCompletion> results_;  // Reaped, callback-less.
};

}  // namespace lrpc

#endif  // SRC_LRPC_ASYNC_CALL_H_
