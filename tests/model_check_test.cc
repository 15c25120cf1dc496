// Exhaustive small-scope checks of the two protocols whose correctness
// arguments live in comments: the CircuitBreaker half-open epoch
// (src/lrpc/circuit_breaker.h — "only the CAS winner publishes the
// epoch's probe budget") and the ValidateCached seqlock + generation
// protocol (src/kern/binding_table.cc — "a stale success can
// never be cached under a newer generation than the validation actually
// observed"). Each protocol is modeled step-for-step against the real
// code, every 2- and 3-thread interleaving is enumerated, and — because a
// checker that cannot find bugs proves nothing — each model is paired
// with a deliberately broken variant (the exact orderings the source
// comments defend against) that the checker must catch.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/common/model_check.h"

namespace lrpc {
namespace model {
namespace {

// --- Scheduler exhaustiveness on straight-line threads ---

struct CounterState {
  int a = 0;
  int b = 0;
  int c = 0;
  bool operator==(const CounterState&) const = default;
};

ModelThread<CounterState> Incrementer(const std::string& name,
                                      int CounterState::* field,
                                      int steps) {
  ModelThread<CounterState> thread;
  thread.name = name;
  for (int i = 0; i < steps; ++i) {
    const bool last = i + 1 == steps;
    thread.steps.push_back([field, i, last](CounterState& s) {
      ++(s.*field);
      return last ? kDone : i + 1;
    });
  }
  return thread;
}

TEST(Explorer, EnumeratesEveryTwoThreadInterleaving) {
  // Two straight-line threads of 2 steps interleave in C(4,2) = 6 ways.
  Explorer<CounterState> explorer({Incrementer("a", &CounterState::a, 2),
                                   Incrementer("b", &CounterState::b, 2)});
  explorer.set_terminal_check(
      [](const CounterState& s) { return s.a == 2 && s.b == 2; });
  const ExploreStats stats = explorer.Run(CounterState{});
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_EQ(stats.schedules, InterleavingCount(2, 2));
  EXPECT_EQ(stats.schedules, 6u);
  EXPECT_EQ(stats.max_depth_seen, 4);
}

TEST(Explorer, EnumeratesEveryThreeThreadInterleaving) {
  // 6! / (2! 2! 2!) = 90 interleavings of three 2-step threads.
  Explorer<CounterState> explorer({Incrementer("a", &CounterState::a, 2),
                                   Incrementer("b", &CounterState::b, 2),
                                   Incrementer("c", &CounterState::c, 2)});
  const ExploreStats stats = explorer.Run(CounterState{});
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.schedules, 90u);
}

TEST(Explorer, ReportsAFailingScheduleAsATrace) {
  Explorer<CounterState> explorer({Incrementer("a", &CounterState::a, 1),
                                   Incrementer("b", &CounterState::b, 1)});
  // Fails exactly when b runs before a.
  explorer.set_invariant(
      [](const CounterState& s) { return !(s.b == 1 && s.a == 0); });
  const ExploreStats stats = explorer.Run(CounterState{});
  EXPECT_EQ(stats.failures, 1u);
  ASSERT_EQ(stats.failure_traces.size(), 1u);
  EXPECT_NE(stats.failure_traces[0].find("b/0"), std::string::npos);
}

TEST(Explorer, PrunesSpinStepsThatChangeNothing) {
  // A reader that re-polls a flag spins in place until the writer flips
  // it; without no-op pruning this model would be infinite.
  struct SpinState {
    bool flag = false;
    bool saw = false;
    bool operator==(const SpinState&) const = default;
  };
  ModelThread<SpinState> writer{
      "writer", {[](SpinState& s) {
        s.flag = true;
        return kDone;
      }}};
  ModelThread<SpinState> spinner{
      "spinner", {[](SpinState& s) {
        if (!s.flag) {
          return 0;  // Re-poll: pruned while nothing changed.
        }
        s.saw = true;
        return kDone;
      }}};
  Explorer<SpinState> explorer({writer, spinner});
  explorer.set_terminal_check([](const SpinState& s) { return s.saw; });
  const ExploreStats stats = explorer.Run(SpinState{});
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_GT(stats.pruned_noops, 0u);
}

// --- CircuitBreaker: the half-open probe-budget epoch ---
//
// Mirrors CircuitBreaker::AllowCall step-for-step from the open state
// with the cooldown elapsed: load state; CAS open -> half-open; the
// winner (and in the correct protocol, ONLY the winner) publishes the
// probe budget; every admitter claims a probe by CAS decrement. The
// property: however 2 or 3 callers interleave, at most probe_budget
// calls are admitted in the epoch.

enum BreakerStateKind { kClosed, kOpen, kHalfOpen };

constexpr int kMaxCallers = 3;

struct BreakerModel {
  int state = kOpen;
  int probes_left = 0;  // Guaranteed zero on entry to kOpen.
  int budget = 1;
  int admitted = 0;
  int rejected = 0;
  // Per-caller locals (survive between steps).
  int seen[kMaxCallers] = {};
  int probes[kMaxCallers] = {};
  bool operator==(const BreakerModel&) const = default;
};

// Step indices for a caller thread.
enum : int {
  kLoadState = 0,
  kCasHalfOpen,
  kPublishBudget,
  kLoadProbes,
  kClaimProbe,
};

ModelThread<BreakerModel> Caller(int id, bool budget_before_cas) {
  ModelThread<BreakerModel> t;
  t.name = "caller" + std::to_string(id);
  t.steps.resize(5);
  t.steps[kLoadState] = [id, budget_before_cas](BreakerModel& m) {
    m.seen[id] = m.state;
    if (m.seen[id] == kClosed) {
      ++m.admitted;
      return kDone;
    }
    if (m.seen[id] == kHalfOpen) {
      return static_cast<int>(kLoadProbes);
    }
    // Open, cooldown elapsed: race for the half-open transition. The
    // broken variant publishes the budget BEFORE the CAS — the ordering
    // the comment in AllowCall rejects, because a CAS loser then re-arms
    // probes a faster thread already spent.
    return static_cast<int>(budget_before_cas ? kPublishBudget
                                              : kCasHalfOpen);
  };
  t.steps[kCasHalfOpen] = [id, budget_before_cas](BreakerModel& m) {
    if (m.state == m.seen[id]) {  // Expected kOpen: the CAS wins.
      m.state = kHalfOpen;
      m.seen[id] = kHalfOpen;
      return static_cast<int>(budget_before_cas ? kLoadProbes
                                                : kPublishBudget);
    }
    m.seen[id] = m.state;  // Failed CAS hands back the rival's state.
    if (m.seen[id] == kClosed) {
      ++m.admitted;
      return kDone;
    }
    if (m.seen[id] != kHalfOpen) {
      ++m.rejected;
      return kDone;
    }
    return static_cast<int>(kLoadProbes);
  };
  t.steps[kPublishBudget] = [budget_before_cas](BreakerModel& m) {
    m.probes_left = m.budget;
    return static_cast<int>(budget_before_cas ? kCasHalfOpen : kLoadProbes);
  };
  t.steps[kLoadProbes] = [id](BreakerModel& m) {
    m.probes[id] = m.probes_left;
    return static_cast<int>(kClaimProbe);
  };
  t.steps[kClaimProbe] = [id](BreakerModel& m) {
    if (m.probes[id] <= 0) {
      ++m.rejected;  // Budget spent (or not yet published): fail fast.
      return kDone;
    }
    if (m.probes_left == m.probes[id]) {  // The decrement CAS wins.
      --m.probes_left;
      ++m.admitted;
      return kDone;
    }
    m.probes[id] = m.probes_left;  // Lost the race: retry off the reload.
    return static_cast<int>(kClaimProbe);
  };
  return t;
}

ExploreStats CheckBreaker(int callers, int budget, bool budget_before_cas) {
  std::vector<ModelThread<BreakerModel>> threads;
  for (int i = 0; i < callers; ++i) {
    threads.push_back(Caller(i, budget_before_cas));
  }
  Explorer<BreakerModel> explorer(std::move(threads));
  BreakerModel initial;
  initial.budget = budget;
  explorer.set_invariant(
      [budget](const BreakerModel& m) { return m.admitted <= budget; });
  explorer.set_terminal_check([callers](const BreakerModel& m) {
    // Every caller resolves one way or the other: no admission lost.
    return m.admitted + m.rejected == callers;
  });
  return explorer.Run(initial);
}

TEST(BreakerEpochModel, TwoCallersNeverOverspendTheBudget) {
  const ExploreStats stats = CheckBreaker(2, 1, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // At least every interleaving of two straight-line 5-step threads is
  // covered (branching only adds schedules beyond this floor).
  EXPECT_GE(stats.schedules, InterleavingCount(4, 4));
}

TEST(BreakerEpochModel, ThreeCallersNeverOverspendTheBudget) {
  const ExploreStats stats = CheckBreaker(3, 1, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_GT(stats.schedules, 1000u);
}

TEST(BreakerEpochModel, ThreeCallersRespectALargerBudget) {
  const ExploreStats stats = CheckBreaker(3, 2, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
}

TEST(BreakerEpochModel, PublishingBudgetBeforeTheCasIsCaught) {
  // The rejected ordering: a CAS loser re-arms the budget the winner's
  // epoch already spent, and two probes are admitted against budget 1.
  const ExploreStats stats = CheckBreaker(2, 1, true);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

// --- ValidateCached: the seqlock + generation cache protocol ---
//
// Mirrors BindingTable: a reader runs ValidateCached twice (the first call
// seeds its thread-local cache, the second is the probe under attack)
// while a revoker runs the writer's Publish (seq odd, revoked store, seq
// even, then the generation bump). The property: once the revoke has completed,
// no later call may return "valid" — neither from a cache hit nor from a
// fresh seqlock read. Two broken variants must be caught: bumping the
// generation before the entry update (the ordering Publish's comment
// defends), and tagging the cache with a generation re-loaded AFTER the
// validation instead of the probe value (the ordering ValidateCached's
// comment defends).

struct SeqlockModel {
  // The shared entry and generation word.
  std::uint64_t seq = 2;  // Published: even, nonzero.
  bool revoked = false;
  std::uint64_t generation = 1;
  bool revoke_done = false;
  // The reader's thread-local cache.
  bool cache_valid = false;
  std::uint64_t cache_gen = 0;
  // The reader's per-call locals.
  std::uint64_t r_gen = 0;
  std::uint64_t r_s1 = 0;
  bool r_revoked = false;
  bool started_after_revoke = false;
  int calls_left = 2;
  // The verdict of the last completed call.
  bool last_ok = false;
  bool last_started_after_revoke = false;
  bool operator==(const SeqlockModel&) const = default;
};

enum : int {
  kGenProbe = 0,
  kReadSeq,
  kReadFields,
  kRecheckSeq,
  kConclude,
};

// `stale_cache_tag`: the broken variant that re-loads the generation at
// fill time instead of tagging with the pre-validation probe.
ModelThread<SeqlockModel> Reader(bool stale_cache_tag) {
  ModelThread<SeqlockModel> t;
  t.name = "reader";
  t.steps.resize(5);
  t.steps[kGenProbe] = [](SeqlockModel& m) {
    m.r_gen = m.generation;
    m.started_after_revoke = m.revoke_done;
    if (m.cache_valid && m.cache_gen == m.r_gen) {
      // Cache hit: the call answers without touching the seqlock. A
      // cached entry always recorded a successful validation.
      m.last_ok = true;
      m.last_started_after_revoke = m.started_after_revoke;
      --m.calls_left;
      return m.calls_left > 0 ? static_cast<int>(kGenProbe) : kDone;
    }
    return static_cast<int>(kReadSeq);
  };
  t.steps[kReadSeq] = [](SeqlockModel& m) {
    m.r_s1 = m.seq;
    if ((m.r_s1 & 1) != 0) {
      return static_cast<int>(kReadSeq);  // Mid-update: spin (pruned).
    }
    return static_cast<int>(kReadFields);
  };
  t.steps[kReadFields] = [](SeqlockModel& m) {
    m.r_revoked = m.revoked;
    return static_cast<int>(kRecheckSeq);
  };
  t.steps[kRecheckSeq] = [](SeqlockModel& m) {
    if (m.seq != m.r_s1) {
      return static_cast<int>(kReadSeq);  // Torn read: go around again.
    }
    return static_cast<int>(kConclude);
  };
  t.steps[kConclude] = [stale_cache_tag](SeqlockModel& m) {
    m.last_ok = !m.r_revoked;
    m.last_started_after_revoke = m.started_after_revoke;
    if (!m.r_revoked) {
      m.cache_valid = true;
      // The correct protocol tags with the generation loaded BEFORE the
      // validation; the broken one re-loads, letting a concurrent bump
      // launder a stale validation under the new generation.
      m.cache_gen = stale_cache_tag ? m.generation : m.r_gen;
    } else {
      m.cache_valid = false;  // Drop the refuted entry.
    }
    --m.calls_left;
    return m.calls_left > 0 ? static_cast<int>(kGenProbe) : kDone;
  };
  return t;
}

// `bump_first`: the broken variant that bumps the generation before the
// seqlock write instead of after it.
ModelThread<SeqlockModel> Revoker(bool bump_first) {
  ModelThread<SeqlockModel> t;
  t.name = "revoker";
  auto bump = [](SeqlockModel& m) { ++m.generation; };
  if (bump_first) {
    t.steps.push_back([bump](SeqlockModel& m) {
      bump(m);
      return 1;
    });
  }
  const int base = static_cast<int>(t.steps.size());
  t.steps.push_back([base](SeqlockModel& m) {
    ++m.seq;  // Odd: readers retry.
    return base + 1;
  });
  t.steps.push_back([base](SeqlockModel& m) {
    m.revoked = true;
    return base + 2;
  });
  t.steps.push_back([base, bump_first](SeqlockModel& m) {
    ++m.seq;  // Even again: entry republished.
    if (bump_first) {
      m.revoke_done = true;
      return kDone;
    }
    return base + 3;
  });
  if (!bump_first) {
    t.steps.push_back([bump](SeqlockModel& m) {
      bump(m);  // The bump FOLLOWS the entry update.
      m.revoke_done = true;
      return kDone;
    });
  }
  return t;
}

ExploreStats CheckSeqlock(bool bump_first, bool stale_cache_tag) {
  Explorer<SeqlockModel> explorer(
      {Reader(stale_cache_tag), Revoker(bump_first)});
  explorer.set_terminal_check([](const SeqlockModel& m) {
    // No stale validation survives the bump: a call that began after the
    // revoke completed must have seen the revocation.
    return !(m.last_started_after_revoke && m.last_ok);
  });
  return explorer.Run(SeqlockModel{});
}

TEST(SeqlockCacheModel, RevokeIsNeverMissedAfterItCompletes) {
  const ExploreStats stats = CheckSeqlock(false, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // Floor: the interleavings of the revoker's 4 steps with one 5-step
  // reader call (retries and the second call only add schedules).
  EXPECT_GE(stats.schedules, InterleavingCount(4, 5));
}

TEST(SeqlockCacheModel, BumpingGenerationBeforeTheEntryIsCaught) {
  // Reader validates the pre-revoke entry but tags it with the already
  // bumped generation; its next call cache-hits a revoked binding.
  const ExploreStats stats = CheckSeqlock(true, false);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("terminal check failed"),
            std::string::npos);
}

TEST(SeqlockCacheModel, ReloadingTheGenerationAtFillTimeIsCaught) {
  // Even with the CORRECT revoker, tagging the cache with a generation
  // re-loaded after validation lets the bump land between the two and
  // launder the stale entry under the new generation.
  const ExploreStats stats = CheckSeqlock(false, true);
  EXPECT_FALSE(stats.ok());
}

TEST(SeqlockCacheModel, ThreeThreadsTwoReadersStayConsistent) {
  // Two independent readers (locals duplicated via a second state copy
  // would complicate the model; instead reuse the revoker window with a
  // reader and a second revoker-observer running Validate once). Model
  // one reader against a revoker plus a bumper that adds an unrelated
  // generation bump — the cache must not hit across EITHER bump with a
  // stale verdict.
  ModelThread<SeqlockModel> bumper{
      "bumper", {[](SeqlockModel& m) {
        ++m.generation;  // An unrelated mutation elsewhere in the table.
        return kDone;
      }}};
  Explorer<SeqlockModel> explorer(
      {Reader(false), Revoker(false), bumper});
  explorer.set_terminal_check([](const SeqlockModel& m) {
    return !(m.last_started_after_revoke && m.last_ok);
  });
  const ExploreStats stats = explorer.Run(SeqlockModel{});
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_GT(stats.schedules, 1000u);
}

// --- AsyncRing's SPSC completion ring: the publish/consume protocol ---
//
// Mirrors src/lrpc/async_call.cc: PublishCompletion writes the cell, then
// release-stores the new tail; Reap acquire-loads the tail and consumes
// cells up to it, release-storing the head behind itself; the Submit gate
// bounds unreaped completions at the ring's depth, so the producer never
// laps the consumer. In the model each publish is two steps — cell write,
// tail store — because the release/acquire pair is exactly the guarantee
// that the consumer observes them in that order. The property: however
// the two threads interleave, the consumer reaps every published value,
// exactly once, in publication order — no completion lost, none fired
// twice, none read before its cell is written. The broken variant
// publishes the tail BEFORE the cell write — the reordering a relaxed
// store on comp_tail_ would permit — and the checker must catch the
// consumer reaping an unwritten cell.

constexpr int kRingDepth = 2;
constexpr int kRingValues = 3;  // > depth: the ring wraps.

struct RingModel {
  int cells[kRingDepth] = {};
  int tail = 0;  // comp_tail_: published count.
  int head = 0;  // comp_head_: consumed count.
  int consumed[kRingValues] = {};
  int consumed_count = 0;
  bool operator==(const RingModel&) const = default;
};

ModelThread<RingModel> RingProducer(bool tail_before_write) {
  ModelThread<RingModel> t;
  t.name = "flush";
  for (int v = 1; v <= kRingValues; ++v) {
    const int base = static_cast<int>(t.steps.size());
    const bool last = v == kRingValues;
    if (!tail_before_write) {
      // Correct order: cell write, then the tail publish (the release
      // store). The full-ring guard is the Submit gate.
      t.steps.push_back([v, base](RingModel& m) {
        if (m.tail - m.head == kRingDepth) {
          return base;  // Ring full: wait for the reaper (pruned spin).
        }
        m.cells[m.tail % kRingDepth] = v;
        return base + 1;
      });
      t.steps.push_back([last, base](RingModel& m) {
        ++m.tail;
        return last ? kDone : base + 2;
      });
    } else {
      // The rejected order: the tail becomes visible while the cell still
      // holds its previous contents.
      t.steps.push_back([base](RingModel& m) {
        if (m.tail - m.head == kRingDepth) {
          return base;
        }
        ++m.tail;
        return base + 1;
      });
      t.steps.push_back([v, last, base](RingModel& m) {
        m.cells[(m.tail - 1) % kRingDepth] = v;
        return last ? kDone : base + 2;
      });
    }
  }
  return t;
}

ModelThread<RingModel> RingConsumer() {
  ModelThread<RingModel> t;
  t.name = "reap";
  t.steps.push_back([](RingModel& m) {
    if (m.head == m.tail) {
      if (m.consumed_count == kRingValues) {
        return kDone;
      }
      return 0;  // Nothing published yet: re-poll (pruned spin).
    }
    m.consumed[m.consumed_count] = m.cells[m.head % kRingDepth];
    ++m.consumed_count;
    ++m.head;  // Frees the cell for the producer.
    return 0;
  });
  return t;
}

ExploreStats CheckCompletionRing(bool tail_before_write) {
  Explorer<RingModel> explorer(
      {RingProducer(tail_before_write), RingConsumer()});
  explorer.set_invariant([](const RingModel& m) {
    // Publication order, no loss, no double fire, no unwritten reads:
    // the consumed prefix must be exactly 1, 2, ..., consumed_count.
    for (int i = 0; i < m.consumed_count; ++i) {
      if (m.consumed[i] != i + 1) {
        return false;
      }
    }
    return true;
  });
  explorer.set_terminal_check([](const RingModel& m) {
    return m.consumed_count == kRingValues && m.head == m.tail;
  });
  return explorer.Run(RingModel{});
}

TEST(CompletionRingModel, EveryCompletionReapedOnceInOrder) {
  const ExploreStats stats = CheckCompletionRing(false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // No-op pruning collapses every consumer poll that observes nothing, so
  // the distinct schedules are few — but they cover every point at which
  // the reaper can overtake the flush, including the full-ring wait and
  // the wrap. The broken-variant test below proves the space is still
  // discriminating.
  EXPECT_GT(stats.schedules, 1u);
  EXPECT_GT(stats.pruned_noops, 0u);
}

TEST(CompletionRingModel, PublishingTailBeforeTheCellIsCaught) {
  // The consumer reaps a cell whose write has not landed: with the tail
  // visible first, the very first reap can read cell 0 still holding its
  // initial contents (and after the wrap, the previous completion —
  // a double fire of one value and the loss of another).
  const ExploreStats stats = CheckCompletionRing(true);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

}  // namespace
}  // namespace model
}  // namespace lrpc
