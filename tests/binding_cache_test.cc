// Property tests for the per-thread binding validation cache
// (BindingTable::ValidateCached, docs/fast_path.md): a revoked or rebound
// binding must never be served from a stale cache entry — under
// single-thread protocols, under the cross-thread flag protocol the
// generation acquire/release pairing guarantees, and under seeded chaos
// schedules with real threads (the test suite's TSan configuration runs
// these and must stay clean).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "src/kern/binding_table.h"
#include "src/par/par_world.h"

namespace lrpc {
namespace {

constexpr DomainId kClient = 3;
constexpr DomainId kServer = 4;

BindingObject ObjectFor(BindingId id, std::uint64_t nonce) {
  BindingObject object;
  object.id = id;
  object.nonce = nonce;
  return object;
}

BindingObject ObjectFor(const BindingRecord& record) {
  return ObjectFor(record.id, record.nonce);
}

class BindingCacheTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<BindingTable> MakeTable(std::uint64_t seed = 1) {
    auto table = std::make_unique<BindingTable>(seed);
    table->set_lock_free(GetParam());
    return table;
  }
};

TEST_P(BindingCacheTest, CachedValidationMatchesFullValidation) {
  auto table = MakeTable();
  BindingRecord& record =
      table->Create(kClient, kServer, InterfaceId{0}, nullptr, false);

  const BindingObject object = ObjectFor(record);
  Result<BindingRecord*> full = table->Validate(object, kClient);
  Result<BindingRecord*> cached = table->ValidateCached(object, kClient);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*full, *cached);

  // The second cached probe skips the seqlock entirely; this thread's own
  // hit count records it.
  const std::uint64_t hits_before = BindingTable::ThreadCacheHits();
  Result<BindingRecord*> again = table->ValidateCached(object, kClient);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, &record);
  EXPECT_EQ(BindingTable::ThreadCacheHits(), hits_before + 1);

  // The failure taxonomy is identical through the cached entry point.
  EXPECT_EQ(table->ValidateCached(ObjectFor(record.id, record.nonce ^ 1),
                                  kClient)
                .code(),
            ErrorCode::kForgedBinding);
  EXPECT_EQ(table->ValidateCached(object, kClient + 1).code(),
            ErrorCode::kForgedBinding);
  EXPECT_EQ(table->ValidateCached(ObjectFor(63, record.nonce), kClient).code(),
            ErrorCode::kForgedBinding);
}

TEST_P(BindingCacheTest, RevocationIsNeverServedFromTheCache) {
  auto table = MakeTable();
  const BindingObject object = ObjectFor(
      table->Create(kClient, kServer, InterfaceId{0}, nullptr, false));
  ASSERT_TRUE(table->ValidateCached(object, kClient).ok());
  ASSERT_TRUE(table->ValidateCached(object, kClient).ok());  // Cache is hot.

  table->RevokeForDomain(kServer);
  // The very next cached validation must see the revocation: the generation
  // bump invalidates the hot entry.
  EXPECT_EQ(table->ValidateCached(object, kClient).code(),
            ErrorCode::kRevokedBinding);
  // And the refuted entry cannot revive at the same generation.
  EXPECT_EQ(table->ValidateCached(object, kClient).code(),
            ErrorCode::kRevokedBinding);
}

TEST_P(BindingCacheTest, RebindUnderANewNonceRefusesTheOldObject) {
  // A rebind after the server died is a fresh binding with its own id and
  // nonce. The cache keys on the nonce as well as the id, so the old nonce
  // must fail at either id while the new binding is hot.
  auto table = MakeTable();
  const BindingObject old_object = ObjectFor(
      table->Create(kClient, kServer, InterfaceId{0}, nullptr, false));
  ASSERT_TRUE(table->ValidateCached(old_object, kClient).ok());

  table->RevokeForDomain(kServer);
  BindingRecord& new_record =
      table->Create(kClient, kServer + 1, InterfaceId{0}, nullptr, false);
  ASSERT_NE(new_record.nonce, old_object.nonce);

  Result<BindingRecord*> fresh =
      table->ValidateCached(ObjectFor(new_record), kClient);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, &new_record);
  EXPECT_EQ(table->ValidateCached(old_object, kClient).code(),
            ErrorCode::kRevokedBinding);
  EXPECT_EQ(table->ValidateCached(ObjectFor(new_record.id, old_object.nonce),
                                  kClient)
                .code(),
            ErrorCode::kForgedBinding);
}

TEST_P(BindingCacheTest, RecreatedTableCannotAliasAnotherTablesCache) {
  // Adversarial allocator reuse: destroy a table whose entry is hot in this
  // thread's cache, then build a new table from the same seed — it may land
  // at the same address and draws the same (id, nonce) for the same client,
  // but owns a different record. The epoch-seeded generation keeps the old
  // cache entry from matching; the new table must return its own record.
  std::uint64_t first_generation = 0;
  {
    auto first = MakeTable();
    const BindingObject object = ObjectFor(
        first->Create(kClient, kServer, InterfaceId{0}, nullptr, false));
    ASSERT_TRUE(first->ValidateCached(object, kClient).ok());
    first_generation = first->generation();
  }
  for (int i = 0; i < 8; ++i) {
    auto reborn = MakeTable();
    BindingRecord& reborn_record =
        reborn->Create(kClient, kServer, InterfaceId{0}, nullptr, false);
    EXPECT_NE(reborn->generation(), first_generation);
    Result<BindingRecord*> hit =
        reborn->ValidateCached(ObjectFor(reborn_record), kClient);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(*hit, &reborn_record);
  }
}

TEST_P(BindingCacheTest, ObservedRevocationIsNeverStaleAcrossThreads) {
  // The flag protocol the generation ordering guarantees: once a thread has
  // observed a revocation by ANY means (here an acquire-loaded flag the
  // revoker set after revoking), its cached validations must fail. A stale
  // success after the flag is a memory-ordering bug, not bad luck.
  auto table = MakeTable();
  const BindingObject object = ObjectFor(
      table->Create(kClient, kServer, InterfaceId{0}, nullptr, false));

  std::atomic<bool> revoked_flag{false};
  std::atomic<bool> validated_before_flag{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<bool> validated_after_flag{false};
  // A hang guard only: each thread waits on the other's progress, never on
  // a timer, so the schedule cannot decide the outcome.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);

  std::thread observer([&] {
    while (std::chrono::steady_clock::now() < give_up) {
      const bool observed = revoked_flag.load(std::memory_order_acquire);
      Result<BindingRecord*> result = table->ValidateCached(object, kClient);
      if (observed) {
        if (result.ok()) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        validated_after_flag.store(true, std::memory_order_relaxed);
        return;
      }
      if (result.ok()) {
        // The cache now holds the live binding: the revocation must
        // invalidate a cached entry, not an empty slot.
        validated_before_flag.store(true, std::memory_order_release);
      }
    }
  });
  std::thread revoker([&] {
    while (!validated_before_flag.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    table->RevokeForDomain(kServer);
    revoked_flag.store(true, std::memory_order_release);
  });
  observer.join();
  revoker.join();

  EXPECT_TRUE(validated_before_flag.load());
  EXPECT_TRUE(validated_after_flag.load());
  EXPECT_EQ(violations.load(), 0u);
}

TEST_P(BindingCacheTest, SeededChaosRevocationScheduleNeverServesStale) {
  // Seeded chaos: worker threads hammer cached validations over a set of
  // bindings while the collector's path revokes them one by one on a seeded
  // schedule, publishing each revocation to a per-id flag after the fact.
  // Workers check the flag BEFORE validating; flagged ids must never
  // validate ok. Each binding has its own server, so revoking that server's
  // bindings revokes exactly one.
  constexpr int kBindings = 16;
  constexpr int kWorkers = 3;
  auto table = MakeTable();
  std::vector<const BindingRecord*> records;
  std::vector<BindingObject> objects;
  for (int id = 0; id < kBindings; ++id) {
    const BindingRecord& record =
        table->Create(kClient, kServer + id, InterfaceId{0}, nullptr, false);
    records.push_back(&record);
    objects.push_back(ObjectFor(record));
  }

  std::vector<std::atomic<bool>> revoked(kBindings);
  for (auto& flag : revoked) {
    flag.store(false, std::memory_order_relaxed);
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> checked{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937 rng(static_cast<unsigned>(1989 + w));
      std::uniform_int_distribution<int> pick(0, kBindings - 1);
      while (!done.load(std::memory_order_relaxed)) {
        const auto id = static_cast<std::size_t>(pick(rng));
        const bool observed = revoked[id].load(std::memory_order_acquire);
        Result<BindingRecord*> result =
            table->ValidateCached(objects[id], kClient);
        if (observed) {
          checked.fetch_add(1, std::memory_order_relaxed);
          if (result.ok()) {
            violations.fetch_add(1, std::memory_order_relaxed);
          } else if (result.code() != ErrorCode::kRevokedBinding) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (result.ok() && *result != records[id]) {
          // A success must return exactly the record registered for the id.
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::mt19937 schedule(19892026);
  std::vector<int> order(kBindings);
  for (int id = 0; id < kBindings; ++id) {
    order[static_cast<std::size_t>(id)] = id;
  }
  std::shuffle(order.begin(), order.end(), schedule);
  for (int id : order) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    table->RevokeForDomain(kServer + id);
    revoked[static_cast<std::size_t>(id)].store(true,
                                                std::memory_order_release);
  }
  // Let the workers observe the fully-revoked table for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) {
    t.join();
  }

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(checked.load(), 0u) << "chaos schedule never exercised the flag";
}

INSTANTIATE_TEST_SUITE_P(BothModes, BindingCacheTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "LockFree" : "Locked";
                         });

TEST(BindingCacheEndToEnd, RevokedBindingStopsParallelCallsImmediately) {
  // End-to-end through the runtime: workers make calls through the kernel
  // table's cached validation; the main thread revokes the binding through
  // the collector's path mid-run and raises a flag. Any call that STARTED
  // after the flag was observed must fail with kRevokedBinding — the
  // per-thread cache cannot keep a revoked binding callable.
  ParWorldOptions options;
  options.workers = 2;
  options.domains = 1;
  ParWorld world(options);
  ASSERT_NE(world.par(), nullptr);

  std::atomic<bool> revoked_flag{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> post_flag_calls{0};

  std::thread revoker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    world.kernel().bindings().RevokeForDomain(world.server_domain());
    revoked_flag.store(true, std::memory_order_release);
  });

  ParallelMachine::RunReport report = world.par()->RunWorkers(
      std::chrono::milliseconds(120), [&](int w) {
        const bool observed = revoked_flag.load(std::memory_order_acquire);
        const Status status = world.CallNull(w);
        if (observed) {
          post_flag_calls.fetch_add(1, std::memory_order_relaxed);
          if (status.code() != ErrorCode::kRevokedBinding) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Revoked calls are the expected outcome late in the run; report
        // success so the engine keeps the workers looping.
        return Status::Ok();
      });
  revoker.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(post_flag_calls.load(), 0u);
  EXPECT_GT(report.calls, 0u);
}

}  // namespace
}  // namespace lrpc
