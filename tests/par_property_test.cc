// Property tests for the real-thread engine (docs/concurrency.md):
//
//   - the Treiber free list and the single-lock baseline are linearizable
//     against a reference LIFO over seeded operation sequences, and
//     concurrent pops never hand the same A-stack to two claimants
//   - the kernel's binding table, in both lock modes, agrees with a plain
//     reference model over seeded populations and revocations, and a
//     racing revocation never lets a validation read a torn entry
//   - a single-worker ParallelMachine is call-for-call identical to the
//     deterministic simulator: same statuses, same results, same clock

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "src/kern/binding_table.h"
#include "src/par/par_world.h"
#include "src/shm/par_free_list.h"
#include "src/sim/fault_injector.h"

namespace lrpc {
namespace {

constexpr int kSeeds = 200;

TEST(ParFreeListProperty, SeededSequencesMatchReferenceLifo) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    Machine machine(MachineModel::CVaxFirefly(), 1);
    Processor& cpu = machine.processor(0);
    const int count = 1 + static_cast<int>(rng() % 8);
    AStackRegion region(DomainId{0}, DomainId{1}, 128, count,
                        /*secondary=*/false);

    ParFreeList lock_free("prop.lf", /*lock_free=*/true, count);
    ParFreeList locked("prop.lk", /*lock_free=*/false, count);
    std::vector<AStackRef> model;  // Reference LIFO (back = top).
    for (int i = 0; i < count; ++i) {
      lock_free.Register(AStackRef{&region, i});
      locked.Register(AStackRef{&region, i});
      model.push_back(AStackRef{&region, i});
    }

    std::vector<AStackRef> held;
    for (int op = 0; op < 64; ++op) {
      const bool push = !held.empty() && (rng() % 2 == 0);
      if (push) {
        const std::size_t pick = rng() % held.size();
        const AStackRef ref = held[pick];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        lock_free.Push(cpu, ref);
        locked.Push(cpu, ref);
        model.push_back(ref);
      } else {
        Result<AStackRef> a = lock_free.Pop(cpu);
        Result<AStackRef> b = locked.Pop(cpu);
        ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed << " op " << op;
        if (model.empty()) {
          ASSERT_EQ(a.code(), ErrorCode::kAStacksExhausted);
          ASSERT_EQ(b.code(), ErrorCode::kAStacksExhausted);
        } else {
          ASSERT_TRUE(a.ok());
          ASSERT_TRUE(*a == model.back()) << "seed " << seed << " op " << op;
          ASSERT_TRUE(*b == model.back());
          model.pop_back();
          held.push_back(*a);
        }
      }
    }

    // Same multiset free at the end, in both implementations.
    auto key = [](const AStackRef& r) { return r.index; };
    std::vector<AStackRef> lf = lock_free.Snapshot();
    std::vector<AStackRef> lk = locked.Snapshot();
    std::vector<AStackRef> md = model;
    auto by_key = [&](const AStackRef& x, const AStackRef& y) {
      return key(x) < key(y);
    };
    std::sort(lf.begin(), lf.end(), by_key);
    std::sort(lk.begin(), lk.end(), by_key);
    std::sort(md.begin(), md.end(), by_key);
    ASSERT_EQ(lf.size(), md.size()) << "seed " << seed;
    for (std::size_t i = 0; i < md.size(); ++i) {
      ASSERT_TRUE(lf[i] == md[i]) << "seed " << seed;
      ASSERT_TRUE(lk[i] == md[i]) << "seed " << seed;
    }
  }
}

TEST(ParFreeListProperty, ConcurrentPopsNeverDoubleClaim) {
  // 4 threads race to pop every node; ownership must partition the set.
  Machine machine(MachineModel::CVaxFirefly(), 4);
  constexpr int kNodes = 64;
  constexpr int kThreads = 4;
  AStackRegion region(DomainId{0}, DomainId{1}, 64, kNodes,
                      /*secondary=*/false);
  ParFreeList list("prop.race", /*lock_free=*/true, kNodes);
  for (int i = 0; i < kNodes; ++i) {
    list.Register(AStackRef{&region, i});
  }

  std::vector<std::vector<AStackRef>> claimed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Processor& cpu = machine.processor(t);
      while (true) {
        Result<AStackRef> ref = list.Pop(cpu);
        if (!ref.ok()) {
          break;
        }
        claimed[static_cast<std::size_t>(t)].push_back(*ref);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<int> seen(kNodes, 0);
  std::size_t total = 0;
  for (const auto& per_thread : claimed) {
    total += per_thread.size();
    for (const AStackRef& ref : per_thread) {
      ++seen[static_cast<std::size_t>(ref.index)];
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kNodes));
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "node " << i;
  }
  EXPECT_EQ(list.Snapshot().size(), 0u);
}

// What a binding is, with none of the table's machinery.
struct ModelBinding {
  std::uint64_t nonce = 0;
  DomainId client = kNoDomain;
  DomainId server = kNoDomain;
  bool revoked = false;
};

ErrorCode ModelVerdict(const std::vector<ModelBinding>& model,
                       const BindingObject& object, DomainId caller) {
  if (object.id < 0 || static_cast<std::size_t>(object.id) >= model.size()) {
    return ErrorCode::kForgedBinding;
  }
  const ModelBinding& m = model[static_cast<std::size_t>(object.id)];
  if (m.nonce != object.nonce || m.client != caller) {
    return ErrorCode::kForgedBinding;
  }
  return m.revoked ? ErrorCode::kRevokedBinding : ErrorCode::kOk;
}

TEST(ShardedTableProperty, SeededPopulationsAgreeWithCheckValidate) {
  // Seeded populations revoke through the collector's RevokeForDomain and
  // through injected kBindingRevocation faults. On every probe CheckValidate,
  // Validate and ValidateCached give the model's verdict, and the injection
  // point is consulted exactly once per successful validation.
  constexpr FaultKind kRevoke = FaultKind::kBindingRevocation;
  for (int seed = 0; seed < kSeeds; ++seed) {
    for (const bool lock_free : {true, false}) {
      std::mt19937 rng(static_cast<std::mt19937::result_type>(seed) + 1000);
      BindingTable table(static_cast<std::uint64_t>(seed) * 977 + 13);
      table.set_lock_free(lock_free);
      std::vector<ModelBinding> model;
      const int records = 1 + static_cast<int>(rng() % 12);
      for (int i = 0; i < records; ++i) {
        const auto client = static_cast<DomainId>(rng() % 8);
        const auto server = static_cast<DomainId>(rng() % 8);
        const BindingRecord& rec = table.Create(
            client, server, InterfaceId{0}, /*pdl=*/nullptr, /*remote=*/false);
        ASSERT_EQ(rec.id, static_cast<BindingId>(i));
        model.push_back({rec.nonce, client, server, false});
      }
      FaultInjector injector(FaultPlan::SeededRandom(0.1, {kRevoke}),
                             static_cast<std::uint64_t>(seed));
      table.set_fault_injector(&injector);

      for (int probe = 0; probe < 64; ++probe) {
        if (rng() % 16 == 0) {
          const auto victim = static_cast<DomainId>(rng() % 8);
          table.RevokeForDomain(victim);
          for (ModelBinding& m : model) {
            m.revoked |= m.client == victim || m.server == victim;
          }
        }
        const auto pick = static_cast<BindingId>(rng() % model.size());
        BindingObject object{.id = pick,
                             .nonce = model[static_cast<std::size_t>(pick)].nonce,
                             .remote = false};
        DomainId caller = model[static_cast<std::size_t>(pick)].client;
        switch (rng() % 5) {
          case 0:
            object.nonce ^= 1 + rng() % 7;  // Forged nonce.
            break;
          case 1:
            caller = static_cast<DomainId>(rng() % 8);  // Maybe wrong holder.
            break;
          case 2:
            object.id += static_cast<BindingId>(records + rng() % 64);
            break;
          default:
            break;  // Honest probe.
        }
        const ErrorCode expected = ModelVerdict(model, object, caller);
        ASSERT_EQ(table.CheckValidate(object, caller).code(), expected)
            << "seed " << seed << " probe " << probe
            << " lock_free=" << lock_free;

        const std::uint64_t hits = injector.hits(kRevoke);
        const std::uint64_t fired = injector.fired(kRevoke);
        Result<BindingRecord*> got = rng() % 2 == 0
                                         ? table.ValidateCached(object, caller)
                                         : table.Validate(object, caller);
        ASSERT_EQ(injector.hits(kRevoke),
                  hits + (expected == ErrorCode::kOk ? 1 : 0))
            << "seed " << seed << " probe " << probe;
        if (injector.fired(kRevoke) != fired) {
          // The fault revoked the binding at the instant it validated.
          ASSERT_EQ(got.code(), ErrorCode::kRevokedBinding);
          model[static_cast<std::size_t>(object.id)].revoked = true;
          continue;
        }
        ASSERT_EQ(got.code(), expected)
            << "seed " << seed << " probe " << probe
            << " lock_free=" << lock_free;
        if (got.ok()) {
          ASSERT_EQ(*got, table.Find(object.id));
        }
      }
      table.set_fault_injector(nullptr);
    }
  }
}

TEST(ShardedTableProperty, ConcurrentRevocationNeverReadsTorn) {
  // Readers race the collector's revocation path. The seqlock must never
  // let a validation observe a half-written entry: every verdict is ok or
  // revoked, never forged. Each binding has its own server, so revoking
  // one server's bindings revokes exactly one entry.
  BindingTable table(42);
  constexpr int kRecords = 32;
  constexpr DomainId kClient = 1;
  constexpr DomainId kFirstServer = 100;
  std::vector<BindingObject> objects;
  for (int i = 0; i < kRecords; ++i) {
    const BindingRecord& rec = table.Create(kClient, kFirstServer + i,
                                            InterfaceId{0}, nullptr, false);
    objects.push_back(
        BindingObject{.id = rec.id, .nonce = rec.nonce, .remote = false});
  }

  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> forged{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(7);
      while (!stop.load(std::memory_order_relaxed)) {
        const BindingObject& object = objects[rng() % objects.size()];
        // One reader goes through the per-thread cache.
        Result<BindingRecord*> got = t == 0
                                         ? table.ValidateCached(object, kClient)
                                         : table.Validate(object, kClient);
        if (!got.ok() && got.code() != ErrorCode::kRevokedBinding) {
          forged.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(table.RevokeForDomain(kFirstServer + i).size(), 1u);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(forged.load(), 0u);
  for (const BindingObject& object : objects) {
    EXPECT_EQ(table.Validate(object, kClient).code(),
              ErrorCode::kRevokedBinding);
  }
}

TEST(BackendEquivalenceProperty, SingleWorkerMatchesSimulatorCallForCall) {
  for (int seed = 0; seed < 50; ++seed) {
    ParWorldOptions par_options;
    par_options.workers = 1;
    par_options.parked = 1;
    par_options.backend = RuntimeBackend::kParallelHost;
    ParWorldOptions sim_options = par_options;
    sim_options.backend = RuntimeBackend::kDeterministicSim;
    ParWorld par(par_options);
    ParWorld sim(sim_options);

    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed) + 500);
    for (int call = 0; call < 12; ++call) {
      CallStats par_stats;
      CallStats sim_stats;
      Status par_status = Status::Ok();
      Status sim_status = Status::Ok();
      switch (rng() % 4) {
        case 0: {
          par_status = par.CallNull(0, &par_stats);
          sim_status = sim.CallNull(0, &sim_stats);
          break;
        }
        case 1: {
          const auto a = static_cast<std::int32_t>(rng());
          const auto b = static_cast<std::int32_t>(rng());
          std::int32_t par_sum = 0;
          std::int32_t sim_sum = 0;
          par_status = par.CallAdd(0, a, b, &par_sum, &par_stats);
          sim_status = sim.CallAdd(0, a, b, &sim_sum, &sim_stats);
          ASSERT_EQ(par_sum, sim_sum) << "seed " << seed;
          break;
        }
        case 2: {
          std::uint8_t data[kParBigSize];
          for (auto& byte : data) {
            byte = static_cast<std::uint8_t>(rng());
          }
          par_status = par.CallBigIn(0, data, &par_stats);
          sim_status = sim.CallBigIn(0, data, &sim_stats);
          break;
        }
        default: {
          std::uint8_t in[kParBigSize];
          std::uint8_t par_out[kParBigSize] = {};
          std::uint8_t sim_out[kParBigSize] = {};
          for (auto& byte : in) {
            byte = static_cast<std::uint8_t>(rng());
          }
          par_status = par.CallBigInOut(0, in, par_out, &par_stats);
          sim_status = sim.CallBigInOut(0, in, sim_out, &sim_stats);
          for (std::size_t i = 0; i < kParBigSize; ++i) {
            ASSERT_EQ(par_out[i], sim_out[i]) << "seed " << seed;
          }
          break;
        }
      }
      ASSERT_EQ(par_status.code(), sim_status.code())
          << "seed " << seed << " call " << call;
      ASSERT_EQ(par_stats.exchanged_on_call, sim_stats.exchanged_on_call)
          << "seed " << seed << " call " << call;
      ASSERT_EQ(par_stats.astack_bytes, sim_stats.astack_bytes);
      ASSERT_EQ(par.machine().processor(0).clock(),
                sim.machine().processor(0).clock())
          << "seed " << seed << " call " << call
          << ": the engines' cost accounting diverged";
    }
    ASSERT_EQ(par.server_calls_seen(), sim.server_calls_seen());
    ASSERT_TRUE(par.par()->AuditConservation().ok());
  }
}

}  // namespace
}  // namespace lrpc
