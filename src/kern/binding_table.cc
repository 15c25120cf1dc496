#include "src/kern/binding_table.h"

#include <bit>

#include "src/common/fast_path.h"

namespace lrpc {

namespace {

// The per-thread binding/validation cache (docs/fast_path.md): a small
// direct-mapped cache of fully-validated (binding, caller) pairs, tagged
// with the table generation current when the full validation ran. Strictly
// thread-private, so probes and fills need no synchronization of their own;
// the generation tag carries all cross-thread invalidation.
struct CachedValidation {
  const void* table = nullptr;  // Which table the entry came from.
  std::uint64_t generation = 0;
  BindingId id = kNoBinding;
  std::uint64_t nonce = 0;
  DomainId client = kNoDomain;
  BindingRecord* record = nullptr;
};

constexpr std::size_t kBindingCacheWays = 8;  // Power of two (index mask).

thread_local CachedValidation tls_binding_cache[kBindingCacheWays];

CachedValidation& CacheSlotFor(BindingId id) {
  return tls_binding_cache[static_cast<std::size_t>(
      static_cast<std::uint64_t>(id) & (kBindingCacheWays - 1))];
}

}  // namespace

BindingTable::BindingTable(std::uint64_t seed) : rng_(seed) {
  // Seed the generation from a process-wide epoch so a table constructed at
  // a freed table's address can never match a thread's cached entries from
  // the old instance (the cache keys on the table pointer + generation).
  static std::atomic<std::uint64_t> table_epoch{1};
  generation_.store(table_epoch.fetch_add(std::uint64_t{1} << 32,
                                          // LRPC_MO(unique-id)
                                          std::memory_order_relaxed),
                    std::memory_order_relaxed);  // LRPC_MO(setup-single-thread)
}

BindingTable::~BindingTable() {
  for (std::atomic<Entry*>& chunk : chunks_) {
    delete[] chunk.load(std::memory_order_acquire);
  }
}

int BindingTable::ChunkOf(BindingId id) {
  return std::bit_width(static_cast<std::uint64_t>(id) / kFirstChunk + 1) - 1;
}

BindingTable::Entry* BindingTable::EntryAt(BindingId id) const {
  if (id < 0) {
    return nullptr;
  }
  const int chunk = ChunkOf(id);
  Entry* entries = chunks_[chunk].load(std::memory_order_acquire);
  if (entries == nullptr) {
    return nullptr;
  }
  return &entries[static_cast<std::uint64_t>(id) -
                  kFirstChunk * ((std::uint64_t{1} << chunk) - 1)];
}

BindingRecord& BindingTable::Create(DomainId client, DomainId server,
                                    InterfaceId interface_id, const void* pdl,
                                    bool remote) {
  MutexLock lock(writer_mutex_);
  auto record = std::make_unique<BindingRecord>();
  record->id = static_cast<BindingId>(records_.size());
  // A zero nonce would make a zero-initialized forgery valid; draw again.
  do {
    record->nonce = rng_.Next();
  } while (record->nonce == 0);
  record->client = client;
  record->server = server;
  record->interface_id = interface_id;
  record->pdl = pdl;
  record->remote = remote;
  records_.push_back(std::move(record));
  BindingRecord& created = *records_.back();
  const int c = ChunkOf(created.id);
  if (chunks_[c].load(std::memory_order_acquire) == nullptr) {
    // Release: a validator that finds the chunk sees its entries empty.
    chunks_[c].store(new Entry[kFirstChunk << c], std::memory_order_release);
  }
  Publish(created);
  return created;
}

void BindingTable::Publish(BindingRecord& record) const {
  Entry& entry = *EntryAt(record.id);
  // LRPC_MO(seqlock-writer-seq)
  const std::uint64_t seq = entry.seq.load(std::memory_order_relaxed);
  // Odd first: a concurrent reader retries rather than consuming a
  // half-written entry; the final even store publishes it.
  entry.seq.store(seq + 1, std::memory_order_release);
  // LRPC_MO(seqlock-field)
  entry.nonce.store(record.nonce, std::memory_order_relaxed);
  // LRPC_MO(seqlock-field)
  entry.client.store(record.client, std::memory_order_relaxed);
  // LRPC_MO(seqlock-field)
  entry.revoked.store(record.revoked, std::memory_order_relaxed);
  // LRPC_MO(seqlock-field)
  entry.record.store(&record, std::memory_order_relaxed);
  entry.seq.store(seq + 2, std::memory_order_release);
  // The bump must be release and must FOLLOW the entry update: a reader
  // that acquires the new generation value is then ordered after the entry
  // writes, so its revalidation cannot cache the old entry under the new
  // generation (docs/fast_path.md has the full argument).
  generation_.fetch_add(1, std::memory_order_release);
}

void BindingTable::Revoke(BindingRecord& record) const {
  MutexLock lock(writer_mutex_);
  record.revoked = true;
  Publish(record);
}

std::vector<BindingRecord*> BindingTable::RevokeForDomain(DomainId domain) {
  MutexLock lock(writer_mutex_);
  std::vector<BindingRecord*> affected;
  for (auto& record : records_) {
    if (record->revoked) {
      continue;
    }
    if (record->client == domain || record->server == domain) {
      record->revoked = true;
      Publish(*record);
      affected.push_back(record.get());
    }
  }
  return affected;
}

std::unique_lock<std::mutex> BindingTable::BaselineLock() const {
  return lock_free_ ? std::unique_lock<std::mutex>()
                    : std::unique_lock<std::mutex>(baseline_mutex_);
}

LRPC_FAST_PATH_BEGIN("binding validation");

Result<BindingRecord*> BindingTable::Read(const BindingObject& object,
                                          DomainId caller) const {
  const Entry* entry = EntryAt(object.id);
  if (entry == nullptr) {
    return Status(ErrorCode::kForgedBinding, "binding id out of range");
  }
  LRPC_FAST_PATH_ALLOW("the single-lock baseline serializes validators");
  const std::unique_lock<std::mutex> baseline = BaselineLock();
  for (;;) {
    const std::uint64_t s1 = entry->seq.load(std::memory_order_acquire);
    if (s1 == 0) {
      return Status(ErrorCode::kForgedBinding, "binding id out of range");
    }
    if ((s1 & 1) != 0) {
      continue;
    }
    // LRPC_MO(seqlock-field)
    const std::uint64_t nonce = entry->nonce.load(std::memory_order_relaxed);
    // LRPC_MO(seqlock-field)
    const DomainId client = entry->client.load(std::memory_order_relaxed);
    // LRPC_MO(seqlock-field)
    const bool revoked = entry->revoked.load(std::memory_order_relaxed);
    // LRPC_MO(seqlock-field)
    BindingRecord* record = entry->record.load(std::memory_order_relaxed);
    const std::uint64_t s2 = entry->seq.load(std::memory_order_acquire);
    if (s1 != s2) {
      continue;
    }
    if (nonce != object.nonce) {
      return Status(ErrorCode::kForgedBinding, "nonce mismatch");
    }
    if (client != caller) {
      return Status(ErrorCode::kForgedBinding,
                    "binding held by another domain");
    }
    if (revoked) {
      return Status(ErrorCode::kRevokedBinding);
    }
    return record;
  }
}

// Injection point: revocation strikes at the instant the object would have
// validated — the worst possible moment for the caller.
Result<BindingRecord*> BindingTable::InjectRevocation(
    BindingRecord* record) const {
  if (FaultPointFires(injector_, FaultKind::kBindingRevocation)) {
    Revoke(*record);
    return Status(ErrorCode::kRevokedBinding, "fault injection: revoked");
  }
  return record;
}

Result<BindingRecord*> BindingTable::Validate(const BindingObject& object,
                                              DomainId caller) const {
  Result<BindingRecord*> result = Read(object, caller);
  return result.ok() ? InjectRevocation(*result) : result;
}

Result<BindingRecord*> BindingTable::ValidateCached(
    const BindingObject& object, DomainId caller) const {
  CachedValidation& slot = CacheSlotFor(object.id);
  // Acquire pairs with the writers' release bumps: observing a generation
  // value orders this thread after every entry write that preceded the
  // bump, so a full validation run under `gen` can be safely re-used for
  // as long as the generation stays at `gen`.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (slot.table == this && slot.generation == gen && slot.id == object.id &&
      slot.nonce == object.nonce && slot.client == caller) {
    // LRPC_MO(stat-counter)
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return InjectRevocation(slot.record);
  }
  Result<BindingRecord*> result = Read(object, caller);
  if (!result.ok()) {
    // Drop a now-refuted entry so a same-generation probe cannot revive it.
    if (slot.table == this && slot.id == object.id) {
      slot.table = nullptr;
    }
    return result;
  }
  // Tagged with the generation loaded BEFORE the full validation: if a
  // mutation slipped in between, the tag is conservatively old and the next
  // probe revalidates — a stale success can never be cached under a newer
  // generation than the validation actually observed.
  slot.table = this;
  slot.generation = gen;
  slot.id = object.id;
  slot.nonce = object.nonce;
  slot.client = caller;
  slot.record = *result;
  return InjectRevocation(*result);
}

LRPC_FAST_PATH_END("binding validation");

Status BindingTable::CheckValidate(const BindingObject& object,
                                   DomainId caller) const {
  return Read(object, caller).status();
}

BindingRecord* BindingTable::Find(BindingId id) {
  MutexLock lock(writer_mutex_);
  if (id < 0 || static_cast<std::size_t>(id) >= records_.size()) {
    return nullptr;
  }
  return records_[static_cast<std::size_t>(id)].get();
}

std::vector<BindingRecord*> BindingTable::ClientBindingsOf(DomainId domain) {
  MutexLock lock(writer_mutex_);
  std::vector<BindingRecord*> result;
  for (auto& record : records_) {
    if (!record->revoked && record->client == domain) {
      result.push_back(record.get());
    }
  }
  return result;
}

std::size_t BindingTable::size() const {
  MutexLock lock(writer_mutex_);
  return records_.size();
}

const BindingRecord& BindingTable::record_at(std::size_t index) const {
  MutexLock lock(writer_mutex_);
  return *records_[index];
}

}  // namespace lrpc
