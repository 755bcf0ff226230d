#include "service/query_service.h"

#include <chrono>
#include <cstdio>

#include "concealer/wire.h"
#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"

namespace concealer {

QueryService::QueryService(std::unique_ptr<ServiceProvider> provider,
                           QueryServiceOptions options)
    : options_(options),
      provider_(std::move(provider)),
      sessions_(&provider_->enclave(), options_.session_ttl_seconds,
                options_.clock),
      // Clock-mixed seed: result keys are deterministic per (proof, user),
      // so two service instances must not draw the same nonce_seed sequence
      // for the same user (rand_cipher.h: "distinct instances should pass
      // distinct seeds" — CTR nonce reuse under one key leaks plaintext
      // XORs).
      rng_(0x7e6a27 ^ static_cast<uint64_t>(
                          std::chrono::steady_clock::now()
                              .time_since_epoch()
                              .count())) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;
  gate_ = std::make_unique<AdmissionGate>(options_.max_inflight,
                                          options_.reject_over_capacity,
                                          options_.admission_clock);
  if (options_.enable_work_cache) {
    // Deliberately per-service even behind a tenant registry: cache
    // entries are ciphertexts under THIS tenant's keys, so sharing a map
    // across tenants could only ever serve a wrong-key entry or leak one
    // tenant's (encrypted) access history into another's cache timing.
    work_cache_ = std::make_unique<EnclaveWorkCache>(
        options_.cache_shards, options_.cache_max_entries);
    provider_->set_work_cache(work_cache_.get());
    if (options_.cache_budget != nullptr) {
      cache_tenant_ = options_.cache_budget->Register();
    }
  }
  if (options_.shared_pool != nullptr) {
    provider_->set_shared_pool(options_.shared_pool);
  }
  const bool segment_backed =
      provider_->storage_options().engine == StorageOptions::Engine::kMmap;
  // Epoch tiering engages for segment-backed providers (mmap engine) or an
  // explicit hot cap; the plain in-memory provider needs neither. The
  // shared cross-tenant budget only governs segment-backed providers —
  // the in-memory engine cannot release row memory, so counting it
  // against the budget would starve tenants that can.
  if (segment_backed || options_.max_hot_epochs > 0) {
    lifecycle_ = std::make_unique<EpochLifecycleManager>(
        provider_.get(),
        EpochLifecycleManager::Options{
            options_.max_hot_epochs,
            segment_backed ? options_.hot_budget : nullptr});
    // A provider recovered via ServiceProvider::Open already holds epochs:
    // admit them coldest-first (ascending id), so the most recent data
    // stays hot and anything beyond the cap is evicted right away instead
    // of ballooning the reopened process.
    for (const EpochRowRange& range : provider_->EpochRowRanges()) {
      Status st = lifecycle_->OnEpochAdmitted(range.epoch_id);
      if (!st.ok()) {
        // A failed admission leaves this epoch resident beyond the hot cap.
        // Constructors cannot fail, so keep the first error for callers to
        // check via recovery_status() rather than swallowing it.
        std::fprintf(stderr, "[query_service] epoch admit failed: %s\n",
                     st.ToString().c_str());
        if (recovery_status_.ok()) recovery_status_ = st;
      }
    }
  }
  if (options_.shared_pool == nullptr) {
    scheduler_ = std::make_unique<ThreadPool>(
        options_.scheduler_threads == 0 ? 1 : options_.scheduler_threads);
  }
}

ThreadPool* QueryService::scheduler_pool() {
  return options_.shared_pool != nullptr ? options_.shared_pool
                                         : scheduler_.get();
}

QueryService::~QueryService() {
  provider_->set_work_cache(nullptr);
  if (cache_tenant_ != 0 && options_.cache_budget != nullptr) {
    options_.cache_budget->Unregister(cache_tenant_);
  }
}

Status QueryService::LoadRegistry(Slice encrypted_registry) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  return provider_->LoadRegistry(encrypted_registry);
}

Status QueryService::IngestEpoch(const EncryptedEpoch& epoch) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  CONCEALER_RETURN_IF_ERROR(provider_->IngestEpoch(epoch));
  // The fresh epoch enters the hot set; the coldest epoch beyond the cap
  // is evicted here, under the exclusive lock ingest already holds.
  if (lifecycle_ != nullptr) {
    CONCEALER_RETURN_IF_ERROR(lifecycle_->OnEpochAdmitted(epoch.epoch_id));
  }
  return Status::OK();
}

void QueryService::set_dynamic_mode(bool on) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  dynamic_mode_ = on;
  provider_->set_dynamic_mode(on);
}

Status QueryService::MaintainStorage() {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  CONCEALER_RETURN_IF_ERROR(provider_->CheckpointDynamicState());
  return lifecycle_ != nullptr ? lifecycle_->MaintainStorage()
                               : provider_->MaintainStorage();
}

StatusOr<std::string> QueryService::OpenSession(const std::string& user_id,
                                                Slice proof) {
  return sessions_.Open(user_id, proof);
}

void QueryService::CloseSession(const std::string& token) {
  sessions_.Close(token);
}

StatusOr<std::shared_ptr<const SessionState>> QueryService::Authorize(
    const std::string& token, const Query& query) const {
  StatusOr<std::shared_ptr<const SessionState>> session =
      sessions_.Lookup(token);
  if (!session.ok()) return session.status();
  // Individualized queries may only target the session user's own
  // observation (paper §2.1) — same rule ExecuteForUser enforces.
  if (!query.observation.empty() &&
      query.observation != (*session)->owned_observation) {
    return Status::PermissionDenied("user may not query observation '" +
                                    query.observation + "'");
  }
  return session;
}

StatusOr<QueryResult> QueryService::ExecuteAuthorized(const Query& query) {
  // Admission first: over-cap work is refused (or queued) before it can
  // touch locks, the scheduler, or the cache. The slot also feeds the
  // gate's service-time EWMA, which prices the retry-after hint.
  StatusOr<AdmissionGate::Slot> slot = gate_->Admit();
  if (!slot.ok()) return slot.status();
  if (options_.execute_fault_hook) options_.execute_fault_hook();
  // Tag this thread with the tenant's scheduling class so every Submit /
  // ParallelFor the query issues on the shared pool lands in the tenant's
  // DRR queue (a no-op for class 0 / dedicated pools).
  ThreadPool::TagScope tag(options_.shared_pool, options_.sched_class);
  StatusOr<QueryResult> result = ExecuteUnderLocks(query);
  // Settle cache accounting outside the epoch locks: report usage to the
  // global budget and pay any debt assigned to us under our own shard
  // locks only (see service/cache_budget.h for the no-deadlock argument).
  UpdateCacheBudget();
  return result;
}

StatusOr<QueryResult> QueryService::ExecuteUnderLocks(const Query& query) {
  for (;;) {
    if (dynamic_mode_.load(std::memory_order_acquire)) {
      // §6 queries fetch-and-rewrite: rows are re-encrypted, tags
      // refreshed, key versions bumped. Exclusive, like ingest. (Safe even
      // if the mode flipped off meanwhile — a static query under the
      // exclusive lock is merely over-serialized.)
      std::unique_lock<std::shared_mutex> lock(epoch_mu_);
      if (lifecycle_ != nullptr) {
        CONCEALER_RETURN_IF_ERROR(
            lifecycle_->EnsureResidentForQuery(query));
      }
      StatusOr<QueryResult> result = provider_->Execute(query);
      if (result.ok()) {
        // Storage upkeep rides the exclusive lock the rewrite already
        // holds: checkpoint the dynamic WAL when it has grown past its
        // threshold and compact mostly-dead segments, so sustained churn
        // keeps disk bounded without a background thread racing readers.
        CONCEALER_RETURN_IF_ERROR(lifecycle_ != nullptr
                                      ? lifecycle_->MaintainStorage()
                                      : provider_->MaintainStorage());
      }
      return result;
    }
    // Static mode never mutates epoch state (lazy plan builds are
    // internally locked), so any number of queries share the read lock.
    std::shared_lock<std::shared_mutex> lock(epoch_mu_);
    // set_dynamic_mode flips the flag under the exclusive lock, so a
    // re-check under the shared lock is stable: if it flipped between the
    // unlocked snapshot above and our acquisition, retry exclusively
    // rather than run a rewriting query concurrently with readers.
    if (dynamic_mode_.load(std::memory_order_acquire)) continue;
    if (lifecycle_ != nullptr && !lifecycle_->ResidentForQuery(query)) {
      // Cold query: some epoch it needs was evicted. Residency changes
      // need the exclusive lock (they invalidate concurrent readers'
      // borrows), so reload + execute there — rare by construction, the
      // hot set serves the common case under the shared lock.
      lock.unlock();
      std::unique_lock<std::shared_mutex> xlock(epoch_mu_);
      CONCEALER_RETURN_IF_ERROR(lifecycle_->EnsureResidentForQuery(query));
      return provider_->Execute(query);
    }
    if (lifecycle_ != nullptr) lifecycle_->TouchForQuery(query);
    return provider_->Execute(query);
  }
}

StatusOr<QueryResult> QueryService::Execute(const std::string& token,
                                            const Query& query) {
  StatusOr<std::shared_ptr<const SessionState>> session =
      Authorize(token, query);
  if (!session.ok()) return session.status();
  return ExecuteAuthorized(query);
}

StatusOr<Bytes> QueryService::ExecuteEncrypted(const std::string& token,
                                               const Query& query) {
  StatusOr<std::shared_ptr<const SessionState>> session =
      Authorize(token, query);
  if (!session.ok()) return session.status();
  StatusOr<QueryResult> result = ExecuteAuthorized(query);
  if (!result.ok()) return result.status();

  uint64_t nonce_seed;
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    nonce_seed = rng_.Next();
  }
  RandCipher cipher;
  CONCEALER_RETURN_IF_ERROR(
      cipher.SetKey((*session)->result_key, nonce_seed));
  return cipher.Encrypt(SerializeQueryResult(*result));
}

std::vector<StatusOr<QueryResult>> QueryService::ExecuteBatch(
    const std::vector<SessionQuery>& batch) {
  std::vector<StatusOr<QueryResult>> results(
      batch.size(), StatusOr<QueryResult>(Status::Internal("not executed")));
  // Tag the fan-out itself: the per-query helpers inherit this class, so a
  // tenant's whole batch competes under its own DRR weight instead of
  // flooding the shared pool FIFO-style.
  ThreadPool::TagScope tag(options_.shared_pool, options_.sched_class);
  scheduler_pool()->ParallelFor(batch.size(), [&](size_t i) {
    results[i] = Execute(batch[i].token, batch[i].query);
  });
  return results;
}

StatusOr<QueryResult> QueryService::DecryptResult(Slice proof,
                                                  const std::string& user_id,
                                                  Slice encrypted_result) {
  RandCipher cipher;
  CONCEALER_RETURN_IF_ERROR(cipher.SetKey(DeriveResultKey(proof, user_id)));
  StatusOr<Bytes> plain = cipher.Decrypt(encrypted_result);
  if (!plain.ok()) return plain.status();
  return DeserializeQueryResult(*plain);
}

void QueryService::ClearWorkCache() {
  if (work_cache_ != nullptr) work_cache_->Clear();
}

Status QueryService::ReclaimColdEpochs() {
  if (lifecycle_ == nullptr || lifecycle_->pending_reclaim() == 0) {
    return Status::OK();
  }
  // Residency changes invalidate concurrent readers' row borrows, so the
  // eviction runs under the exclusive epoch lock like ingest does.
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  return lifecycle_->ReclaimToBudget();
}

QueryService::CacheStats QueryService::cache_stats() const {
  CacheStats stats;
  if (work_cache_ == nullptr) return stats;
  stats.trapdoor_hits = work_cache_->cell_trapdoors.hits();
  stats.trapdoor_misses = work_cache_->cell_trapdoors.misses();
  stats.trapdoor_entries = work_cache_->cell_trapdoors.size();
  stats.bytes = work_cache_->bytes();
  return stats;
}

void QueryService::UpdateCacheBudget() {
  if (cache_tenant_ == 0 || work_cache_ == nullptr) return;
  options_.cache_budget->Update(cache_tenant_, work_cache_->bytes());
  // Self-pay: if the rebalance (this one or an earlier one) left debt on
  // this tenant, settle it now on the query thread — the common case, which
  // keeps the registry's background reclaimer for idle debtors only.
  ReclaimCacheBudget();
}

void QueryService::ReclaimCacheBudget() {
  if (cache_tenant_ == 0 || work_cache_ == nullptr) return;
  WorkCacheBudget* budget = options_.cache_budget;
  const size_t owed = budget->PendingReclaimBytes(cache_tenant_);
  if (owed == 0) return;
  work_cache_->ReleaseBytes(owed);
  // Report (not Update): shrinking to pay debt must not refresh our
  // recency stamp, or a debtor could rescue itself from future steals.
  budget->ReportBytes(cache_tenant_, work_cache_->bytes());
}

}  // namespace concealer
