#include "service/query_service.h"

#include <chrono>

#include "concealer/result_seal.h"

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
                                          options_.reject_over_capacity);
  provider_->set_work_cache(&work_cache_);
  provider_->set_pool(options_.pool);
}

Status QueryService::LoadRegistry(Slice encrypted_registry) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  return provider_->LoadRegistry(encrypted_registry);
}

Status QueryService::IngestEpoch(const EncryptedEpoch& epoch) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  return provider_->IngestEpoch(epoch);
}

void QueryService::set_dynamic_mode(bool on) {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  dynamic_mode_ = on;
  provider_->set_dynamic_mode(on);
}

Status QueryService::MaintainStorage() {
  std::unique_lock<std::shared_mutex> lock(epoch_mu_);
  CONCEALER_RETURN_IF_ERROR(provider_->CheckpointDynamicState());
  return provider_->MaintainStorage();
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
  CONCEALER_RETURN_IF_ERROR(
      CheckObservationAccess(query, (*session)->owned_observation));
  return session;
}

StatusOr<QueryResult> QueryService::ExecuteAuthorized(const Query& query) {
  // Admission first: over-cap work is refused (or queued) before it can
  // touch locks or the cache. The slot also feeds the gate's service-time
  // EWMA, which prices the retry-after hint.
  StatusOr<AdmissionGate::Slot> slot = gate_->Admit();
  if (!slot.ok()) return slot.status();
  if (options_.execute_fault_hook) options_.execute_fault_hook();
  // Tag this thread with the tenant's scheduling class so every Submit /
  // ParallelFor the query issues on the shared pool lands in the tenant's
  // DRR queue (a no-op for class 0 / dedicated pools).
  ThreadPool::TagScope tag(options_.pool, options_.sched_class);
  return ExecuteUnderLocks(query);
}

StatusOr<QueryResult> QueryService::ExecuteUnderLocks(const Query& query) {
  for (;;) {
    if (dynamic_mode_.load(std::memory_order_acquire)) {
      // §6 queries fetch-and-rewrite: rows are re-encrypted, tags
      // refreshed, key versions bumped. Exclusive, like ingest. (Safe even
      // if the mode flipped off meanwhile — a static query under the
      // exclusive lock is merely over-serialized.)
      std::unique_lock<std::shared_mutex> lock(epoch_mu_);
      StatusOr<QueryResult> result = provider_->Execute(query);
      if (result.ok()) {
        // Storage upkeep rides the exclusive lock the rewrite already
        // holds: checkpoint the dynamic WAL when it has grown past its
        // threshold and compact mostly-dead segments, so sustained churn
        // keeps disk bounded without a background thread racing readers.
        CONCEALER_RETURN_IF_ERROR(provider_->MaintainStorage());
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
  return SealResult(*result, (*session)->result_key, nonce_seed);
}

QueryService::CacheStats QueryService::cache_stats() const {
  CacheStats stats;
  stats.trapdoor_hits = work_cache_.cell_trapdoors.hits();
  stats.trapdoor_misses = work_cache_.cell_trapdoors.misses();
  stats.trapdoor_entries = work_cache_.cell_trapdoors.size();
  return stats;
}

}  // namespace concealer
