#ifndef CONCEALER_SERVICE_QUERY_SERVICE_H_
#define CONCEALER_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "concealer/service_provider.h"
#include "concealer/types.h"
#include "service/admission_gate.h"
#include "service/session_manager.h"

namespace concealer {

struct QueryServiceOptions {
  /// Admission cap: at most this many queries execute at once. Over-cap
  /// arrivals either block until a slot frees (default — the in-process
  /// embedding behavior) or, with reject_over_capacity, fail fast with
  /// Unavailable + a retry-after hint (see AdmissionGate).
  uint32_t max_inflight = 16;
  /// Real backpressure: over-cap queries get Unavailable (with a
  /// retry-after hint on the Status) instead of parking their thread.
  /// concealer_server turns this on in its tenant registry's service
  /// template, so one saturated tenant sheds its own load rather than
  /// tying the shared pool's callers up in its queue; retrying clients
  /// (service/retry.h) ride it out.
  bool reject_over_capacity = false;
  /// Scheduling class on the injected shared pool (ThreadPool::
  /// RegisterClass): each query's fetch fan-out submissions are tagged
  /// with it, so the pool's weighted deficit-round-robin arbitrates this
  /// tenant against the others at its configured weight. 0 (default) =
  /// the pool's default class; meaningless without a pool.
  uint64_t sched_class = 0;
  /// Fault-injection hook for the backpressure tests: runs on the query
  /// thread while it HOLDS an admission slot, before execution. A hook
  /// that blocks keeps the slot pinned, letting tests drive a tenant past
  /// its cap deterministically. Never set in production.
  std::function<void()> execute_fault_hook;
  /// Session token lifetime (Phase 2 amortization window).
  uint64_t session_ttl_seconds = 24 * 3600;
  /// Borrowed worker pool (null = run inline). The provider's fetch
  /// fan-out runs on it; the tenant registry passes its one process-wide
  /// pool, so N tenants share one pool and the per-pool nesting guard keeps
  /// the registry's batch fan-out and each query's fetch fan-out
  /// deadlock-free.
  /// Non-owned; must outlive the service.
  ThreadPool* pool = nullptr;
  /// Test hook: fake clock for session expiry (seconds, monotonic).
  SessionManager::Clock clock;
};

/// The multi-tenant front end: owns a ServiceProvider and serves many
/// concurrent users on top of it. Three things turn the one-caller-at-a-
/// time provider into a service (see docs/QUERY_LIFECYCLE.md):
///
///  1. Sessions — OpenSession runs the Phase 2 proof check once and hands
///     out a token; every query on the token skips re-authentication and
///     reuses the derived result key (SessionManager).
///  2. A cross-query enclave-work cache — trapdoor lists are
///     deterministic per (epoch, key version, cell-id), so overlapping
///     queries from different users reuse them instead of recomputing; the striped cache (EnclaveWorkCache) makes the reuse
///     thread-safe and the leakage notes there argue why hits reveal
///     nothing beyond the paper's access-pattern leakage.
///  3. Concurrency control — static-mode queries run under a shared
///     (reader) epoch lock, fully parallel; the dynamic-insertion write
///     path (§6 re-encrypts rows and bumps key versions) takes the lock
///     exclusively. An admission gate caps in-flight queries; each query's
///     fetch units fan out on the borrowed ThreadPool.
///
/// Thread safety: setup (LoadRegistry / IngestEpoch / set_dynamic_mode /
/// provider() mutation) must be quiesced before or serialized against
/// traffic; everything else — OpenSession, CloseSession, Execute,
/// ExecuteEncrypted, the stats accessors — is safe from any number of
/// threads.
class QueryService {
 public:
  /// Takes ownership of a (possibly already ingested) provider and
  /// attaches the service's work cache to it.
  explicit QueryService(std::unique_ptr<ServiceProvider> provider,
                        QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Setup (exclusive epoch lock; see class comment) -----------------

  Status LoadRegistry(Slice encrypted_registry);
  Status IngestEpoch(const EncryptedEpoch& epoch);

  /// Switches the §6 dynamic-insertion path on/off. Dynamic queries
  /// rewrite rows, so the service runs them under the exclusive lock.
  void set_dynamic_mode(bool on);

  /// Forces a storage-upkeep pass now: checkpoints the dynamic WAL into
  /// the epoch metas whatever its size, leaving it empty, then compacts
  /// mostly-dead segments, under the exclusive epoch lock. Dynamic queries
  /// already do this opportunistically past growth thresholds; the network
  /// server calls it on graceful drain so a SIGTERM'd process leaves an
  /// empty log behind rather than one the next open must replay.
  Status MaintainStorage();

  // --- Sessions (Phase 2) ----------------------------------------------

  /// Authenticates once; returns a token valid for session_ttl_seconds.
  StatusOr<std::string> OpenSession(const std::string& user_id, Slice proof);
  void CloseSession(const std::string& token);

  // --- Queries (Phase 3/4) ---------------------------------------------

  /// Validates the token, enforces the individualized-query restriction
  /// (a session may only name its own observation), and executes under
  /// the epoch lock + admission gate. Plaintext result — the bench/test
  /// surface, mirroring ServiceProvider::Execute.
  StatusOr<QueryResult> Execute(const std::string& token, const Query& query);

  /// Like Execute, but returns the result sealed under the session's
  /// result key (Phase 4) — the production surface. The user opens it with
  /// OpenResult (concealer/result_seal.h).
  StatusOr<Bytes> ExecuteEncrypted(const std::string& token,
                                   const Query& query);

  // --- Introspection ----------------------------------------------------

  /// The owned provider, for setup and benches. Mutating it while traffic
  /// is in flight is a data race — quiesce first.
  ServiceProvider* provider() { return provider_.get(); }
  const SessionManager& sessions() const { return sessions_; }

  struct CacheStats {
    uint64_t trapdoor_hits = 0;
    uint64_t trapdoor_misses = 0;
    size_t trapdoor_entries = 0;
    /// Always 0: filter ciphertexts are no longer cached. The fields stay
    /// because the benchmark (perfbench/) still reads them to report
    /// service.filter_cache_hit_ratio.
    uint64_t filter_hits = 0;
    uint64_t filter_misses = 0;
    size_t filter_entries = 0;
  };
  CacheStats cache_stats() const;

  /// Admission-gate state: in-flight count, fail-fast rejections issued,
  /// current service-time EWMA (what retry-after hints derive from).
  AdmissionGate::Stats admission_stats() const { return gate_->stats(); }

  /// This tenant's scheduling class on the shared pool (0 = default).
  uint64_t sched_class() const { return options_.sched_class; }

 private:
  /// Session + authorization checks shared by the query surfaces.
  StatusOr<std::shared_ptr<const SessionState>> Authorize(
      const std::string& token, const Query& query) const;

  /// Admission gate + scheduling-class tag + epoch lock + provider
  /// execution.
  StatusOr<QueryResult> ExecuteAuthorized(const Query& query);

  /// Epoch lock + provider execution (the admission slot is already held).
  StatusOr<QueryResult> ExecuteUnderLocks(const Query& query);

  QueryServiceOptions options_;
  /// Per service even behind a tenant registry: entries are ciphertexts
  /// under THIS tenant's keys, so a map shared across tenants could only
  /// ever serve a wrong-key entry or leak one tenant's (encrypted) access
  /// history into another's cache timing. Declared before provider_, which
  /// points at it, so the provider is destroyed first.
  EnclaveWorkCache work_cache_;
  std::unique_ptr<ServiceProvider> provider_;
  SessionManager sessions_;

  /// Epoch-level reader/writer lock: shared for static-mode queries and
  /// read-only introspection, exclusive for ingest and dynamic-mode
  /// queries.
  std::shared_mutex epoch_mu_;
  /// Atomic so the lock-mode decision in ExecuteAuthorized can read it
  /// without holding the lock it is choosing.
  std::atomic<bool> dynamic_mode_{false};

  /// Admission control (blocking or fail-fast per options_; see
  /// AdmissionGate). Constructed in the ctor after option normalization.
  std::unique_ptr<AdmissionGate> gate_;

  /// Nonce seeds for result encryption (guarded by rng_mu_).
  std::mutex rng_mu_;
  Rng rng_;
};

}  // namespace concealer

#endif  // CONCEALER_SERVICE_QUERY_SERVICE_H_
