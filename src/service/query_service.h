#ifndef CONCEALER_SERVICE_QUERY_SERVICE_H_
#define CONCEALER_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "concealer/service_provider.h"
#include "concealer/types.h"
#include "service/admission_gate.h"
#include "service/cache_budget.h"
#include "service/epoch_lifecycle.h"
#include "service/session_manager.h"

namespace concealer {

struct QueryServiceOptions {
  /// Workers in the batch scheduler's pool (ExecuteBatch fan-out). Callers
  /// may also drive Execute from their own threads; this pool only bounds
  /// the service-side fan-out.
  uint32_t scheduler_threads = 4;
  /// Admission cap: at most this many queries execute at once. Over-cap
  /// arrivals either block until a slot frees (default — the in-process
  /// embedding behavior) or, with reject_over_capacity, fail fast with
  /// Unavailable + a retry-after hint (see AdmissionGate).
  uint32_t max_inflight = 16;
  /// Real backpressure: over-cap queries get Unavailable (with a
  /// retry-after hint on the Status) instead of parking their thread.
  /// The tenant registry enables this for hosted tenants so one saturated
  /// tenant sheds its own load rather than tying the shared pool's callers
  /// up in its queue; retrying clients (service/retry.h) ride it out.
  bool reject_over_capacity = false;
  /// Scheduling class on the injected shared pool (ThreadPool::
  /// RegisterClass): batch fan-out and fetch fan-out submissions are
  /// tagged with it, so the pool's weighted deficit-round-robin arbitrates
  /// this tenant against the others at its configured weight. 0 (default)
  /// = the pool's default class; meaningless without shared_pool.
  uint64_t sched_class = 0;
  /// Cross-tenant work-cache byte budget injected by the tenant registry
  /// (null = only the per-map entry caps apply). The service reports its
  /// cache bytes after each query and pays any reclaim debt assigned to it
  /// under its own cache locks (see WorkCacheBudget). Non-owned; must
  /// outlive the service.
  WorkCacheBudget* cache_budget = nullptr;
  /// Test hook: injectable clock for the admission gate's service-time
  /// EWMA (milliseconds, monotonic).
  AdmissionGate::ClockMs admission_clock;
  /// Fault-injection hook for the backpressure tests: runs on the query
  /// thread while it HOLDS an admission slot, before execution. A hook
  /// that blocks keeps the slot pinned, letting tests drive a tenant past
  /// its cap deterministically. Never set in production.
  std::function<void()> execute_fault_hook;
  /// Session token lifetime (Phase 2 amortization window).
  uint64_t session_ttl_seconds = 24 * 3600;
  /// Share trapdoor work across queries (EnclaveWorkCache).
  bool enable_work_cache = true;
  /// Stripe count for the shared cache.
  size_t cache_shards = 64;
  /// Entry cap of the cache (0 = unbounded). Bounds memory on services
  /// that accrue epochs for months; full shards are flushed and simply
  /// repopulate on demand.
  size_t cache_max_entries = 1 << 20;
  /// Hot-epoch cap for segment-backed providers: at most this many epochs
  /// keep their rows resident (mapped + row table); colder ones are
  /// evicted to disk and reloaded on demand. 0 = unbounded. No effect on
  /// the in-memory engine (see EpochLifecycleManager).
  size_t max_hot_epochs = 0;
  /// Process-wide worker pool injected by the tenant registry (null = this
  /// service owns its pools, the pre-registry behavior). When set, BOTH
  /// the batch scheduler and the provider's fetch fan-out run on it —
  /// N tenants share one pool instead of spawning N schedulers plus N
  /// fetch pools, and the per-pool nesting guard keeps the composed
  /// fan-outs deadlock-free. Non-owned; must outlive the service.
  ThreadPool* shared_pool = nullptr;
  /// Cross-tenant hot-epoch budget injected by the tenant registry (null =
  /// only the local max_hot_epochs cap applies). Engaged for segment-backed
  /// (mmap) providers, whose residency is what actually costs memory.
  /// Non-owned; must outlive the service.
  HotEpochBudget* hot_budget = nullptr;
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
///     exclusively. An admission gate caps in-flight queries; a batch
///     scheduler fans a whole batch out on the existing ThreadPool.
///
/// Thread safety: setup (LoadRegistry / IngestEpoch / set_dynamic_mode /
/// provider() mutation) must be quiesced before or serialized against
/// traffic; everything else — OpenSession, CloseSession, Execute,
/// ExecuteEncrypted, ExecuteBatch, the stats accessors — is safe from any
/// number of threads.
class QueryService {
 public:
  /// Takes ownership of a (possibly already ingested) provider. The
  /// service attaches its work cache to the provider; detached on
  /// destruction.
  explicit QueryService(std::unique_ptr<ServiceProvider> provider,
                        QueryServiceOptions options = {});
  ~QueryService();

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

  /// Like Execute, but returns the result encrypted under the session's
  /// result key (Phase 4) — the production surface. Decrypt with
  /// DecryptResult (or Client's equivalent derivation).
  StatusOr<Bytes> ExecuteEncrypted(const std::string& token,
                                   const Query& query);

  /// One user-query of a batch.
  struct SessionQuery {
    std::string token;
    Query query;
  };

  /// Fans a batch out across the scheduler pool, each query individually
  /// authorized and admission-gated. results[i] corresponds to batch[i].
  std::vector<StatusOr<QueryResult>> ExecuteBatch(
      const std::vector<SessionQuery>& batch);

  /// Client-side inverse of ExecuteEncrypted: derives the result key from
  /// the user's proof (as Client does) and decrypts.
  static StatusOr<QueryResult> DecryptResult(Slice proof,
                                             const std::string& user_id,
                                             Slice encrypted_result);

  // --- Introspection ----------------------------------------------------

  /// The owned provider, for setup and benches. Mutating it while traffic
  /// is in flight is a data race — quiesce first.
  ServiceProvider* provider() { return provider_.get(); }
  const SessionManager& sessions() const { return sessions_; }
  /// Null unless the provider runs a segment-backed engine (or a hot cap
  /// was configured). Stats expose cold-load/eviction counts.
  const EpochLifecycleManager* lifecycle() const { return lifecycle_.get(); }

  /// OK unless admitting a restart-recovered epoch into the hot set failed
  /// during construction (the first error is kept). A failed admission
  /// leaves the reopened process holding more resident epochs than
  /// max_hot_epochs promises, so restart paths should check this before
  /// serving traffic.
  const Status& recovery_status() const { return recovery_status_; }

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
    size_t bytes = 0;  // Accounted bytes (what the global budget governs).
  };
  CacheStats cache_stats() const;

  /// Drops every cached entry (hit/miss counters are kept). Benches use
  /// this to measure sweeps from a cold cache; correctness never depends
  /// on it. Safe concurrently with traffic — in-flight queries holding
  /// entries keep them alive — but any measurement around it should be
  /// quiesced.
  void ClearWorkCache();

  /// Pays off this tenant's share of the shared hot-epoch budget's reclaim
  /// debt (see HotEpochBudget): takes the exclusive epoch lock and evicts
  /// this tenant's coldest epochs. No-op without a lifecycle manager, a
  /// budget, or debt. Safe from any thread; the registry drains debtor
  /// tenants through this after traffic.
  Status ReclaimColdEpochs();

  /// Pays off this tenant's share of the shared work-cache byte budget's
  /// reclaim debt (see WorkCacheBudget): releases this cache's coldest
  /// shards under its own shard locks and reports the shrunk usage. No-op
  /// without a budget, a cache, or debt. Safe from any thread; the
  /// registry's background reclaimer drains idle debtors through this,
  /// and the query path self-pays after each query.
  void ReclaimCacheBudget();

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
  /// execution + cache-budget settlement.
  StatusOr<QueryResult> ExecuteAuthorized(const Query& query);

  /// Epoch lock + provider execution (the admission slot is already held).
  StatusOr<QueryResult> ExecuteUnderLocks(const Query& query);

  /// Reports cache bytes to the shared budget (bumping this tenant's
  /// recency) and self-pays any debt assigned to this tenant.
  void UpdateCacheBudget();

  /// The batch scheduler: the injected shared pool when one was
  /// configured, the owned scheduler_ otherwise.
  ThreadPool* scheduler_pool();

  QueryServiceOptions options_;
  std::unique_ptr<ServiceProvider> provider_;
  std::unique_ptr<EnclaveWorkCache> work_cache_;  // Null when disabled.
  /// Hot/cold epoch tiering over the provider's segment-backed engine;
  /// null for plain in-memory providers with no hot cap or shared budget.
  std::unique_ptr<EpochLifecycleManager> lifecycle_;
  SessionManager sessions_;
  /// Owned scheduler; null when options_.shared_pool serves instead.
  std::unique_ptr<ThreadPool> scheduler_;
  /// First failure admitting a recovered epoch at construction; see
  /// recovery_status().
  Status recovery_status_;

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
  /// Handle in the shared work-cache budget, if any.
  uint64_t cache_tenant_ = 0;

  /// Nonce seeds for result encryption (guarded by rng_mu_).
  std::mutex rng_mu_;
  Rng rng_;
};

}  // namespace concealer

#endif  // CONCEALER_SERVICE_QUERY_SERVICE_H_
