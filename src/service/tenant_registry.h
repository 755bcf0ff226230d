#ifndef CONCEALER_SERVICE_TENANT_REGISTRY_H_
#define CONCEALER_SERVICE_TENANT_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "concealer/types.h"
#include "service/query_service.h"

namespace concealer {

/// Per-tenant quality-of-service knobs, fixed at CreateTenant time.
struct TenantQoS {
  /// DRR weight of this tenant's scheduling class on the shared pool: a
  /// weight-3 tenant is served up to 3 tasks per round for every 1 of a
  /// weight-1 tenant. 0 is normalized to 1.
  uint32_t weight = 1;
  /// Admission cap override: concurrent queries admitted into this
  /// tenant's service. 0 = use the service template's max_inflight.
  uint32_t max_inflight = 0;
};

struct TenantRegistryOptions {
  /// Root directory for persistent tenants: tenant `t`'s segments, epoch
  /// metas and index node file live under `<root_dir>/<t>`. Empty gives
  /// each tenant its own ephemeral directory, removed with the tenant;
  /// OpenAll requires a root.
  std::string root_dir;
  /// Engine template for every tenant. `dir` is ignored (the registry
  /// derives the per-tenant subpath); segment_bytes applies.
  StorageOptions storage;
  /// Workers in the process-wide pool shared by every tenant (QueryBatch
  /// fan-out AND per-query fetch units). 0 = one worker.
  uint32_t pool_threads = 4;
  /// Template for each tenant's QueryServiceOptions. `pool` and
  /// `sched_class` are overwritten with the registry's own; everything
  /// else (session TTL, admission cap and mode) applies per tenant.
  QueryServiceOptions service;
};

/// The multi-tenant front door (ROADMAP: "shard the service across
/// tables/providers"): owns one QueryService per tenant — each with its own
/// ServiceProvider, enclave key material, user registry, work cache and
/// segment directory — and routes sessions, queries and epoch ingest by
/// tenant id. The registry arbitrates exactly one shared resource: one
/// process-wide ThreadPool. QueryBatch's fan-out and every tenant's fetch
/// fan-out run on it, so N tenants contend for the machine's cores in one
/// queue instead of oversubscribing with N pools. Each tenant gets its own
/// DRR scheduling class (weight from TenantQoS), so a flooding tenant is
/// bounded to its weight share of service and cannot starve the others'
/// queues. Mapped segment pages are left to the kernel's page cache, as a
/// DBMS leaves them to its buffer pool.
///
/// Nothing else is shared. Key material, sessions, epoch state and the
/// enclave-work caches are strictly per tenant: a trapdoor minted under
/// tenant A's keys can never be served to — or even collide with — tenant
/// B's queries, because the caches never cross the QueryService boundary.
///
/// Thread safety: CreateTenant / DropTenant / OpenAll serialize against
/// each other end to end (one admin mutex spans existence check,
/// directory open/unlink and map update) and against routing via an
/// internal reader/writer lock;
/// routing calls (OpenSession, Query, IngestEpoch, ...) are safe from any
/// number of threads. A dropped tenant's in-flight queries finish first
/// (DropTenant blocks until they drain); other tenants are untouched.
///
/// Lifetime: the registry must outlive any QueryService* it hands out, and
/// owns the shared pool its tenants point at.
class TenantRegistry {
 public:
  explicit TenantRegistry(TenantRegistryOptions options);
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // --- Tenant lifecycle -------------------------------------------------

  /// Creates (or, under a root_dir with an existing non-empty tenant
  /// directory, recovers) tenant `tenant_id` with its own provider under
  /// `config` and enclave secret `sk`. Ids are path components: 1-64 chars
  /// of [A-Za-z0-9._-], not "." or "..". InvalidArgument on a bad id or a
  /// duplicate.
  /// `qos` fixes the tenant's scheduling weight and admission cap for its
  /// lifetime (weight-proportional DRR service on the shared pool; see
  /// common/thread_pool.h).
  Status CreateTenant(const std::string& tenant_id,
                      const ConcealerConfig& config, Bytes sk,
                      const TenantQoS& qos = {});

  /// Removes the tenant: waits for its in-flight queries to drain,
  /// destroys its service (sealing the engine), and — for persistent
  /// tenants — unlinks its segment directory. Other tenants' traffic is
  /// never blocked or perturbed. NotFound for unknown ids.
  Status DropTenant(const std::string& tenant_id);

  /// Restart recovery (requires root_dir): scans root_dir for tenant
  /// directories a previous process left behind and re-opens every one,
  /// recovering its rows, index and epochs. `resolver` supplies each
  /// tenant's config and enclave secret — key material never touches the
  /// untrusted disk, so it must arrive out of band, exactly like the DP→
  /// enclave provisioning it models. Per-tenant outcomes (including
  /// resolver refusals and open failures) are recorded and queryable via
  /// recovery_statuses(); the returned status is the first failure, with
  /// every healthy tenant still open and serving.
  struct TenantCredentials {
    ConcealerConfig config;
    Bytes sk;
  };
  using CredentialsResolver =
      std::function<StatusOr<TenantCredentials>(const std::string& tenant_id)>;
  Status OpenAll(const CredentialsResolver& resolver);

  // --- Routing (safe from any thread) -----------------------------------

  Status LoadRegistry(const std::string& tenant_id, Slice encrypted_registry);
  Status IngestEpoch(const std::string& tenant_id, const EncryptedEpoch& epoch);
  StatusOr<std::string> OpenSession(const std::string& tenant_id,
                                    const std::string& user_id, Slice proof);
  void CloseSession(const std::string& tenant_id, const std::string& token);
  // (concealer::Query spelled out: the method name `Query` hides the type
  // inside this class scope.)
  StatusOr<QueryResult> Query(const std::string& tenant_id,
                              const std::string& token,
                              const concealer::Query& query);
  StatusOr<Bytes> QueryEncrypted(const std::string& tenant_id,
                                 const std::string& token,
                                 const concealer::Query& query);

  /// One query of a cross-tenant batch.
  struct TenantQuery {
    std::string tenant_id;
    std::string token;
    concealer::Query query;
  };
  /// Fans a mixed-tenant batch out on the shared pool; results[i]
  /// corresponds to batch[i], failures stay in their own slot.
  std::vector<StatusOr<QueryResult>> QueryBatch(
      const std::vector<TenantQuery>& batch);

  // --- Introspection ----------------------------------------------------

  /// The tenant's service, for setup/tests. NotFound for unknown ids. The
  /// pointer stays valid until the tenant is dropped or the registry dies.
  StatusOr<QueryService*> tenant(const std::string& tenant_id);

  std::vector<std::string> TenantIds() const;
  size_t NumTenants() const;

  /// Per-tenant restart-recovery outcome, aggregated by OpenAll: the
  /// directory-open / resolver / provider-recovery status, or OK for a
  /// tenant that opened. CreateTenant appends an OK entry.
  struct TenantRecovery {
    std::string tenant_id;
    Status status;
  };
  std::vector<TenantRecovery> recovery_statuses() const;
  /// First non-OK entry of recovery_statuses(), or OK.
  Status AggregateRecoveryStatus() const;

  ThreadPool* shared_pool() { return pool_.get(); }

 private:
  /// Shared-lock lookup returning a liveness-holding ref.
  StatusOr<std::shared_ptr<QueryService>> Resolve(
      const std::string& tenant_id) const;

  /// Opens one tenant service (fresh or recovering; a tenant lives under
  /// `<root_dir>/<tenant_id>`, or in an ephemeral directory without a
  /// root) and installs it.
  Status OpenTenant(const std::string& tenant_id, const ConcealerConfig& config,
                    Bytes sk, const TenantQoS& qos);

  /// Replaces the tenant's recovery entry (one entry per tenant; a retried
  /// OpenAll overwrites the stale outcome). Caller holds mu_ exclusively.
  void RecordRecoveryLocked(const std::string& tenant_id,
                            const Status& status);

  TenantRegistryOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  /// Serializes tenant lifecycle (CreateTenant/DropTenant/OpenAll) END TO
  /// END — existence check, directory open/unlink and map update are one
  /// critical section, or two concurrent CreateTenant("t") calls could
  /// both open the same segment directory and the loser's teardown would
  /// close files the winner is serving. Never taken by routing calls.
  /// Lock order: admin_mu_ before mu_; nothing is ever taken after mu_.
  std::mutex admin_mu_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<QueryService>> tenants_;
  std::vector<TenantRecovery> recovery_;
};

/// True iff `tenant_id` is a valid tenant id (safe path component).
bool IsValidTenantId(const std::string& tenant_id);

}  // namespace concealer

#endif  // CONCEALER_SERVICE_TENANT_REGISTRY_H_
