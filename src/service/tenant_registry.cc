#include "service/tenant_registry.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace concealer {

namespace {

/// Unlinks everything under `dir`, then `dir` itself. Tenant directories
/// are flat (segments, epoch metas, index node file), but recurse anyway so
/// a drop never leaves half a tree behind.
Status RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Internal("cannot open dir for removal: " + dir);
  }
  Status status = Status::OK();
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0) {
      status = Status::Internal("lstat failed: " + path);
      break;
    }
    if (S_ISDIR(st.st_mode)) {
      status = RemoveTree(path);
      if (!status.ok()) break;
    } else if (::unlink(path.c_str()) != 0) {
      status = Status::Internal("unlink failed: " + path);
      break;
    }
  }
  ::closedir(d);
  if (!status.ok()) return status;
  if (::rmdir(dir.c_str()) != 0) {
    return Status::Internal("rmdir failed: " + dir);
  }
  return Status::OK();
}

}  // namespace

void TenantRegistry::RecordRecoveryLocked(const std::string& tenant_id,
                                          const Status& status) {
  // One entry per tenant: a retried OpenAll that now succeeds (or fails
  // differently) must replace the stale outcome, not pile up beside it —
  // AggregateRecoveryStatus() would otherwise report a long-healed
  // failure forever.
  recovery_.erase(std::remove_if(recovery_.begin(), recovery_.end(),
                                 [&](const TenantRecovery& r) {
                                   return r.tenant_id == tenant_id;
                                 }),
                  recovery_.end());
  recovery_.push_back(TenantRecovery{tenant_id, status});
}

bool IsValidTenantId(const std::string& tenant_id) {
  if (tenant_id.empty() || tenant_id.size() > 64) return false;
  if (tenant_id == "." || tenant_id == "..") return false;
  for (char c : tenant_id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

TenantRegistry::TenantRegistry(TenantRegistryOptions options)
    : options_(std::move(options)),
      pool_(std::make_unique<ThreadPool>(
          options_.pool_threads == 0 ? 1 : options_.pool_threads)) {}

TenantRegistry::~TenantRegistry() {
  // Tenants hold raw pointers into pool_: destroy them first, explicitly,
  // rather than relying on member order staying correct.
  tenants_.clear();
}

Status TenantRegistry::OpenTenant(const std::string& tenant_id,
                                  const ConcealerConfig& config, Bytes sk,
                                  const TenantQoS& qos) {
  // Both for fresh tenants (creates the empty directory) and for recovery
  // (re-maps segments, restores index and epochs). An empty root_dir gives
  // the tenant an ephemeral directory, removed with its provider. The
  // shared pool runs recovery's segment checksum pass. The server calls
  // this from a pool task (Submit), not from inside a ParallelFor, so the
  // fan-out is not a nested call that would run inline.
  StorageOptions storage = options_.storage;
  storage.dir =
      options_.root_dir.empty() ? "" : options_.root_dir + "/" + tenant_id;
  StatusOr<std::unique_ptr<ServiceProvider>> provider =
      ServiceProvider::Open(config, std::move(sk), storage, pool_.get());
  if (!provider.ok()) return provider.status();

  QueryServiceOptions service_options = options_.service;
  service_options.pool = pool_.get();
  // The tenant's own DRR class on the shared pool: every Submit/ParallelFor
  // its queries issue is served weight-proportionally against the other
  // tenants' classes instead of first-come-first-served.
  service_options.sched_class = pool_->RegisterClass(qos.weight);
  if (qos.max_inflight != 0) {
    service_options.max_inflight = qos.max_inflight;
  }
  auto service =
      std::make_shared<QueryService>(std::move(*provider), service_options);

  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!tenants_.emplace(tenant_id, service).second) {
    lock.unlock();
    service.reset();  // Seals the engine before the class goes away.
    pool_->UnregisterClass(service_options.sched_class);
    return Status::InvalidArgument("tenant already exists: " + tenant_id);
  }
  RecordRecoveryLocked(tenant_id, Status::OK());
  return Status::OK();
}

Status TenantRegistry::CreateTenant(const std::string& tenant_id,
                                    const ConcealerConfig& config, Bytes sk,
                                    const TenantQoS& qos) {
  if (!IsValidTenantId(tenant_id)) {
    return Status::InvalidArgument("invalid tenant id: '" + tenant_id + "'");
  }
  // Held across check + open + insert: see admin_mu_.
  std::lock_guard<std::mutex> admin(admin_mu_);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (tenants_.count(tenant_id) > 0) {
      return Status::InvalidArgument("tenant already exists: " + tenant_id);
    }
  }
  return OpenTenant(tenant_id, config, std::move(sk), qos);
}

Status TenantRegistry::DropTenant(const std::string& tenant_id) {
  // Held through the drain and the directory unlink: a concurrent
  // CreateTenant of the same id must not re-open the directory between
  // the map erase and the RemoveTree below.
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::shared_ptr<QueryService> service;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant: " + tenant_id);
    }
    service = std::move(it->second);
    tenants_.erase(it);
    recovery_.erase(
        std::remove_if(recovery_.begin(), recovery_.end(),
                       [&](const TenantRecovery& r) {
                         return r.tenant_id == tenant_id;
                       }),
        recovery_.end());
  }
  // The tenant is unroutable now; in-flight queries that resolved earlier
  // still hold refs. Wait for them to drain so the engine shuts down
  // cleanly — other tenants are untouched, they never share this service.
  // The drain is inherently slow-path (bounded by the tenant's longest
  // in-flight query), so sleep between probes instead of burning a core.
  while (service.use_count() > 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const bool persistent = service->provider()->persistent();
  const std::string dir = service->provider()->storage_options().dir;
  const uint64_t sched_class = service->sched_class();
  service.reset();  // Seals and closes the engine.
  // Retire the tenant's scheduling class only after its service is gone:
  // any helper tasks it queued have drained by now (the drain loop above),
  // so the class retires empty and the pool erases it on sight.
  pool_->UnregisterClass(sched_class);
  if (persistent) return RemoveTree(dir);
  return Status::OK();
}

Status TenantRegistry::OpenAll(const CredentialsResolver& resolver) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  if (options_.root_dir.empty()) {
    return Status::InvalidArgument("OpenAll requires root_dir");
  }
  std::vector<std::string> found;
  DIR* d = ::opendir(options_.root_dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("cannot open tenant root: " + options_.root_dir);
  }
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    const std::string path = options_.root_dir + "/" + name;
    if (::lstat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) continue;
    found.push_back(name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());

  Status first_failure = Status::OK();
  auto record_failure = [&](const std::string& id, const Status& st) {
    if (first_failure.ok()) first_failure = st;
    std::unique_lock<std::shared_mutex> lock(mu_);
    RecordRecoveryLocked(id, st);
  };

  for (const std::string& id : found) {
    if (!IsValidTenantId(id)) {
      record_failure(id, Status::Corruption(
                             "directory is not a valid tenant id: " + id));
      continue;
    }
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      if (tenants_.count(id) > 0) continue;  // Already open.
    }
    StatusOr<TenantCredentials> creds = resolver(id);
    if (!creds.ok()) {
      record_failure(id, creds.status());
      continue;
    }
    // OpenTenant records the entry of a tenant it installs; a failed
    // open installs nothing and is recorded here.
    const Status st =
        OpenTenant(id, creds->config, std::move(creds->sk), TenantQoS{});
    if (!st.ok()) record_failure(id, st);
  }
  return first_failure;
}

StatusOr<std::shared_ptr<QueryService>> TenantRegistry::Resolve(
    const std::string& tenant_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant: " + tenant_id);
  }
  return it->second;
}

Status TenantRegistry::LoadRegistry(const std::string& tenant_id,
                                    Slice encrypted_registry) {
  StatusOr<std::shared_ptr<QueryService>> service = Resolve(tenant_id);
  if (!service.ok()) return service.status();
  return (*service)->LoadRegistry(encrypted_registry);
}

Status TenantRegistry::IngestEpoch(const std::string& tenant_id,
                                   const EncryptedEpoch& epoch) {
  StatusOr<std::shared_ptr<QueryService>> service = Resolve(tenant_id);
  if (!service.ok()) return service.status();
  return (*service)->IngestEpoch(epoch);
}

StatusOr<std::string> TenantRegistry::OpenSession(const std::string& tenant_id,
                                                  const std::string& user_id,
                                                  Slice proof) {
  StatusOr<std::shared_ptr<QueryService>> service = Resolve(tenant_id);
  if (!service.ok()) return service.status();
  return (*service)->OpenSession(user_id, proof);
}

void TenantRegistry::CloseSession(const std::string& tenant_id,
                                  const std::string& token) {
  StatusOr<std::shared_ptr<QueryService>> service = Resolve(tenant_id);
  if (service.ok()) (*service)->CloseSession(token);
}

StatusOr<QueryResult> TenantRegistry::Query(const std::string& tenant_id,
                                            const std::string& token,
                                            const concealer::Query& query) {
  StatusOr<std::shared_ptr<QueryService>> service = Resolve(tenant_id);
  if (!service.ok()) return service.status();
  return (*service)->Execute(token, query);
}

StatusOr<Bytes> TenantRegistry::QueryEncrypted(const std::string& tenant_id,
                                               const std::string& token,
                                               const concealer::Query& query) {
  StatusOr<std::shared_ptr<QueryService>> service = Resolve(tenant_id);
  if (!service.ok()) return service.status();
  return (*service)->ExecuteEncrypted(token, query);
}

std::vector<StatusOr<QueryResult>> TenantRegistry::QueryBatch(
    const std::vector<TenantQuery>& batch) {
  std::vector<StatusOr<QueryResult>> results(
      batch.size(), StatusOr<QueryResult>(Status::Internal("not executed")));
  pool_->ParallelFor(batch.size(), [&](size_t i) {
    StatusOr<std::shared_ptr<QueryService>> service =
        Resolve(batch[i].tenant_id);
    if (!service.ok()) {
      results[i] = service.status();
      return;
    }
    results[i] = (*service)->Execute(batch[i].token, batch[i].query);
  });
  return results;
}

StatusOr<QueryService*> TenantRegistry::tenant(const std::string& tenant_id) {
  StatusOr<std::shared_ptr<QueryService>> service = Resolve(tenant_id);
  if (!service.ok()) return service.status();
  return service->get();
}

std::vector<std::string> TenantRegistry::TenantIds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, service] : tenants_) ids.push_back(id);
  return ids;
}

size_t TenantRegistry::NumTenants() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tenants_.size();
}

std::vector<TenantRegistry::TenantRecovery> TenantRegistry::recovery_statuses()
    const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return recovery_;
}

Status TenantRegistry::AggregateRecoveryStatus() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const TenantRecovery& r : recovery_) {
    if (!r.status.ok()) return r.status;
  }
  return Status::OK();
}

}  // namespace concealer
