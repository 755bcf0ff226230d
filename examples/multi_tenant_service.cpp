// Multi-tenant service: several TENANTS — each an independent deployment
// with its own enclave key material, user registry, table and epochs —
// share one Concealer process behind a TenantRegistry front door.
//
//   1. Two data providers (a metro WiFi operator and a campus operator)
//      register their own users and encrypt their own readings under their
//      own secrets.
//   2. One TenantRegistry hosts both: it owns ONE process-wide worker pool
//      that all tenants share, while keys, sessions and caches stay
//      strictly per tenant.
//   3. Clients of both tenants fire a mixed batch through the front door;
//      every answer routes to the right tenant's data.
//   4. Per-tenant QoS: tenants are created with DRR scheduling weights and
//      admission caps. A burst at a capped tenant is shed with Unavailable
//      plus a retry-after hint instead of queueing unboundedly, and a
//      well-behaved client rides it out with RetryQuery (service/retry.h)
//      while the flood is still in progress.
//   5. Cross-tenant attacks bounce: one tenant's epochs, registry blob and
//      session tokens are all useless against the other.
//   6. One tenant is dropped (directory unlinked); the other keeps
//      serving. The process then "restarts" — OpenAll recovers every
//      surviving tenant from its segment directory alone.
//
// Build: cmake --build build && ./build/multi_tenant_service

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "concealer/data_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "service/retry.h"
#include "service/tenant_registry.h"

using namespace concealer;  // Example code; library code never does this.

namespace {

struct TenantSetup {
  std::string id;
  ConcealerConfig config;
  std::unique_ptr<DataProvider> dp;
  std::vector<EncryptedEpoch> epochs;
  Bytes proof;  // Session proof for the tenant's user "ana".
};

/// One tenant's whole DP side: keys, a user, a day of readings.
TenantSetup MakeTenant(const std::string& id, uint8_t key_seed,
                       uint64_t busy_room) {
  TenantSetup t;
  t.id = id;
  t.config.key_buckets = {8};
  t.config.key_domains = {10};
  t.config.time_buckets = 24;
  t.config.num_cell_ids = 40;
  t.config.epoch_seconds = 86400;
  t.config.time_quantum = 60;

  t.dp = std::make_unique<DataProvider>(t.config, Bytes(32, key_seed));
  const Bytes secret{'s', key_seed};
  if (!t.dp->RegisterUser("ana", secret, "").ok()) std::abort();
  t.proof = Registry::MakeProof(secret, "ana");

  std::vector<PlainTuple> readings;
  for (uint64_t minute = 0; minute < 600; ++minute) {
    PlainTuple reading;
    // Different occupancy patterns per tenant: the same query must come
    // back with different answers through the same front door.
    reading.keys = {minute % 3 == 0 ? busy_room : minute % 10};
    reading.time = minute * 60;
    readings.push_back(std::move(reading));
  }
  auto epochs = t.dp->EncryptAll(readings);
  if (!epochs.ok()) std::abort();
  t.epochs = std::move(*epochs);
  return t;
}

Status Provision(TenantRegistry* registry, const TenantSetup& t,
                 const TenantQoS& qos = {}) {
  CONCEALER_RETURN_IF_ERROR(
      registry->CreateTenant(t.id, t.config, t.dp->shared_secret(), qos));
  CONCEALER_RETURN_IF_ERROR(
      registry->LoadRegistry(t.id, t.dp->EncryptedRegistry()));
  for (const auto& epoch : t.epochs) {
    CONCEALER_RETURN_IF_ERROR(registry->IngestEpoch(t.id, epoch));
  }
  return Status::OK();
}

}  // namespace

int main() {
  // --- Two independent tenants ------------------------------------------
  TenantSetup metro = MakeTenant("metro-wifi", 0x11, /*busy_room=*/4);
  TenantSetup campus = MakeTenant("campus-wifi", 0x22, /*busy_room=*/7);

  std::error_code ec;
  std::string root = (std::filesystem::temp_directory_path(ec) /
                      "concealer-tenants-XXXXXX")
                         .string();
  if (ec || ::mkdtemp(root.data()) == nullptr) return 1;

  TenantRegistryOptions options;
  // A root directory makes the tenants persistent, so the restart demo
  // below has something to recover.
  options.root_dir = root;
  options.pool_threads = 4;  // ONE pool for all tenants' fan-out.
  // Over-cap submissions are shed with Unavailable + retry-after instead of
  // queueing unboundedly (see the backpressure demo below).
  options.service.reject_over_capacity = true;

  {
    TenantRegistry registry(options);
    // metro pays for 3x the scheduling weight; campus is capped at ONE
    // query in flight, so its burst below actually sheds load.
    if (!Provision(&registry, metro,
                   TenantQoS{/*weight=*/3, /*max_inflight=*/0})
             .ok()) {
      return 1;
    }
    if (!Provision(&registry, campus,
                   TenantQoS{/*weight=*/1, /*max_inflight=*/1})
             .ok()) {
      return 1;
    }
    std::printf("registry hosts %zu tenants: metro-wifi (weight 3), "
                "campus-wifi (weight 1, max 1 in flight)\n",
                registry.NumTenants());

    // --- Sessions route by tenant ---------------------------------------
    auto metro_token = registry.OpenSession("metro-wifi", "ana", metro.proof);
    auto campus_token =
        registry.OpenSession("campus-wifi", "ana", campus.proof);
    if (!metro_token.ok() || !campus_token.ok()) return 1;

    // The same question to both tenants, fanned out as one batch on the
    // shared pool — different tenants, different data, different answers.
    Query occupancy;
    occupancy.agg = Aggregate::kCount;
    occupancy.key_values = {{4}};
    occupancy.time_lo = 0;
    occupancy.time_hi = 2 * 3600;
    auto results = registry.QueryBatch({
        {"metro-wifi", *metro_token, occupancy},
        {"campus-wifi", *campus_token, occupancy},
    });
    if (!results[0].ok() || !results[1].ok()) return 1;
    std::printf("count(room=4, 00:00-02:00): metro=%llu campus=%llu\n",
                (unsigned long long)results[0]->count,
                (unsigned long long)results[1]->count);

    // --- QoS: backpressure at the capped tenant, retry on the client ----
    // Four greedy clients hammer campus (cap: 1 in flight) with raw
    // queries: overlapping submissions come back Unavailable with the
    // service's own retry-after estimate attached. Meanwhile one
    // well-behaved client runs the SAME query through RetryQuery and must
    // succeed every time, riding out the rejections it hits.
    std::atomic<int> shed{0};
    std::mutex first_mu;
    std::string first_rejection;
    std::vector<std::thread> greedy;
    for (int c = 0; c < 4; ++c) {
      greedy.emplace_back([&] {
        for (int i = 0; i < 25; ++i) {
          auto r = registry.Query("campus-wifi", *campus_token, occupancy);
          if (!r.ok() && r.status().IsUnavailable()) {
            ++shed;
            std::lock_guard<std::mutex> lock(first_mu);
            if (first_rejection.empty()) {
              first_rejection = r.status().ToString();
            }
          }
        }
      });
    }
    int patient_ok = 0;
    std::thread patient([&] {
      for (int i = 0; i < 5; ++i) {
        if (RetryQuery(registry, "campus-wifi", *campus_token, occupancy)
                .ok()) {
          ++patient_ok;
        }
      }
    });
    for (auto& g : greedy) g.join();
    patient.join();
    std::printf("burst of 100 raw queries at campus: %d shed%s%s\n",
                shed.load(), first_rejection.empty() ? "" : ", e.g. ",
                first_rejection.c_str());
    std::printf("retrying client during the burst: %d/5 succeeded\n",
                patient_ok);
    if (patient_ok != 5) return 1;

    // --- Isolation: nothing of one tenant works against the other -------
    EncryptedEpoch stolen = metro.epochs[0];
    stolen.epoch_id = 99;  // Fresh id: the key boundary is the wall here,
                           // not the duplicate-epoch check.
    auto stolen_epoch = registry.IngestEpoch("campus-wifi", stolen);
    std::printf("metro epoch pushed at campus: %s\n",
                stolen_epoch.ToString().c_str());
    auto stolen_token =
        registry.Query("campus-wifi", *metro_token, occupancy);
    std::printf("metro session replayed at campus: %s\n",
                stolen_token.status().ToString().c_str());

    // --- Tenant churn ----------------------------------------------------
    if (!registry.DropTenant("metro-wifi").ok()) return 1;
    std::printf("metro-wifi dropped (segment dir unlinked); campus still "
                "answers: %s\n",
                registry.Query("campus-wifi", *campus_token, occupancy)
                        .ok()
                    ? "yes"
                    : "NO");
  }  // Registry destroyed: the process "stops".

  // --- Restart: recover every tenant directory left on disk -------------
  TenantRegistry reopened(options);
  const Status recovered = reopened.OpenAll(
      [&](const std::string& id) -> StatusOr<TenantRegistry::TenantCredentials> {
        // Key material arrives out of band, never from the untrusted disk.
        if (id == "campus-wifi") {
          return TenantRegistry::TenantCredentials{campus.config,
                                                   campus.dp->shared_secret()};
        }
        return Status::NotFound("no credentials for " + id);
      });
  std::printf("restart recovered %zu tenant(s): %s\n", reopened.NumTenants(),
              recovered.ToString().c_str());
  for (const auto& r : reopened.recovery_statuses()) {
    std::printf("  tenant %s: %s\n", r.tenant_id.c_str(),
                r.status.ToString().c_str());
  }
  if (!reopened.LoadRegistry("campus-wifi", campus.dp->EncryptedRegistry())
           .ok()) {
    return 1;
  }
  auto token = reopened.OpenSession("campus-wifi", "ana", campus.proof);
  if (!token.ok()) return 1;
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{7}};
  q.time_lo = 0;
  q.time_hi = 86399;
  auto after = reopened.Query("campus-wifi", *token, q);
  if (!after.ok()) return 1;
  std::printf("campus count(room=7, full day) after restart: %llu\n",
              (unsigned long long)after->count);

  if (std::system(("rm -rf '" + root + "'").c_str()) != 0) {
    return 1;
  }
  return 0;
}
