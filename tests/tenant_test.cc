// TenantRegistry tests: routing and per-tenant isolation (sessions, key
// material, work caches), cross-tenant ciphertext rejection, DropTenant
// under concurrent traffic to other tenants, and restart recovery of every
// tenant directory with per-tenant status surfacing.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "concealer/data_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "service/tenant_registry.h"
#include "storage/segment_engine.h"
#include "workload/wifi_generator.h"
#include "test_dir.h"

namespace concealer {
namespace {

bool DirExists(const std::string& dir) {
  struct stat st;
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

ConcealerConfig TenantTestConfig() {
  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {20};
  config.time_buckets = 24;
  config.num_cell_ids = 40;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;
  config.make_hash_chains = true;
  return config;
}

/// Everything the DP side holds for one tenant: its own enclave secret,
/// its own user base, its own data. `seed` differentiates all three.
struct TenantFixture {
  std::string id;
  ConcealerConfig config;
  std::unique_ptr<DataProvider> dp;
  std::vector<PlainTuple> tuples;
  std::vector<EncryptedEpoch> epochs;
  Bytes user_secret;
};

TenantFixture MakeTenant(const std::string& id, uint8_t seed,
                         uint64_t days = 2) {
  TenantFixture t;
  t.id = id;
  t.config = TenantTestConfig();
  t.dp = std::make_unique<DataProvider>(t.config, Bytes(32, seed));
  const std::string secret = "secret-" + id;
  t.user_secret = Bytes(secret.begin(), secret.end());
  EXPECT_TRUE(t.dp->RegisterUser("alice", t.user_secret, "").ok());
  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 50;
  wifi.start_time = 0;
  wifi.duration_seconds = days * 86400;
  wifi.total_rows = 1200 * days;
  wifi.seed = seed;
  t.tuples = WifiGenerator(wifi).Generate();
  auto epochs = t.dp->EncryptAll(t.tuples);
  EXPECT_TRUE(epochs.ok());
  t.epochs = std::move(*epochs);
  return t;
}

Bytes AliceProof(const TenantFixture& t) {
  return Registry::MakeProof(t.user_secret, "alice");
}

void Provision(TenantRegistry* registry, const TenantFixture& t) {
  ASSERT_TRUE(
      registry->CreateTenant(t.id, t.config, t.dp->shared_secret()).ok());
  ASSERT_TRUE(registry->LoadRegistry(t.id, t.dp->EncryptedRegistry()).ok());
  for (const auto& e : t.epochs) {
    ASSERT_TRUE(registry->IngestEpoch(t.id, e).ok());
  }
}

/// Mixed point/range/top-k workload over the 2-day span.
std::vector<Query> TenantQueries() {
  std::vector<Query> queries;
  for (uint64_t i = 0; i < 4; ++i) {
    Query point;
    point.agg = Aggregate::kCount;
    point.key_values = {{(i * 5) % 20}};
    point.time_lo = point.time_hi = (i * 11 + 3) * 3600;
    queries.push_back(point);
  }
  Query range;
  range.agg = Aggregate::kCount;
  range.key_values = {{6}};
  range.time_lo = 8 * 3600;
  range.time_hi = 11 * 3600;
  queries.push_back(range);
  range.method = RangeMethod::kEBPB;
  range.time_lo = 86400 + 7 * 3600;
  range.time_hi = 86400 + 9 * 3600;
  queries.push_back(range);
  Query verified;
  verified.agg = Aggregate::kCount;
  verified.key_values = {{3}};
  verified.time_lo = 10 * 3600;
  verified.time_hi = 12 * 3600;
  verified.verify = true;
  queries.push_back(verified);
  Query topk;
  topk.agg = Aggregate::kTopK;
  topk.k = 3;
  topk.time_lo = 9 * 3600;
  topk.time_hi = 12 * 3600;
  queries.push_back(topk);
  return queries;
}

/// Reference bytes from a dedicated single-tenant service over the same
/// key material and data — what the registry must match byte for byte.
std::vector<Bytes> DedicatedAnswers(const TenantFixture& t,
                                    const std::vector<Query>& queries) {
  auto provider = ServiceProvider::Open(t.config, t.dp->shared_secret());
  EXPECT_TRUE(provider.ok()) << provider.status().ToString();
  QueryService service(std::move(*provider), QueryServiceOptions{});
  EXPECT_TRUE(service.LoadRegistry(t.dp->EncryptedRegistry()).ok());
  for (const auto& e : t.epochs) {
    EXPECT_TRUE(service.IngestEpoch(e).ok());
  }
  auto token = service.OpenSession("alice", AliceProof(t));
  EXPECT_TRUE(token.ok());
  std::vector<Bytes> out;
  for (const Query& q : queries) {
    auto got = service.Execute(*token, q);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    out.push_back(got.ok() ? SerializeQueryResult(*got) : Bytes{});
  }
  return out;
}

class TenantTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = TempDir(); }
  void TearDown() override { RemoveDirRecursive(root_); }

  TenantRegistryOptions Options() {
    TenantRegistryOptions options;
    options.root_dir = root_;
    options.pool_threads = 4;
    return options;
  }

  std::string root_;
};

TEST_F(TenantTest, RoutesQueriesToTheRightTenant) {
  TenantRegistry registry(Options());
  TenantFixture acme = MakeTenant("acme", 0x61);
  TenantFixture bolt = MakeTenant("bolt", 0x62);
  Provision(&registry, acme);
  Provision(&registry, bolt);
  EXPECT_EQ(registry.NumTenants(), 2u);
  EXPECT_EQ(registry.TenantIds(), (std::vector<std::string>{"acme", "bolt"}));

  const std::vector<Query> queries = TenantQueries();
  const std::vector<Bytes> want_acme = DedicatedAnswers(acme, queries);
  const std::vector<Bytes> want_bolt = DedicatedAnswers(bolt, queries);

  auto acme_token = registry.OpenSession("acme", "alice", AliceProof(acme));
  auto bolt_token = registry.OpenSession("bolt", "alice", AliceProof(bolt));
  ASSERT_TRUE(acme_token.ok()) << acme_token.status().ToString();
  ASSERT_TRUE(bolt_token.ok()) << bolt_token.status().ToString();

  for (size_t i = 0; i < queries.size(); ++i) {
    auto a = registry.Query("acme", *acme_token, queries[i]);
    auto b = registry.Query("bolt", *bolt_token, queries[i]);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*a), want_acme[i]) << "query " << i;
    EXPECT_EQ(SerializeQueryResult(*b), want_bolt[i]) << "query " << i;
  }
  // Same user name, same query — different tenants, different data.
  EXPECT_NE(want_acme, want_bolt);

  // A cross-tenant batch fans out on the shared pool; every result lands
  // in its own slot with its own tenant's bytes.
  std::vector<TenantRegistry::TenantQuery> batch;
  for (size_t i = 0; i < queries.size(); ++i) {
    batch.push_back({"acme", *acme_token, queries[i]});
    batch.push_back({"bolt", *bolt_token, queries[i]});
  }
  batch.push_back({"ghost", *acme_token, queries[0]});
  auto results = registry.QueryBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[2 * i].ok());
    ASSERT_TRUE(results[2 * i + 1].ok());
    EXPECT_EQ(SerializeQueryResult(*results[2 * i]), want_acme[i]);
    EXPECT_EQ(SerializeQueryResult(*results[2 * i + 1]), want_bolt[i]);
  }
  EXPECT_TRUE(results.back().status().IsNotFound());

  // Unknown tenants are NotFound; sessions do not cross tenants.
  EXPECT_TRUE(
      registry.Query("ghost", *acme_token, queries[0]).status().IsNotFound());
  EXPECT_TRUE(registry.Query("bolt", *acme_token, queries[0])
                  .status()
                  .IsPermissionDenied());
}

// Blocking admission on the shared pool's own threads: a batch wider than
// the tenant's admission cap parks pool workers on the gate while the
// slot holders' fetch fan-outs run on the same pool, and every answer
// still equals a serial Query's.
TEST_F(TenantTest, BlockingAdmissionBatchMatchesSerialQueries) {
  TenantRegistryOptions options = Options();
  options.service.max_inflight = 2;  // Blocking mode is the default.
  TenantRegistry registry(options);
  TenantFixture acme = MakeTenant("acme", 0x65);
  Provision(&registry, acme);
  auto token = registry.OpenSession("acme", "alice", AliceProof(acme));
  ASSERT_TRUE(token.ok()) << token.status().ToString();

  std::vector<TenantRegistry::TenantQuery> batch;
  for (const Query& q : TenantQueries()) batch.push_back({"acme", *token, q});
  for (const Query& q : TenantQueries()) batch.push_back({"acme", *token, q});
  // One poisoned entry: its failure must stay in its own slot.
  batch.push_back({"acme", "bogus-token", batch[0].query});

  auto results = registry.QueryBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i + 1 < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    auto serial = registry.Query("acme", *token, batch[i].query);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*results[i]), SerializeQueryResult(*serial))
        << "query " << i;
  }
  EXPECT_TRUE(results.back().status().IsPermissionDenied());
  // Blocking mode queues over-cap arrivals instead of rejecting them.
  auto service = registry.tenant("acme");
  ASSERT_TRUE(service.ok());
  const AdmissionGate::Stats admission = (*service)->admission_stats();
  EXPECT_EQ(admission.capacity, 2u);
  EXPECT_FALSE(admission.reject_over_capacity);
  EXPECT_EQ(admission.rejected, 0u);
}

TEST_F(TenantTest, CrossTenantCiphertextsFailUnderOtherKeys) {
  TenantRegistry registry(Options());
  TenantFixture acme = MakeTenant("acme", 0x63, /*days=*/1);
  TenantFixture bolt = MakeTenant("bolt", 0x64, /*days=*/1);
  Provision(&registry, acme);
  // bolt gets a service and its own registry, but no epochs yet.
  ASSERT_TRUE(
      registry.CreateTenant("bolt", bolt.config, bolt.dp->shared_secret())
          .ok());
  ASSERT_TRUE(
      registry.LoadRegistry("bolt", bolt.dp->EncryptedRegistry()).ok());

  // An epoch encrypted under acme's enclave secret cannot be adopted by
  // bolt: the enclave-side layout/tag blobs are authenticated, so the
  // wrong key fails decryption instead of producing garbage state.
  const Status stolen = registry.IngestEpoch("bolt", acme.epochs[0]);
  EXPECT_FALSE(stolen.ok());
  EXPECT_TRUE(stolen.IsCorruption()) << stolen.ToString();

  // acme's encrypted user registry is equally unreadable to bolt.
  const Status reg = registry.LoadRegistry("bolt", acme.dp->EncryptedRegistry());
  EXPECT_FALSE(reg.ok());

  // And a proof minted against acme's registry opens nothing on bolt.
  EXPECT_TRUE(registry.OpenSession("bolt", "alice", AliceProof(acme))
                  .status()
                  .IsPermissionDenied());

  // The sabotage attempts left bolt fully functional for its own users.
  ASSERT_TRUE(registry.IngestEpoch("bolt", bolt.epochs[0]).ok());
  auto token = registry.OpenSession("bolt", "alice", AliceProof(bolt));
  ASSERT_TRUE(token.ok());
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};
  q.time_lo = 6 * 3600;
  q.time_hi = 8 * 3600;
  EXPECT_TRUE(registry.Query("bolt", *token, q).ok());
}

TEST_F(TenantTest, DropTenantLeavesOtherTenantsByteIdentical) {
  TenantRegistry registry(Options());
  TenantFixture acme = MakeTenant("acme", 0x65);
  TenantFixture bolt = MakeTenant("bolt", 0x66);
  Provision(&registry, acme);
  Provision(&registry, bolt);

  const std::string acme_dir = root_ + "/acme";
  ASSERT_TRUE(DirExists(acme_dir));

  const std::vector<Query> queries = TenantQueries();
  auto bolt_token = registry.OpenSession("bolt", "alice", AliceProof(bolt));
  ASSERT_TRUE(bolt_token.ok());
  std::vector<Bytes> want;
  for (const Query& q : queries) {
    auto got = registry.Query("bolt", *bolt_token, q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    want.push_back(SerializeQueryResult(*got));
  }

  // Hammer bolt from several threads while acme is dropped mid-flight.
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t qi = (i + t) % queries.size();
          auto got = registry.Query("bolt", *bolt_token, queries[qi]);
          if (!got.ok()) {
            ++failures;
          } else if (SerializeQueryResult(*got) != want[qi]) {
            ++mismatches;
          }
        }
      }
    });
  }
  ASSERT_TRUE(registry.DropTenant("acme").ok());
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // acme is gone — routing, sessions and disk.
  EXPECT_TRUE(registry.Query("acme", "tok", queries[0]).status().IsNotFound());
  EXPECT_TRUE(registry.OpenSession("acme", "alice", AliceProof(acme))
                  .status()
                  .IsNotFound());
  EXPECT_EQ(registry.NumTenants(), 1u);
  EXPECT_FALSE(DirExists(acme_dir));
  EXPECT_TRUE(registry.DropTenant("acme").IsNotFound());

  // bolt still serves, byte-identically.
  auto after = registry.Query("bolt", *bolt_token, queries[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(SerializeQueryResult(*after), want[0]);
}

TEST_F(TenantTest, RestartRecoversAllTenants) {
  const TenantRegistryOptions options = Options();
  TenantFixture acme = MakeTenant("acme", 0x67);
  TenantFixture bolt = MakeTenant("bolt", 0x68);
  const std::vector<Query> queries = TenantQueries();
  std::vector<Bytes> want_acme;
  std::vector<Bytes> want_bolt;
  {
    TenantRegistry registry(options);
    Provision(&registry, acme);
    Provision(&registry, bolt);
    auto acme_token = registry.OpenSession("acme", "alice", AliceProof(acme));
    auto bolt_token = registry.OpenSession("bolt", "alice", AliceProof(bolt));
    ASSERT_TRUE(acme_token.ok());
    ASSERT_TRUE(bolt_token.ok());
    for (const Query& q : queries) {
      auto a = registry.Query("acme", *acme_token, q);
      auto b = registry.Query("bolt", *bolt_token, q);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      want_acme.push_back(SerializeQueryResult(*a));
      want_bolt.push_back(SerializeQueryResult(*b));
    }
  }  // Registry destroyed: every tenant engine sealed and unmapped.

  // A stray directory that resolves to no credentials must not block the
  // healthy tenants — it lands in recovery_statuses() instead.
  ASSERT_EQ(::mkdir((root_ + "/ghost").c_str(), 0755), 0);

  TenantRegistry reopened(options);
  const auto resolver = [&](const std::string& id)
      -> StatusOr<TenantRegistry::TenantCredentials> {
    if (id == "acme") {
      return TenantRegistry::TenantCredentials{acme.config,
                                               acme.dp->shared_secret()};
    }
    if (id == "bolt") {
      return TenantRegistry::TenantCredentials{bolt.config,
                                               bolt.dp->shared_secret()};
    }
    return Status::NotFound("no credentials for tenant: " + id);
  };
  const Status all = reopened.OpenAll(resolver);
  EXPECT_FALSE(all.ok());  // The ghost dir is surfaced...
  EXPECT_EQ(reopened.NumTenants(), 2u);  // ...but both real tenants opened.

  size_t ok_tenants = 0;
  bool ghost_recorded = false;
  for (const auto& r : reopened.recovery_statuses()) {
    if (r.tenant_id == "ghost") {
      ghost_recorded = true;
      EXPECT_FALSE(r.status.ok());
    } else {
      EXPECT_TRUE(r.status.ok()) << r.tenant_id << ": " << r.status.ToString();
      ++ok_tenants;
    }
  }
  EXPECT_TRUE(ghost_recorded);
  EXPECT_EQ(ok_tenants, 2u);
  EXPECT_FALSE(reopened.AggregateRecoveryStatus().ok());

  // A retried OpenAll REPLACES stale per-tenant outcomes instead of
  // piling duplicates beside them (healthy tenants are skipped, the
  // ghost keeps exactly one — current — entry).
  EXPECT_FALSE(reopened.OpenAll(resolver).ok());
  size_t ghost_entries = 0;
  for (const auto& r : reopened.recovery_statuses()) {
    if (r.tenant_id == "ghost") ++ghost_entries;
  }
  EXPECT_EQ(ghost_entries, 1u);
  EXPECT_EQ(reopened.recovery_statuses().size(), 3u);

  // Every answer from every recovered tenant is byte-identical — no epochs
  // were re-shipped, the segment directories alone carried the state.
  ASSERT_TRUE(reopened.LoadRegistry("acme", acme.dp->EncryptedRegistry()).ok());
  ASSERT_TRUE(reopened.LoadRegistry("bolt", bolt.dp->EncryptedRegistry()).ok());
  auto acme_token = reopened.OpenSession("acme", "alice", AliceProof(acme));
  auto bolt_token = reopened.OpenSession("bolt", "alice", AliceProof(bolt));
  ASSERT_TRUE(acme_token.ok());
  ASSERT_TRUE(bolt_token.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto a = reopened.Query("acme", *acme_token, queries[i]);
    auto b = reopened.Query("bolt", *bolt_token, queries[i]);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*a), want_acme[i]) << "query " << i;
    EXPECT_EQ(SerializeQueryResult(*b), want_bolt[i]) << "query " << i;
  }
}

TEST_F(TenantTest, InvalidIdsAndDuplicatesRejected) {
  TenantRegistry registry(Options());
  TenantFixture t = MakeTenant("valid-id", 0x6b, /*days=*/1);

  for (const std::string& bad :
       {std::string(""), std::string("."), std::string(".."),
        std::string("a/b"), std::string("a b"), std::string("tenant\n"),
        std::string(65, 'a')}) {
    EXPECT_TRUE(registry.CreateTenant(bad, t.config, t.dp->shared_secret())
                    .IsInvalidArgument())
        << "id: '" << bad << "'";
  }
  EXPECT_FALSE(IsValidTenantId("a/b"));
  EXPECT_TRUE(IsValidTenantId("tenant-1.prod_eu"));

  ASSERT_TRUE(
      registry.CreateTenant("valid-id", t.config, t.dp->shared_secret()).ok());
  EXPECT_TRUE(registry.CreateTenant("valid-id", t.config,
                                    t.dp->shared_secret())
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.DropTenant("never-created").IsNotFound());
}

// Without a root_dir every tenant gets its own ephemeral directory: it
// serves queries, and dropping the tenant removes the directory. There is
// nothing to recover, so OpenAll refuses.
TEST(TenantEphemeralTest, EmptyRootServesTenantsAndLeavesNoDirectory) {
  TenantRegistry registry(TenantRegistryOptions{});
  TenantFixture acme = MakeTenant("acme", 0x6c, /*days=*/1);
  Provision(&registry, acme);
  auto token = registry.OpenSession("acme", "alice", AliceProof(acme));
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};
  q.time_lo = 6 * 3600;
  q.time_hi = 8 * 3600;
  auto got = registry.Query("acme", *token, q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got->rows_fetched, 0u);

  auto service = registry.tenant("acme");
  ASSERT_TRUE(service.ok());
  const ServiceProvider* sp = (*service)->provider();
  EXPECT_FALSE(sp->persistent());
  const std::string dir =
      static_cast<const SegmentEngine&>(sp->table().engine()).dir();
  ASSERT_TRUE(DirExists(dir));
  ASSERT_TRUE(registry.DropTenant("acme").ok());
  EXPECT_FALSE(DirExists(dir));

  const auto resolver = [](const std::string& id)
      -> StatusOr<TenantRegistry::TenantCredentials> {
    return Status::NotFound("no credentials for tenant: " + id);
  };
  EXPECT_TRUE(registry.OpenAll(resolver).IsInvalidArgument());
}

}  // namespace
}  // namespace concealer
