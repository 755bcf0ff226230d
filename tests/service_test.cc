// Multi-tenant QueryService tests: session lifecycle (one authentication
// amortized over many queries, expiry, invalid proofs), cross-query
// enclave-work cache correctness (hits change nothing but the work done),
// and the concurrency contract — many clients hammering mixed queries get
// answers byte-identical to a serial replay, in static and dynamic mode.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "baseline/cleartext_db.h"
#include "common/striped_map.h"
#include "concealer/data_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "service/query_service.h"
#include "workload/wifi_generator.h"

namespace concealer {
namespace {

ConcealerConfig ServiceTestConfig() {
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

std::vector<PlainTuple> ServiceTestTuples() {
  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 50;
  wifi.start_time = 0;
  wifi.duration_seconds = 2 * 86400;
  wifi.total_rows = 4000;
  wifi.seed = 99;
  WifiGenerator gen(wifi);
  return gen.Generate();
}

// A fake clock the tests advance by hand to drive session expiry.
struct FakeClock {
  std::shared_ptr<std::atomic<uint64_t>> now =
      std::make_shared<std::atomic<uint64_t>>(1000);
  SessionManager::Clock AsClock() const {
    auto n = now;
    return [n] { return n->load(); };
  }
};

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = ServiceTestConfig();
    tuples_ = ServiceTestTuples();
    dp_ = std::make_unique<DataProvider>(config_, Bytes(32, 0x24));
    ASSERT_TRUE(dp_->RegisterUser("alice", Slice("alice-secret", 12),
                                  tuples_[0].observation)
                    .ok());
    ASSERT_TRUE(dp_->RegisterUser("bob", Slice("bob-secret", 10), "").ok());
    oracle_ = std::make_unique<CleartextDb>(config_.time_quantum);
    oracle_->Insert(tuples_);
  }

  // Builds a service over a freshly ingested provider.
  std::unique_ptr<QueryService> MakeService(QueryServiceOptions options) {
    auto sp =
        std::make_unique<ServiceProvider>(config_, dp_->shared_secret());
    auto service = std::make_unique<QueryService>(std::move(sp), options);
    EXPECT_TRUE(service->LoadRegistry(dp_->EncryptedRegistry()).ok());
    auto epochs = dp_->EncryptAll(tuples_);
    EXPECT_TRUE(epochs.ok());
    for (const auto& e : *epochs) {
      EXPECT_TRUE(service->IngestEpoch(e).ok());
    }
    return service;
  }

  static Bytes Proof(const std::string& user, Slice secret) {
    return Registry::MakeProof(secret, user);
  }

  // A deterministic mixed workload: point, range (all methods), top-k,
  // threshold and verified queries spread over both epochs.
  static std::vector<Query> MixedQueries() {
    std::vector<Query> queries;
    for (uint64_t i = 0; i < 6; ++i) {
      Query point;
      point.agg = Aggregate::kCount;
      point.key_values = {{(i * 3) % 20}};
      point.time_lo = point.time_hi = (i * 7 + 2) * 3600;
      queries.push_back(point);
    }
    int mi = 0;
    for (RangeMethod m : {RangeMethod::kBPB, RangeMethod::kEBPB,
                          RangeMethod::kWinSecRange}) {
      Query range;
      range.agg = Aggregate::kCount;
      range.key_values = {{static_cast<uint64_t>(4 + mi)}};
      range.time_lo = (3 + mi) * 3600;
      range.time_hi = (6 + mi) * 3600;
      range.method = m;
      queries.push_back(range);
      ++mi;
    }
    Query topk;
    topk.agg = Aggregate::kTopK;
    topk.k = 4;
    topk.time_lo = 9 * 3600;
    topk.time_hi = 11 * 3600;
    queries.push_back(topk);
    Query threshold;
    threshold.agg = Aggregate::kThresholdKeys;
    threshold.threshold = 5;
    threshold.time_lo = 86400 + 8 * 3600;
    threshold.time_hi = 86400 + 12 * 3600;
    queries.push_back(threshold);
    Query verified;
    verified.agg = Aggregate::kCount;
    verified.key_values = {{7}};
    verified.time_lo = 10 * 3600;
    verified.time_hi = 12 * 3600;
    verified.verify = true;
    queries.push_back(verified);
    return queries;
  }

  ConcealerConfig config_;
  std::vector<PlainTuple> tuples_;
  std::unique_ptr<DataProvider> dp_;
  std::unique_ptr<CleartextDb> oracle_;
};

// --- Sessions ---------------------------------------------------------

TEST_F(QueryServiceTest, OneAuthenticationServesManyQueries) {
  auto service = MakeService({});
  auto token =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  EXPECT_EQ(service->sessions().authentications(), 1u);

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};
  q.time_lo = 8 * 3600;
  q.time_hi = 9 * 3600;
  for (int i = 0; i < 5; ++i) {
    auto got = service->Execute(*token, q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->count, oracle_->Execute(q)->count);
  }
  // Still exactly one proof check: queries rode the session.
  EXPECT_EQ(service->sessions().authentications(), 1u);
  EXPECT_EQ(service->sessions().ActiveSessions(), 1u);

  service->CloseSession(*token);
  EXPECT_TRUE(service->Execute(*token, q).status().IsPermissionDenied());
}

TEST_F(QueryServiceTest, SessionExpiresOnTtl) {
  FakeClock clock;
  QueryServiceOptions options;
  options.session_ttl_seconds = 60;
  options.clock = clock.AsClock();
  auto service = MakeService(options);

  auto token =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(token.ok());

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{2}};
  q.time_lo = q.time_hi = 5 * 3600;
  ASSERT_TRUE(service->Execute(*token, q).ok());

  clock.now->store(1000 + 59);  // Still inside the TTL.
  ASSERT_TRUE(service->Execute(*token, q).ok());

  clock.now->store(1000 + 60);  // TTL boundary: expired.
  EXPECT_TRUE(service->Execute(*token, q).status().IsPermissionDenied());
  EXPECT_EQ(service->sessions().ActiveSessions(), 0u);

  // Re-authentication opens a fresh session.
  auto again =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(service->Execute(*again, q).ok());
}

TEST_F(QueryServiceTest, BadProofsAndTokensRejected) {
  auto service = MakeService({});
  EXPECT_TRUE(service->OpenSession("mallory", Slice("nope"))
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(service->OpenSession("alice", Slice("wrong-secret"))
                  .status()
                  .IsPermissionDenied());
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{1}};
  q.time_lo = q.time_hi = 3600;
  EXPECT_TRUE(
      service->Execute("not-a-token", q).status().IsPermissionDenied());
}

TEST_F(QueryServiceTest, IndividualizedQueriesRestrictedToOwnObservation) {
  auto service = MakeService({});
  auto alice = service->OpenSession(
      "alice", Proof("alice", Slice("alice-secret", 12)));
  auto bob =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  Query q;
  q.agg = Aggregate::kKeysWithObservation;
  q.observation = tuples_[0].observation;  // Alice's device.
  q.time_lo = 0;
  q.time_hi = 86399;
  EXPECT_TRUE(service->Execute(*alice, q).ok());
  EXPECT_TRUE(service->Execute(*bob, q).status().IsPermissionDenied());
  q.observation = "someone-elses-device";
  EXPECT_TRUE(service->Execute(*alice, q).status().IsPermissionDenied());
}

TEST_F(QueryServiceTest, EncryptedResultsRoundTripUnderSessionKey) {
  auto service = MakeService({});
  const Bytes proof = Proof("alice", Slice("alice-secret", 12));
  auto token = service->OpenSession("alice", proof);
  ASSERT_TRUE(token.ok());

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{6}};
  q.time_lo = 7 * 3600;
  q.time_hi = 9 * 3600;

  auto blob = service->ExecuteEncrypted(*token, q);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto plain = QueryService::DecryptResult(proof, "alice", *blob);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto direct = service->Execute(*token, q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(SerializeQueryResult(*plain), SerializeQueryResult(*direct));

  // A different user's proof cannot decrypt the blob.
  EXPECT_FALSE(QueryService::DecryptResult(
                   Proof("bob", Slice("bob-secret", 10)), "bob", *blob)
                   .ok());
}

// --- Cross-query work cache -------------------------------------------

TEST_F(QueryServiceTest, CacheHitsLeaveAnswersByteIdentical) {
  auto cached = MakeService({});
  QueryServiceOptions no_cache;
  no_cache.enable_work_cache = false;
  auto uncached = MakeService(no_cache);

  auto t1 = cached->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  auto t2 =
      uncached->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());

  for (const Query& q : MixedQueries()) {
    auto with = cached->Execute(*t1, q);
    auto without = uncached->Execute(*t2, q);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*with), SerializeQueryResult(*without));
  }
  EXPECT_GT(cached->cache_stats().trapdoor_entries, 0u);
  auto stats = uncached->cache_stats();
  EXPECT_EQ(stats.trapdoor_hits + stats.trapdoor_misses, 0u);
}

TEST_F(QueryServiceTest, RepeatedQueriesHitTheCache) {
  auto service = MakeService({});
  auto token =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(token.ok());

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{3}};
  q.time_lo = 4 * 3600;
  q.time_hi = 5 * 3600;

  auto first = service->Execute(*token, q);
  ASSERT_TRUE(first.ok());
  const auto cold = service->cache_stats();
  EXPECT_GT(cold.trapdoor_misses, 0u);

  // Same cells again (another "user" asking the same thing): the trapdoor
  // work is reused, and the answer is byte-identical.
  auto second = service->Execute(*token, q);
  ASSERT_TRUE(second.ok());
  const auto warm = service->cache_stats();
  EXPECT_GT(warm.trapdoor_hits, cold.trapdoor_hits);
  EXPECT_EQ(warm.trapdoor_misses, cold.trapdoor_misses);
  EXPECT_EQ(SerializeQueryResult(*first), SerializeQueryResult(*second));
}

TEST_F(QueryServiceTest, ObliviousQueriesBypassTheCache) {
  auto service = MakeService({});
  auto token =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(token.ok());

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{5}};
  q.time_lo = q.time_hi = 6 * 3600;
  q.oblivious = true;
  auto got = service->Execute(*token, q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->count, oracle_->Execute(q)->count);
  const auto stats = service->cache_stats();
  EXPECT_EQ(stats.trapdoor_hits + stats.trapdoor_misses, 0u);
  EXPECT_EQ(stats.filter_hits + stats.filter_misses, 0u);
}

// --- Concurrency ------------------------------------------------------

// The headline contract: N client threads hammering mixed queries receive
// exactly the bytes a serial replay of the same queries produces.
TEST_F(QueryServiceTest, ConcurrentClientsMatchSerialReplayByteForByte) {
  QueryServiceOptions options;
  options.max_inflight = 8;
  auto service = MakeService(options);

  const std::vector<Query> queries = MixedQueries();

  // Serial replay through one session gives the reference bytes.
  auto ref_token =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(ref_token.ok());
  std::vector<Bytes> expected;
  for (const Query& q : queries) {
    auto got = service->Execute(*ref_token, q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    expected.push_back(SerializeQueryResult(*got));
  }

  // 8 simulated users, each with their own session, each running the whole
  // mixed workload a few times concurrently.
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::string> tokens;
  for (int i = 0; i < kThreads; ++i) {
    auto token =
        service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Interleave differently per thread so cold/warm cache states mix.
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t qi = (i + t) % queries.size();
          auto got = service->Execute(tokens[t], queries[qi]);
          if (!got.ok()) {
            ++failures;
            continue;
          }
          if (SerializeQueryResult(*got) != expected[qi]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(QueryServiceTest, BatchSchedulerMatchesSerialExecution) {
  QueryServiceOptions options;
  options.scheduler_threads = 4;
  options.max_inflight = 2;  // Exercise the admission gate under the pool.
  auto service = MakeService(options);
  auto token =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(token.ok());

  std::vector<QueryService::SessionQuery> batch;
  for (const Query& q : MixedQueries()) batch.push_back({*token, q});
  // One poisoned entry: its failure must stay in its own slot.
  batch.push_back({"bogus-token", batch[0].query});

  auto results = service->ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i + 1 < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    auto serial = service->Execute(*token, batch[i].query);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(SerializeQueryResult(*results[i]),
              SerializeQueryResult(*serial));
  }
  EXPECT_TRUE(results.back().status().IsPermissionDenied());
}

// Dynamic mode (§6) rewrites rows on every query; the service serializes
// those writers behind the epoch lock, so concurrent clients still get
// correct (oracle-matching) counts on every round.
TEST_F(QueryServiceTest, DynamicModeConcurrentWritersStayCorrect) {
  auto service = MakeService({});
  service->set_dynamic_mode(true);
  auto token =
      service->OpenSession("bob", Proof("bob", Slice("bob-secret", 10)));
  ASSERT_TRUE(token.ok());

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};
  q.time_lo = 8 * 3600;
  q.time_hi = 9 * 3600;
  const uint64_t want = oracle_->Execute(q)->count;

  constexpr int kThreads = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        auto got = service->Execute(*token, q);
        if (!got.ok() || got->count != want) ++wrong;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  auto state = service->provider()->epoch_state(0);
  ASSERT_TRUE(state.ok());
  EXPECT_GT((*state)->reenc_counter(), 0u);
}

// --- StripedMap unit coverage -----------------------------------------

TEST(StripedMapTest, GetOrComputeComputesOncePerKey) {
  StripedMap<std::string, int> map(4);
  std::atomic<int> computes{0};
  auto compute = [&] {
    ++computes;
    return 42;
  };
  EXPECT_EQ(*map.GetOrCompute("k", compute), 42);
  EXPECT_EQ(*map.GetOrCompute("k", compute), 42);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(map.hits(), 1u);
  EXPECT_EQ(map.misses(), 1u);
  EXPECT_EQ(map.size(), 1u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
}

TEST(StripedMapTest, EntryCapBoundsSizeAndStaysCorrect) {
  StripedMap<int, int> map(2, /*max_entries=*/8);  // <= 4 per shard.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*map.GetOrCompute(i, [i] { return i * 3; }), i * 3);
  }
  EXPECT_LE(map.size(), 8u);
  // Flushed entries simply recompute; values stay correct.
  EXPECT_EQ(*map.GetOrCompute(7, [] { return 21; }), 21);
}

TEST(StripedMapTest, ConcurrentMixedKeysConverge) {
  StripedMap<int, int> map(8);
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const int key = (i * 7 + t) % kKeys;
        auto v = map.GetOrCompute(key, [key] { return key * key; });
        if (*v != key * key) ++bad;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(map.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(map.hits() + map.misses(),
            static_cast<uint64_t>(kThreads * 500));
}

}  // namespace
}  // namespace concealer
