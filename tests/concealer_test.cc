// End-to-end integration tests: DP encrypts, SP ingests, the enclave
// executes queries — answers must match the cleartext oracle for every
// method (BPB / eBPB / winSecRange), in plain and oblivious mode, with and
// without verification; plus the security properties (volume hiding,
// tamper detection, fake/real structure, authorization).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "baseline/cleartext_db.h"
#include "baseline/opaque_scan.h"
#include "common/random.h"
#include "concealer/client.h"
#include "concealer/data_provider.h"
#include "concealer/epoch_io.h"
#include "concealer/service_provider.h"
#include "concealer/wire.h"
#include "crypto/aes_backend.h"
#include "crypto/sha256.h"
#include "workload/wifi_generator.h"

namespace concealer {
namespace {

ConcealerConfig TestConfig() {
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

WifiConfig TestWorkload() {
  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 50;
  wifi.start_time = 0;
  wifi.duration_seconds = 2 * 86400;
  wifi.total_rows = 4000;
  wifi.seed = 77;
  return wifi;
}

// Shared pipeline: encrypting the dataset once keeps the suite fast.
class ConcealerE2ETest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ConcealerConfig(TestConfig());
    WifiGenerator gen(TestWorkload());
    tuples_ = new std::vector<PlainTuple>(gen.Generate());

    dp_ = new DataProvider(*config_, Bytes(32, 0x42));
    ASSERT_TRUE(dp_->RegisterUser("alice", Slice("alice-secret", 12),
                                  (*tuples_)[0].observation)
                    .ok());
    ASSERT_TRUE(dp_->RegisterUser("bob", Slice("bob-secret", 10), "").ok());

    oracle_ = new CleartextDb(config_->time_quantum);
    oracle_->Insert(*tuples_);

    sp_ = new ServiceProvider(*config_, dp_->shared_secret());
    ASSERT_TRUE(sp_->LoadRegistry(dp_->EncryptedRegistry()).ok());
    auto epochs = dp_->EncryptAll(*tuples_);
    ASSERT_TRUE(epochs.ok());
    ASSERT_EQ(epochs->size(), 2u);
    for (const auto& epoch : *epochs) {
      ASSERT_TRUE(sp_->IngestEpoch(epoch).ok());
    }
  }

  static void TearDownTestSuite() {
    delete sp_;
    delete oracle_;
    delete dp_;
    delete tuples_;
    delete config_;
    sp_ = nullptr;
  }

  // Runs the query through Concealer and the oracle; both must agree.
  void ExpectMatchesOracle(const Query& query) {
    auto got = sp_->Execute(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = oracle_->Execute(query);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->count, want->count);
    EXPECT_EQ(got->rows_matched, want->rows_matched);
    EXPECT_EQ(got->keyed_counts, want->keyed_counts);
  }

  static ConcealerConfig* config_;
  static std::vector<PlainTuple>* tuples_;
  static DataProvider* dp_;
  static CleartextDb* oracle_;
  static ServiceProvider* sp_;
};

ConcealerConfig* ConcealerE2ETest::config_ = nullptr;
std::vector<PlainTuple>* ConcealerE2ETest::tuples_ = nullptr;
DataProvider* ConcealerE2ETest::dp_ = nullptr;
CleartextDb* ConcealerE2ETest::oracle_ = nullptr;
ServiceProvider* ConcealerE2ETest::sp_ = nullptr;

Query PointQuery(uint64_t location, uint64_t t) {
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{location}};
  q.time_lo = t;
  q.time_hi = t;
  return q;
}

Query RangeQuery(uint64_t location, uint64_t lo, uint64_t hi,
                 RangeMethod method) {
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{location}};
  q.time_lo = lo;
  q.time_hi = hi;
  q.method = method;
  return q;
}

TEST_F(ConcealerE2ETest, PointQueriesMatchOracle) {
  Rng rng(1);
  for (int i = 0; i < 6; ++i) {
    const uint64_t loc = rng.Uniform(20);
    const uint64_t t = rng.Uniform(2 * 86400) / 60 * 60;
    ExpectMatchesOracle(PointQuery(loc, t));
  }
}

TEST_F(ConcealerE2ETest, PointQueryWithVerification) {
  Query q = PointQuery(3, 9 * 3600);
  q.verify = true;
  auto got = sp_->Execute(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->verified);
  auto want = oracle_->Execute(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->count, want->count);
}

TEST_F(ConcealerE2ETest, ObliviousPointQueryMatchesOracle) {
  Query q = PointQuery(5, 12 * 3600);
  q.oblivious = true;
  ExpectMatchesOracle(q);
}

class RangeMethodTest
    : public ConcealerE2ETest,
      public ::testing::WithParamInterface<std::tuple<RangeMethod, bool>> {};

TEST_P(RangeMethodTest, RangeCountMatchesOracle) {
  const auto [method, oblivious] = GetParam();
  Query q = RangeQuery(2, 10 * 3600, 10 * 3600 + 20 * 60, method);
  q.oblivious = oblivious;
  ExpectMatchesOracle(q);
}

TEST_P(RangeMethodTest, CrossEpochRangeMatchesOracle) {
  const auto [method, oblivious] = GetParam();
  // 22:00 day 1 to 02:00 day 2 spans both epochs.
  Query q = RangeQuery(1, 22 * 3600, 86400 + 2 * 3600, method);
  q.oblivious = oblivious;
  ExpectMatchesOracle(q);
}

std::string RangeMethodName(
    const ::testing::TestParamInfo<std::tuple<RangeMethod, bool>>& info) {
  const RangeMethod m = std::get<0>(info.param);
  const bool oblivious = std::get<1>(info.param);
  std::string name = m == RangeMethod::kBPB    ? "BPB"
                     : m == RangeMethod::kEBPB ? "eBPB"
                                               : "winSecRange";
  return name + (oblivious ? "Oblivious" : "Plain");
}

INSTANTIATE_TEST_SUITE_P(
    Methods, RangeMethodTest,
    ::testing::Combine(::testing::Values(RangeMethod::kBPB,
                                         RangeMethod::kEBPB,
                                         RangeMethod::kWinSecRange),
                       ::testing::Bool()),
    RangeMethodName);

TEST_F(ConcealerE2ETest, TopKLocationsMatchesOracle) {
  Query q;
  q.agg = Aggregate::kTopK;
  q.k = 5;
  q.time_lo = 9 * 3600;
  q.time_hi = 11 * 3600;
  ExpectMatchesOracle(q);
}

TEST_F(ConcealerE2ETest, ThresholdLocationsMatchesOracle) {
  Query q;
  q.agg = Aggregate::kThresholdKeys;
  q.threshold = 5;
  q.time_lo = 9 * 3600;
  q.time_hi = 12 * 3600;
  ExpectMatchesOracle(q);
}

TEST_F(ConcealerE2ETest, KeysWithObservationMatchesOracle) {
  Query q;
  q.agg = Aggregate::kKeysWithObservation;
  q.observation = (*tuples_)[0].observation;
  q.time_lo = 0;
  q.time_hi = 86399;
  ExpectMatchesOracle(q);
}

TEST_F(ConcealerE2ETest, CountObservationAtLocationMatchesOracle) {
  // Q5: count of a device at a location over a window.
  const PlainTuple& probe = (*tuples_)[42];
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {probe.keys};
  q.observation = probe.observation;
  q.time_lo = probe.time > 3600 ? probe.time - 3600 : 0;
  q.time_hi = probe.time + 3600;
  ExpectMatchesOracle(q);
  EXPECT_GE(oracle_->Execute(q)->count, 1u);  // The probe itself matches.
}

TEST_F(ConcealerE2ETest, ObliviousGroupedQueryMatchesOracle) {
  Query q;
  q.agg = Aggregate::kTopK;
  q.k = 3;
  q.time_lo = 10 * 3600;
  q.time_hi = 10 * 3600 + 30 * 60;
  q.oblivious = true;
  ExpectMatchesOracle(q);
}

// --- Security properties ---

TEST_F(ConcealerE2ETest, VolumeHiding_PointQueriesFetchIdenticalRowCounts) {
  // The defining guarantee: the number of rows the DBMS returns is the same
  // for *any* point query, regardless of how many tuples match.
  std::set<uint64_t> fetch_volumes;
  uint64_t min_matched = UINT64_MAX, max_matched = 0;
  for (uint64_t loc : {0ull, 3ull, 9ull, 15ull, 19ull}) {
    for (uint64_t t : {2ull * 3600, 13ull * 3600}) {
      auto got = sp_->Execute(PointQuery(loc, t));
      ASSERT_TRUE(got.ok());
      fetch_volumes.insert(got->rows_fetched);
      min_matched = std::min(min_matched, got->rows_matched);
      max_matched = std::max(max_matched, got->rows_matched);
    }
  }
  EXPECT_EQ(fetch_volumes.size(), 1u)
      << "point queries fetched different volumes";
  // The workload is skewed, so the hidden quantity really does vary.
  EXPECT_LT(min_matched, max_matched);
}

TEST_F(ConcealerE2ETest, VolumeHiding_WinSecRangeConstantAcrossSlides) {
  // Example 5.2.2's attack: sliding a window must not change the fetch
  // volume or reveal new-vs-old rows. winSecRange fetches whole intervals.
  Query q1 = RangeQuery(4, 8 * 3600, 10 * 3600, RangeMethod::kWinSecRange);
  Query q2 = RangeQuery(4, 9 * 3600, 11 * 3600, RangeMethod::kWinSecRange);
  auto r1 = sp_->Execute(q1);
  auto r2 = sp_->Execute(q2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Both 2h windows land in the same fixed interval set size; volumes are
  // multiples of the interval bin size.
  auto state = sp_->epoch_state(0);
  ASSERT_TRUE(state.ok());
  uint32_t lambda = config_->winsec_lambda_buckets;
  if (lambda == 0) lambda = std::max<uint32_t>(1, config_->time_buckets / 20);
  auto plan = (*state)->GetIntervalPlan(lambda);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(r1->rows_fetched % (*plan)->bin_size, 0u);
  EXPECT_EQ(r2->rows_fetched % (*plan)->bin_size, 0u);
}

TEST_F(ConcealerE2ETest, FakeTrapdoorsResolveToRealStoredRows) {
  // Every fake trapdoor must fetch an actual stored row (Example 4.1:
  // missing fakes would reveal bin composition).
  auto state = sp_->epoch_state(0);
  ASSERT_TRUE(state.ok());
  auto plan = (*state)->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  sp_->mutable_table().ResetStats();
  auto got = sp_->Execute(PointQuery(7, 6 * 3600));
  ASSERT_TRUE(got.ok());
  const TableStats& stats = sp_->table().stats();
  EXPECT_EQ(stats.index_probes, stats.index_hits)
      << "some trapdoors (fakes?) missed the index";
  EXPECT_EQ(got->rows_fetched, (*plan)->bin_size);
}

TEST_F(ConcealerE2ETest, ObliviousAndPlainModeAgree) {
  for (RangeMethod m :
       {RangeMethod::kBPB, RangeMethod::kEBPB, RangeMethod::kWinSecRange}) {
    Query q = RangeQuery(6, 14 * 3600, 14 * 3600 + 40 * 60, m);
    auto plain = sp_->Execute(q);
    q.oblivious = true;
    auto oblivious = sp_->Execute(q);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(oblivious.ok());
    EXPECT_EQ(plain->count, oblivious->count);
    EXPECT_EQ(plain->rows_fetched, oblivious->rows_fetched);
  }
}

// --- Authorization / client flows ---

TEST_F(ConcealerE2ETest, ClientEndToEnd) {
  Client alice("alice", Bytes{'a', 'l', 'i', 'c', 'e', '-', 's', 'e', 'c',
                              'r', 'e', 't'});
  Query q = PointQuery(3, 10 * 3600);
  auto got = alice.Run(sp_, q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = oracle_->Execute(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->count, want->count);
}

TEST_F(ConcealerE2ETest, UnknownUserRejected) {
  Client mallory("mallory", Bytes{'x'});
  EXPECT_TRUE(mallory.Run(sp_, PointQuery(0, 0)).status()
                  .IsPermissionDenied());
}

TEST_F(ConcealerE2ETest, WrongSecretRejected) {
  Client fake_alice("alice", Bytes{'w', 'r', 'o', 'n', 'g'});
  EXPECT_TRUE(fake_alice.Run(sp_, PointQuery(0, 0)).status()
                  .IsPermissionDenied());
}

TEST_F(ConcealerE2ETest, IndividualizedQueryRestrictedToOwnObservation) {
  // Bob owns no observation: any individualized query is denied; Alice may
  // only ask about her own device.
  Client bob("bob", Bytes{'b', 'o', 'b', '-', 's', 'e', 'c', 'r', 'e', 't'});
  Query q;
  q.agg = Aggregate::kKeysWithObservation;
  q.observation = (*tuples_)[0].observation;
  q.time_lo = 0;
  q.time_hi = 86399;
  EXPECT_TRUE(bob.Run(sp_, q).status().IsPermissionDenied());

  Client alice("alice", Bytes{'a', 'l', 'i', 'c', 'e', '-', 's', 'e', 'c',
                              'r', 'e', 't'});
  auto got = alice.Run(sp_, q);
  ASSERT_TRUE(got.ok());
  q.observation = "dev-does-not-belong-to-alice";
  EXPECT_TRUE(alice.Run(sp_, q).status().IsPermissionDenied());
}

// --- Opaque baseline agreement ---

TEST_F(ConcealerE2ETest, OpaqueBaselineAgreesWithOracleAndConcealer) {
  OpaqueScanBaseline opaque(&sp_->enclave(), &sp_->table(), *config_);
  Query q = RangeQuery(5, 9 * 3600, 10 * 3600, RangeMethod::kBPB);
  auto via_opaque = opaque.Execute(sp_->EpochRowRanges(), q);
  ASSERT_TRUE(via_opaque.ok()) << via_opaque.status().ToString();
  auto want = oracle_->Execute(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(via_opaque->count, want->count);
  // Opaque reads the entire table; Concealer reads one bin's worth.
  auto via_concealer = sp_->Execute(q);
  ASSERT_TRUE(via_concealer.ok());
  EXPECT_GT(via_opaque->rows_fetched, 10 * via_concealer->rows_fetched);
}

// --- Integrity ---

class TamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestConfig();
    WifiConfig wifi = TestWorkload();
    wifi.total_rows = 800;
    wifi.duration_seconds = 86400;
    WifiGenerator gen(wifi);
    tuples_ = gen.Generate();
    dp_ = std::make_unique<DataProvider>(config_, Bytes(32, 0x55));
    sp_ = std::make_unique<ServiceProvider>(config_, dp_->shared_secret());
    auto epochs = dp_->EncryptAll(tuples_);
    ASSERT_TRUE(epochs.ok());
    for (const auto& e : *epochs) ASSERT_TRUE(sp_->IngestEpoch(e).ok());
  }

  Query WholeEpochVerifyQuery() {
    Query q;
    q.agg = Aggregate::kCount;
    q.time_lo = 0;
    q.time_hi = 86399;
    q.verify = true;
    return q;
  }

  // The scenarios, shared by the TamperTest/DynamicTest cases and by
  // SoftShaTamperTest, which reruns them on the portable SHA-256 backend.
  void RunCleanDataVerifies() {
    auto got = sp_->Execute(WholeEpochVerifyQuery());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->verified);
    EXPECT_EQ(got->rows_matched, tuples_.size());
  }

  void RunFlippedCiphertextByteDetected() {
    // Corrupt one stored row's El column.
    Row corrupted;
    uint64_t victim = 0;
    uint64_t idx = 0;
    sp_->mutable_table().Scan([&](const Row& row) {
      corrupted = row;
      victim = idx++;
      return false;  // Take row 0.
    });
    corrupted.columns[kColEl][20] ^= 1;
    ASSERT_TRUE(sp_->mutable_table().ReplaceRows({{victim, corrupted}}).ok());

    auto got = sp_->Execute(WholeEpochVerifyQuery());
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  }

  void RunCrossRowContentSpliceDetected() {
    // Splice one row's El ciphertext into another row (a replay of valid
    // ciphertext in the wrong position): the per-cell-id chains break.
    std::vector<std::pair<uint64_t, Row>> rows;
    uint64_t idx = 0;
    sp_->mutable_table().Scan([&](const Row& row) {
      rows.emplace_back(idx++, row);
      return rows.size() < 2;
    });
    ASSERT_EQ(rows.size(), 2u);
    rows[0].second.columns[kColEl] = rows[1].second.columns[kColEl];
    ASSERT_TRUE(sp_->mutable_table()
                    .ReplaceRows({{rows[0].first, rows[0].second}})
                    .ok());

    auto got = sp_->Execute(WholeEpochVerifyQuery());
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  }

  void RunPhysicalRelocationIsHarmlessAndUndetected() {
    // Swapping two rows *with* their index entries is a physical relocation,
    // not tampering: trapdoor fetches return identical content, chains still
    // verify, answers unchanged. Documents the integrity model's scope.
    std::vector<std::pair<uint64_t, Row>> rows;
    uint64_t idx = 0;
    sp_->mutable_table().Scan([&](const Row& row) {
      rows.emplace_back(idx++, row);
      return rows.size() < 2;
    });
    ASSERT_EQ(rows.size(), 2u);
    std::swap(rows[0].first, rows[1].first);
    ASSERT_TRUE(sp_->mutable_table().ReindexRows(rows).ok());

    auto got = sp_->Execute(WholeEpochVerifyQuery());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->verified);
    EXPECT_EQ(got->rows_matched, tuples_.size());
  }

  void RunUnverifiedQueryDoesNotNoticeTampering() {
    // Without the optional verification step the (wrong) answer comes back —
    // this documents that verification is what provides integrity.
    Row corrupted;
    sp_->mutable_table().Scan([&](const Row& row) {
      corrupted = row;
      return false;
    });
    corrupted.columns[kColEl][20] ^= 1;
    ASSERT_TRUE(sp_->mutable_table().ReplaceRows({{0, corrupted}}).ok());
    Query q = WholeEpochVerifyQuery();
    q.verify = false;
    EXPECT_TRUE(sp_->Execute(q).ok());
  }

  void RunVerificationSurvivesReencryption() {
    sp_->set_dynamic_mode(true);
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{1}};
    q.time_lo = 10 * 3600;
    q.time_hi = 11 * 3600;
    q.verify = true;
    for (int round = 0; round < 3; ++round) {
      auto got = sp_->Execute(q);
      ASSERT_TRUE(got.ok()) << "round " << round << ": "
                            << got.status().ToString();
      EXPECT_TRUE(got->verified);
    }
  }

  void RunSuperBinRoutingPreservesAnswers() {
    auto state = sp_->epoch_state(0);
    ASSERT_TRUE(state.ok());
    auto plan = (*state)->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
    ASSERT_TRUE(plan.ok());
    const uint32_t num_bins = static_cast<uint32_t>((*plan)->bins.size());
    // Find a nontrivial factor of num_bins (fall back to 1).
    uint32_t f = 1;
    for (uint32_t cand = 2; cand <= num_bins / 2; ++cand) {
      if (num_bins % cand == 0) {
        f = cand;
        break;
      }
    }
    CleartextDb oracle(config_.time_quantum);
    oracle.Insert(tuples_);

    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{6}};
    q.time_lo = 7 * 3600;
    q.time_hi = 8 * 3600;

    auto without = sp_->Execute(q);
    ASSERT_TRUE(without.ok());
    sp_->set_super_bin_factor(f);
    auto with = sp_->Execute(q);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    sp_->set_super_bin_factor(0);

    EXPECT_EQ(with->count, oracle.Execute(q)->count);
    EXPECT_EQ(with->count, without->count);
    if (f > 1) {
      // Super-bin fetches at least as much as the plain bin fetch.
      EXPECT_GE(with->rows_fetched, without->rows_fetched);
    }
  }

  ConcealerConfig config_;
  std::vector<PlainTuple> tuples_;
  std::unique_ptr<DataProvider> dp_;
  std::unique_ptr<ServiceProvider> sp_;
};

TEST_F(TamperTest, CleanDataVerifies) { RunCleanDataVerifies(); }

TEST_F(TamperTest, FlippedCiphertextByteDetected) {
  RunFlippedCiphertextByteDetected();
}

TEST_F(TamperTest, CrossRowContentSpliceDetected) {
  RunCrossRowContentSpliceDetected();
}

TEST_F(TamperTest, PhysicalRelocationIsHarmlessAndUndetected) {
  RunPhysicalRelocationIsHarmlessAndUndetected();
}

TEST_F(TamperTest, UnverifiedQueryDoesNotNoticeTampering) {
  RunUnverifiedQueryDoesNotNoticeTampering();
}

// --- Dynamic insertion (§6) ---

class DynamicTest : public TamperTest {};

TEST_F(DynamicTest, QueriesStillCorrectAcrossReencryptionRounds) {
  sp_->set_dynamic_mode(true);
  CleartextDb oracle(config_.time_quantum);
  oracle.Insert(tuples_);

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};
  q.time_lo = 8 * 3600;
  q.time_hi = 9 * 3600;
  const uint64_t want = oracle.Execute(q)->count;

  // Repeated execution keeps answering correctly while bins get rewritten
  // under fresh keys each time.
  for (int round = 0; round < 4; ++round) {
    auto got = sp_->Execute(q);
    ASSERT_TRUE(got.ok()) << "round " << round << ": "
                          << got.status().ToString();
    EXPECT_EQ(got->count, want) << "round " << round;
  }
  auto state = sp_->epoch_state(0);
  ASSERT_TRUE(state.ok());
  EXPECT_GT((*state)->reenc_counter(), 0u);
}

TEST_F(DynamicTest, ReencryptionRewritesCiphertexts) {
  sp_->set_dynamic_mode(true);
  // Snapshot all index keys, run one query, snapshot again: the touched
  // bins' rows must have new index ciphertexts.
  std::set<Bytes> before;
  sp_->mutable_table().Scan([&](const Row& row) {
    before.insert(row.columns[kColIndex].ToBytes());
    return true;
  });
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{2}};
  q.time_lo = 12 * 3600;
  q.time_hi = 12 * 3600;
  ASSERT_TRUE(sp_->Execute(q).ok());
  uint64_t changed = 0;
  sp_->mutable_table().Scan([&](const Row& row) {
    changed += before.count(row.columns[kColIndex].ToBytes()) == 0 ? 1 : 0;
    return true;
  });
  EXPECT_GT(changed, 0u) << "no rows were re-encrypted";
}

TEST_F(DynamicTest, VerificationSurvivesReencryption) {
  RunVerificationSurvivesReencryption();
}

TEST_F(DynamicTest, EveryRoundFetchesAtLeastLogBins) {
  sp_->set_dynamic_mode(true);
  auto state = sp_->epoch_state(0);
  ASSERT_TRUE(state.ok());
  auto plan = (*state)->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  const uint32_t num_bins = static_cast<uint32_t>((*plan)->bins.size());
  if (num_bins < 4) GTEST_SKIP() << "too few bins to observe padding";

  sp_->mutable_table().ResetStats();
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{3}};
  q.time_lo = 5 * 3600;
  q.time_hi = 5 * 3600;  // Point query: needs exactly one bin.
  ASSERT_TRUE(sp_->Execute(q).ok());
  // Fetched rows must cover >= ceil(log2(num_bins)) bins' volume.
  const uint32_t log_bins = static_cast<uint32_t>(
      std::ceil(std::log2(static_cast<double>(num_bins))));
  EXPECT_GE(sp_->table().stats().rows_fetched,
            uint64_t{log_bins} * (*plan)->bin_size);
}

// --- Super-bins (§8) ---

TEST_F(TamperTest, SuperBinRoutingPreservesAnswers) {
  RunSuperBinRoutingPreservesAnswers();
}

// The integrity scenarios again with every hash chain — DP encryption,
// enclave verification and §6 re-encryption alike — on the portable
// SHA-256 block function, whatever the CPU offers.
class SoftShaTamperTest : public TamperTest {
 private:
  // Constructed before SetUp, so the DP's epoch encryption is covered.
  ScopedShaBackendOverride pin_{SoftSha256Backend()};
};

TEST_F(SoftShaTamperTest, CleanDataVerifies) { RunCleanDataVerifies(); }

TEST_F(SoftShaTamperTest, FlippedCiphertextByteDetected) {
  RunFlippedCiphertextByteDetected();
}

TEST_F(SoftShaTamperTest, CrossRowContentSpliceDetected) {
  RunCrossRowContentSpliceDetected();
}

TEST_F(SoftShaTamperTest, PhysicalRelocationIsHarmlessAndUndetected) {
  RunPhysicalRelocationIsHarmlessAndUndetected();
}

TEST_F(SoftShaTamperTest, UnverifiedQueryDoesNotNoticeTampering) {
  RunUnverifiedQueryDoesNotNoticeTampering();
}

TEST_F(SoftShaTamperTest, VerificationSurvivesReencryption) {
  RunVerificationSurvivesReencryption();
}

TEST_F(SoftShaTamperTest, SuperBinRoutingPreservesAnswers) {
  RunSuperBinRoutingPreservesAnswers();
}

// --- Parallel fetch path ---

// The thread-pool path must be a pure performance change: for every range
// method, aggregate shape and mode, the parallel executor's answer must be
// byte-identical (serialized QueryResult) to the serial one.
TEST_F(ConcealerE2ETest, ParallelExecutionMatchesSerialByteForByte) {
  std::vector<Query> queries;
  for (RangeMethod method : {RangeMethod::kBPB, RangeMethod::kEBPB,
                             RangeMethod::kWinSecRange}) {
    queries.push_back(RangeQuery(4, 2 * 3600, 9 * 3600, method));
    Query topk = RangeQuery(0, 3 * 3600, 6 * 3600, method);
    topk.agg = Aggregate::kTopK;
    topk.key_values.clear();  // Whole-domain Q2.
    topk.k = 4;
    queries.push_back(topk);
    Query verified = RangeQuery(7, 86400 + 3600, 86400 + 5 * 3600, method);
    verified.verify = true;
    queries.push_back(verified);
    Query oblivious = RangeQuery(2, 4 * 3600, 7 * 3600, method);
    oblivious.oblivious = true;
    queries.push_back(oblivious);
  }

  for (const Query& q : queries) {
    sp_->set_num_threads(1);
    auto serial = sp_->Execute(q);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (uint32_t threads : {2u, 4u}) {
      sp_->set_num_threads(threads);
      auto parallel = sp_->Execute(q);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(SerializeQueryResult(*serial), SerializeQueryResult(*parallel))
          << "method=" << static_cast<int>(q.method)
          << " agg=" << static_cast<int>(q.agg) << " verify=" << q.verify
          << " oblivious=" << q.oblivious << " threads=" << threads;
    }
  }
  sp_->set_num_threads(1);
}

// Repeated parallel runs of one query must be deterministic (no
// merge-order or dedup races).
TEST_F(ConcealerE2ETest, ParallelExecutionIsDeterministic) {
  Query q = RangeQuery(5, 3600, 10 * 3600, RangeMethod::kWinSecRange);
  sp_->set_num_threads(4);
  auto first = sp_->Execute(q);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 5; ++i) {
    auto again = sp_->Execute(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(SerializeQueryResult(*first), SerializeQueryResult(*again));
  }
  sp_->set_num_threads(1);
}

// --- Crypto backend equivalence (the tentpole's correctness contract) ---
//
// Runs the full DP -> SP -> query pipeline once under the forced software
// AES and SHA-256 backends and once under the hardware ones, and
// byte-compares the serialized epochs (ciphertexts, trapdoor-matchable
// Index columns, encrypted hash-chain tags) and every query answer. This
// is what "hardware acceleration changes timing, never bytes" means
// operationally.
TEST(CryptoBackendEquivalenceTest, PipelineBytesIdenticalAcrossBackends) {
  if (AcceleratedAesBackend() == nullptr) {
    GTEST_SKIP() << "no hardware AES on this CPU";
  }
  ConcealerConfig config = TestConfig();
  WifiConfig wifi = TestWorkload();
  wifi.total_rows = 1200;  // Smaller than the shared fixture: runs twice.
  WifiGenerator gen(wifi);
  const std::vector<PlainTuple> tuples = gen.Generate();

  struct PipelineBytes {
    std::vector<Bytes> epoch_blobs;
    std::vector<Bytes> answers;
  };
  auto run = [&](const AesBackendOps* backend, const Sha256Backend* sha) {
    ScopedAesBackendOverride forced(backend);
    ScopedShaBackendOverride forced_sha(sha);
    PipelineBytes out;
    DataProvider dp(config, Bytes(32, 0x42));
    ServiceProvider sp(config, dp.shared_secret());
    auto epochs = dp.EncryptAll(tuples);
    EXPECT_TRUE(epochs.ok());
    for (const auto& epoch : *epochs) {
      out.epoch_blobs.push_back(SerializeEpoch(epoch));
      EXPECT_TRUE(sp.IngestEpoch(epoch).ok());
    }
    std::vector<Query> queries;
    queries.push_back(PointQuery(7, 7200));
    queries.push_back(
        RangeQuery(3, 3600, 8 * 3600, RangeMethod::kWinSecRange));
    Query sum = PointQuery(7, 7200);
    sum.agg = Aggregate::kSum;  // Exercises the batched Er decrypt path.
    sum.time_lo = 0;
    sum.time_hi = 86399;
    queries.push_back(sum);
    Query obl = PointQuery(5, 3600);
    obl.oblivious = true;
    obl.verify = true;
    queries.push_back(obl);
    for (const Query& q : queries) {
      auto r = sp.Execute(q);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.answers.push_back(SerializeQueryResult(*r));
    }
    return out;
  };

  const PipelineBytes soft = run(SoftAesBackend(), SoftSha256Backend());
  const PipelineBytes accel =
      run(AcceleratedAesBackend(), ActiveSha256Backend());
  ASSERT_EQ(soft.epoch_blobs.size(), accel.epoch_blobs.size());
  for (size_t i = 0; i < soft.epoch_blobs.size(); ++i) {
    EXPECT_EQ(soft.epoch_blobs[i], accel.epoch_blobs[i])
        << "epoch " << i << " ciphertext bytes differ across backends";
  }
  ASSERT_EQ(soft.answers.size(), accel.answers.size());
  for (size_t i = 0; i < soft.answers.size(); ++i) {
    EXPECT_EQ(soft.answers[i], accel.answers[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace concealer
