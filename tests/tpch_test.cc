// End-to-end tests on TPC-H LineItem data (paper §9.1 Dataset 2, Exp 8):
// non-time-series multi-attribute grids, 2D ⟨OK, LN⟩ and 4D
// ⟨OK, PK, SK, LN⟩ indexes, count/sum/min/max aggregates.

#include <gtest/gtest.h>

#include <memory>

#include "baseline/cleartext_db.h"
#include "common/random.h"
#include "concealer/data_provider.h"
#include "concealer/service_provider.h"
#include "workload/tpch_generator.h"

namespace concealer {
namespace {

class TpchE2ETest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig tpch;
    tpch.total_rows = 6000;
    TpchGenerator gen(tpch);
    items_ = new std::vector<LineItem>(gen.Generate());

    // 2D pipeline: index (OK, LN).
    ConcealerConfig config2d;
    config2d.key_buckets = {64, 7};
    config2d.key_domains = {gen.orderkey_domain(), 8};
    config2d.time_buckets = 0;
    config2d.num_cell_ids = 120;
    config2d.time_quantum = 1;
    auto tuples2d = TpchGenerator::ToTuples2D(*items_);
    dp2d_ = new DataProvider(config2d, Bytes(32, 0x61));
    auto opened2d = ServiceProvider::Open(config2d, dp2d_->shared_secret());
    ASSERT_TRUE(opened2d.ok()) << opened2d.status().ToString();
    sp2d_ = opened2d->release();
    auto epochs = dp2d_->EncryptAll(tuples2d);
    ASSERT_TRUE(epochs.ok()) << epochs.status().ToString();
    ASSERT_EQ(epochs->size(), 1u);  // Non-time-series: single epoch.
    ASSERT_TRUE(sp2d_->IngestEpoch((*epochs)[0]).ok());
    oracle2d_ = new CleartextDb(1);
    oracle2d_->Insert(tuples2d);

    // 4D pipeline: index (OK, PK, SK, LN).
    ConcealerConfig config4d;
    config4d.key_buckets = {24, 6, 4, 3};
    config4d.key_domains = {gen.orderkey_domain(), gen.partkey_domain(),
                            gen.suppkey_domain(), 8};
    config4d.time_buckets = 0;
    config4d.num_cell_ids = 300;
    config4d.time_quantum = 1;
    auto tuples4d = TpchGenerator::ToTuples4D(*items_);
    dp4d_ = new DataProvider(config4d, Bytes(32, 0x62));
    auto opened4d = ServiceProvider::Open(config4d, dp4d_->shared_secret());
    ASSERT_TRUE(opened4d.ok()) << opened4d.status().ToString();
    sp4d_ = opened4d->release();
    auto epochs4 = dp4d_->EncryptAll(tuples4d);
    ASSERT_TRUE(epochs4.ok());
    ASSERT_TRUE(sp4d_->IngestEpoch((*epochs4)[0]).ok());
    oracle4d_ = new CleartextDb(1);
    oracle4d_->Insert(tuples4d);
  }

  static void TearDownTestSuite() {
    delete sp4d_;
    delete dp4d_;
    delete oracle4d_;
    delete sp2d_;
    delete dp2d_;
    delete oracle2d_;
    delete items_;
  }

  static Query MakeQuery(Aggregate agg, std::vector<uint64_t> keys) {
    Query q;
    q.agg = agg;
    q.key_values = {std::move(keys)};
    q.time_lo = 0;
    q.time_hi = 0;
    return q;
  }

  void ExpectAgree(ServiceProvider* sp, CleartextDb* oracle, const Query& q) {
    auto got = sp->Execute(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = oracle->Execute(q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->count, want->count);
    EXPECT_EQ(got->rows_matched, want->rows_matched);
  }

  static std::vector<LineItem>* items_;
  static DataProvider* dp2d_;
  static ServiceProvider* sp2d_;
  static CleartextDb* oracle2d_;
  static DataProvider* dp4d_;
  static ServiceProvider* sp4d_;
  static CleartextDb* oracle4d_;
};

std::vector<LineItem>* TpchE2ETest::items_ = nullptr;
DataProvider* TpchE2ETest::dp2d_ = nullptr;
ServiceProvider* TpchE2ETest::sp2d_ = nullptr;
CleartextDb* TpchE2ETest::oracle2d_ = nullptr;
DataProvider* TpchE2ETest::dp4d_ = nullptr;
ServiceProvider* TpchE2ETest::sp4d_ = nullptr;
CleartextDb* TpchE2ETest::oracle4d_ = nullptr;

class TpchAggTest : public TpchE2ETest,
                    public ::testing::WithParamInterface<Aggregate> {};

TEST_P(TpchAggTest, TwoDimensionalAggregatesMatchOracle) {
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    const LineItem& probe = (*items_)[rng.Uniform(items_->size())];
    ExpectAgree(sp2d_, oracle2d_,
                MakeQuery(GetParam(), {probe.orderkey, probe.linenumber}));
  }
}

TEST_P(TpchAggTest, FourDimensionalAggregatesMatchOracle) {
  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    const LineItem& probe = (*items_)[rng.Uniform(items_->size())];
    ExpectAgree(sp4d_, oracle4d_,
                MakeQuery(GetParam(), {probe.orderkey, probe.partkey,
                                       probe.suppkey, probe.linenumber}));
  }
}

INSTANTIATE_TEST_SUITE_P(Aggregates, TpchAggTest,
                         ::testing::Values(Aggregate::kCount, Aggregate::kSum,
                                           Aggregate::kMin, Aggregate::kMax),
                         [](const auto& info) {
                           switch (info.param) {
                             case Aggregate::kCount: return "Count";
                             case Aggregate::kSum: return "Sum";
                             case Aggregate::kMin: return "Min";
                             case Aggregate::kMax: return "Max";
                             default: return "Other";
                           }
                         });

TEST_F(TpchE2ETest, MissingKeyCountsZero) {
  // An orderkey in a never-used sparse gap (x % 8 >= 4 is never generated).
  ExpectAgree(sp2d_, oracle2d_, MakeQuery(Aggregate::kCount, {6, 1}));
  auto got = sp2d_->Execute(MakeQuery(Aggregate::kCount, {6, 1}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->count, 0u);
  // The fetch volume is nonetheless a full bin (volume hiding for misses).
  EXPECT_GT(got->rows_fetched, 0u);
}

TEST_F(TpchE2ETest, VolumeConstantAcross2DQueries) {
  std::set<uint64_t> volumes;
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    const LineItem& probe = (*items_)[rng.Uniform(items_->size())];
    auto got = sp2d_->Execute(
        MakeQuery(Aggregate::kCount, {probe.orderkey, probe.linenumber}));
    ASSERT_TRUE(got.ok());
    volumes.insert(got->rows_fetched);
  }
  EXPECT_EQ(volumes.size(), 1u);
}

TEST_F(TpchE2ETest, SumWithVerificationAndOblivious) {
  const LineItem& probe = (*items_)[7];
  Query q = MakeQuery(Aggregate::kSum, {probe.orderkey, probe.linenumber});
  q.verify = true;
  q.oblivious = true;
  auto got = sp2d_->Execute(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->verified);
  auto want = oracle2d_->Execute(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->count, want->count);
}

}  // namespace
}  // namespace concealer
