// White-box tests for the enclave-side planning layer: EpochState plan
// caching, RangePlanner fetch-unit construction for all three methods, and
// QueryExecutor trapdoor properties (plain vs oblivious equivalence,
// constant per-bin volumes, fake-range behaviour).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "concealer/data_provider.h"
#include "concealer/epoch_state.h"
#include "concealer/query_executor.h"
#include "concealer/range_planner.h"
#include "concealer/service_provider.h"
#include "workload/wifi_generator.h"

namespace concealer {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.key_buckets = {8};
    config_.key_domains = {20};
    config_.time_buckets = 24;
    config_.num_cell_ids = 40;
    config_.epoch_seconds = 86400;
    config_.time_quantum = 60;

    WifiConfig wifi;
    wifi.num_access_points = 20;
    wifi.num_devices = 50;
    wifi.start_time = 0;
    wifi.duration_seconds = 86400;
    wifi.total_rows = 2500;
    wifi.seed = 31;
    tuples_ = WifiGenerator(wifi).Generate();

    dp_ = std::make_unique<DataProvider>(config_, Bytes(32, 0x77));
    auto opened = ServiceProvider::Open(config_, dp_->shared_secret());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    sp_ = std::move(*opened);
    auto epochs = dp_->EncryptAll(tuples_);
    ASSERT_TRUE(epochs.ok());
    ASSERT_TRUE(sp_->IngestEpoch((*epochs)[0]).ok());
    auto state = sp_->epoch_state(0);
    ASSERT_TRUE(state.ok());
    state_ = *state;
    planner_ = std::make_unique<RangePlanner>(config_);
  }

  Query PointQuery(uint64_t loc, uint64_t t) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{loc}};
    q.time_lo = q.time_hi = t;
    return q;
  }

  ConcealerConfig config_;
  std::vector<PlainTuple> tuples_;
  std::unique_ptr<DataProvider> dp_;
  std::unique_ptr<ServiceProvider> sp_;
  EpochState* state_ = nullptr;
  std::unique_ptr<RangePlanner> planner_;
};

TEST_F(PlannerTest, BinPlanIsCachedAndStable) {
  auto p1 = state_->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  auto p2 = state_->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);  // Same cached object.
  EXPECT_GT((*p1)->bins.size(), 1u);
}

TEST_F(PlannerTest, PointQueryPlansExactlyOneBin) {
  for (uint64_t loc : {0ull, 7ull, 19ull}) {
    auto bins = planner_->BpbBinIndexes(state_, PointQuery(loc, 7 * 3600));
    ASSERT_TRUE(bins.ok());
    EXPECT_EQ(bins->size(), 1u);
  }
}

TEST_F(PlannerTest, BpbUnitsAreWholeBinsWithPlanWideSlots) {
  Query q = PointQuery(4, 10 * 3600);
  q.method = RangeMethod::kBPB;
  auto units = planner_->Plan(state_, q);
  ASSERT_TRUE(units.ok());
  ASSERT_EQ(units->size(), 1u);
  auto plan = state_->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());

  const FetchUnit& unit = (*units)[0];
  // Unit volume (real + fake) is exactly the plan's bin size.
  uint32_t real = 0;
  for (uint32_t cid : unit.cell_ids) {
    real += state_->layout().count_per_cell_id[cid];
  }
  EXPECT_EQ(real + unit.fake_count, (*plan)->bin_size);
  EXPECT_FALSE(unit.cycle_fakes);  // BPB fakes are disjoint (Example 4.1).
  // Slot shape is plan-wide, not unit-local.
  uint32_t max_cids = 0, max_fakes = 0;
  for (const Bin& b : (*plan)->bins) {
    max_cids = std::max<uint32_t>(max_cids, b.cell_ids.size());
    max_fakes = std::max(max_fakes, b.fake_count);
  }
  EXPECT_EQ(unit.slots_cids, std::max(1u, max_cids));
  EXPECT_EQ(unit.slots_fakes, std::max(1u, max_fakes));
}

TEST_F(PlannerTest, EbpbUnitsPadToWindowVolume) {
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{3}};
  q.time_lo = 6 * 3600;
  q.time_hi = 8 * 3600 - 1;  // Two buckets.
  q.method = RangeMethod::kEBPB;
  auto units = planner_->Plan(state_, q);
  ASSERT_TRUE(units.ok());
  ASSERT_EQ(units->size(), 1u);  // One key column.
  auto bsize = state_->GetEbpbBinSize(2);
  ASSERT_TRUE(bsize.ok());
  uint32_t real = 0;
  for (uint32_t cid : (*units)[0].cell_ids) {
    real += state_->layout().count_per_cell_id[cid];
  }
  EXPECT_EQ(real + (*units)[0].fake_count, *bsize);
  EXPECT_TRUE((*units)[0].cycle_fakes);
}

TEST_F(PlannerTest, EbpbBinSizeMonotonicInWindow) {
  uint32_t prev = 0;
  for (uint32_t window = 1; window <= 6; ++window) {
    auto bsize = state_->GetEbpbBinSize(window);
    ASSERT_TRUE(bsize.ok());
    EXPECT_GE(*bsize, prev) << "window " << window;
    prev = *bsize;
  }
  EXPECT_FALSE(state_->GetEbpbBinSize(0).ok());
}

TEST_F(PlannerTest, WinSecUnitsAreAlignedIntervals) {
  ConcealerConfig config = config_;
  config.winsec_lambda_buckets = 4;
  RangePlanner planner(config);
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{1}};
  q.time_lo = 5 * 3600;   // Bucket 5 -> interval 1 (buckets 4-7).
  q.time_hi = 9 * 3600;   // Bucket 9 -> interval 2 (buckets 8-11).
  q.method = RangeMethod::kWinSecRange;
  auto units = planner.Plan(state_, q);
  ASSERT_TRUE(units.ok());
  EXPECT_EQ(units->size(), 2u);
  auto plan = state_->GetIntervalPlan(4);
  ASSERT_TRUE(plan.ok());
  // Every unit's volume equals the shared interval bin size.
  for (const FetchUnit& unit : *units) {
    uint32_t real = 0;
    for (uint32_t cid : unit.cell_ids) {
      real += state_->layout().count_per_cell_id[cid];
    }
    EXPECT_EQ(real + unit.fake_count, (*plan)->bin_size);
  }
}

TEST_F(PlannerTest, WinSecRejectedWithoutTimeAxis) {
  ConcealerConfig config = config_;
  config.time_buckets = 0;
  RangePlanner planner(config);
  Query q;
  q.method = RangeMethod::kWinSecRange;
  q.key_values = {{1}};
  EXPECT_FALSE(planner.Plan(state_, q).ok());
}

TEST_F(PlannerTest, QueryOutsideEpochPlansNothing) {
  Query q = PointQuery(1, 0);
  q.time_lo = q.time_hi = 10 * 86400;  // Far outside epoch 0.
  for (RangeMethod m :
       {RangeMethod::kBPB, RangeMethod::kEBPB, RangeMethod::kWinSecRange}) {
    q.method = m;
    auto units = planner_->Plan(state_, q);
    ASSERT_TRUE(units.ok());
    EXPECT_TRUE(units->empty());
  }
}

TEST_F(PlannerTest, TrapdoorCountEqualsBinSizeForEveryBin) {
  QueryExecutor executor(&sp_->enclave(), &sp_->table(), config_);
  auto plan = state_->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  for (uint32_t b = 0; b < (*plan)->bins.size(); ++b) {
    auto unit = planner_->UnitForBin(state_, b);
    ASSERT_TRUE(unit.ok());
    auto fetched = executor.Fetch(*state_, *unit, /*oblivious=*/false);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched->trapdoors_issued, (*plan)->bin_size) << "bin " << b;
    EXPECT_EQ(fetched->rows.size(), (*plan)->bin_size) << "bin " << b;
  }
}

TEST_F(PlannerTest, ObliviousTrapdoorsFetchSameRowsAsPlain) {
  // The §4.3 partition is stable, so the oblivious valid prefix is the
  // plain trapdoor list in the plain order: both modes fetch the same row
  // sequence and align it to cell-ids identically, for every bin.
  QueryExecutor executor(&sp_->enclave(), &sp_->table(), config_);
  auto plan = state_->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  for (uint32_t b = 0; b < (*plan)->bins.size(); ++b) {
    auto unit = planner_->UnitForBin(state_, b);
    ASSERT_TRUE(unit.ok());
    auto plain = executor.Fetch(*state_, *unit, /*oblivious=*/false);
    auto oblivious = executor.Fetch(*state_, *unit, /*oblivious=*/true);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(oblivious.ok());
    EXPECT_EQ(plain->trapdoors_issued, oblivious->trapdoors_issued)
        << "bin " << b;
    EXPECT_EQ(plain->rows, oblivious->rows) << "bin " << b;
    EXPECT_EQ(plain->row_ids, oblivious->row_ids) << "bin " << b;
    EXPECT_EQ(plain->real_row_of_cid, oblivious->real_row_of_cid)
        << "bin " << b;
  }
}

TEST_F(PlannerTest, FetchAlignsEveryRealRowToItsCellId) {
  QueryExecutor executor(&sp_->enclave(), &sp_->table(), config_);
  auto unit = planner_->UnitForBin(state_, 1);
  ASSERT_TRUE(unit.ok());
  auto fetched = executor.Fetch(*state_, *unit, false);
  ASSERT_TRUE(fetched.ok());
  uint64_t aligned = 0;
  for (const auto& [cid, rows] : fetched->real_row_of_cid) {
    EXPECT_EQ(rows.size(), state_->layout().count_per_cell_id[cid]);
    aligned += rows.size();
  }
  // Real rows + fakes == bin volume.
  EXPECT_EQ(aligned + unit->fake_count, fetched->rows.size());
}

TEST_F(PlannerTest, SuperBinFactorMustDivideBinCount) {
  auto plan = state_->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  const uint32_t num_bins = static_cast<uint32_t>((*plan)->bins.size());
  if (num_bins < 3) GTEST_SKIP();
  // A non-divisor factor makes the query fail loudly rather than silently
  // degrade privacy.
  uint32_t bad = 2;
  while (bad <= num_bins && num_bins % bad == 0) ++bad;
  if (bad > num_bins) GTEST_SKIP();
  sp_->set_super_bin_factor(bad);
  EXPECT_FALSE(sp_->Execute(PointQuery(2, 3600)).ok());
  sp_->set_super_bin_factor(0);
  EXPECT_TRUE(sp_->Execute(PointQuery(2, 3600)).ok());
}

}  // namespace
}  // namespace concealer
