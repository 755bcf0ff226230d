// Security-property tests measured through the adversary's view: volume
// hiding via the LeakageObserver, §8 workload-skew flattening, oblivious
// trace data-independence at query level, forward privacy across epochs,
// fake/real ciphertext indistinguishability, and the epoch transport
// format.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "concealer/data_provider.h"
#include "concealer/epoch_io.h"
#include "concealer/leakage.h"
#include "concealer/range_planner.h"
#include "concealer/service_provider.h"
#include "concealer/super_bins.h"
#include "concealer/wire.h"
#include "enclave/oblivious.h"
#include "workload/wifi_generator.h"

namespace concealer {
namespace {

ConcealerConfig SmallConfig() {
  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {20};
  config.time_buckets = 24;
  config.num_cell_ids = 40;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;
  return config;
}

std::vector<PlainTuple> SmallWorkload(uint64_t rows, uint64_t seed) {
  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 60;
  wifi.start_time = 0;
  wifi.duration_seconds = 86400;
  wifi.total_rows = rows;
  wifi.seed = seed;
  return WifiGenerator(wifi).Generate();
}

class SecurityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = SmallConfig();
    tuples_ = SmallWorkload(3000, 13);
    dp_ = std::make_unique<DataProvider>(config_, Bytes(32, 0x44));
    auto opened = ServiceProvider::Open(config_, dp_->shared_secret());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    sp_ = std::move(*opened);
    auto epochs = dp_->EncryptAll(tuples_);
    ASSERT_TRUE(epochs.ok());
    epoch_ = (*epochs)[0];
    ASSERT_TRUE(sp_->IngestEpoch(epoch_).ok());
  }

  ConcealerConfig config_;
  std::vector<PlainTuple> tuples_;
  std::unique_ptr<DataProvider> dp_;
  std::unique_ptr<ServiceProvider> sp_;
  EncryptedEpoch epoch_;
};

TEST_F(SecurityTest, LeakageObserverSeesConstantPointVolumes) {
  LeakageObserver observer(&sp_->table());
  Rng rng(17);
  for (int i = 0; i < 12; ++i) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{rng.Uniform(20)}};
    q.time_lo = q.time_hi = rng.Uniform(86400 / 60) * 60;
    observer.BeginQuery();
    ASSERT_TRUE(sp_->Execute(q).ok());
    observer.EndQuery("point");
  }
  EXPECT_TRUE(observer.VolumesAreConstant())
      << observer.DistinctVolumes() << " distinct volumes observed";
  // Probe counts (trapdoors issued) are equally constant.
  std::set<uint64_t> probes(observer.probe_counts().begin(),
                            observer.probe_counts().end());
  EXPECT_EQ(probes.size(), 1u);
}

TEST_F(SecurityTest, SelectivityIsNotObservableFromVolume) {
  // A hot location and an empty location must produce identical adversary
  // observations even though the true result sizes differ wildly.
  std::map<uint64_t, uint64_t> per_loc;
  for (const auto& t : tuples_) per_loc[t.keys[0]]++;
  uint64_t hot = 0, hot_count = 0;
  for (auto& [loc, count] : per_loc) {
    if (count > hot_count) {
      hot = loc;
      hot_count = count;
    }
  }
  LeakageObserver observer(&sp_->table());
  for (uint64_t loc : {hot, uint64_t{19}}) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{loc}};
    q.time_lo = 0;
    q.time_hi = 86399;
    q.method = RangeMethod::kWinSecRange;  // Whole-epoch fixed intervals.
    observer.BeginQuery();
    auto r = sp_->Execute(q);
    ASSERT_TRUE(r.ok());
    observer.EndQuery();
  }
  EXPECT_TRUE(observer.VolumesAreConstant());
}

TEST_F(SecurityTest, ObliviousQueryTraceIsDataIndependent) {
  // Two point queries with very different selectivity must execute the
  // same number of oblivious operations within the same bin — the §4.3
  // guarantee that in-enclave access patterns do not track the data.
  // (Slot shapes are constant per plan, so any two bins match.)
  std::vector<uint64_t> op_counts;
  Rng rng(23);
  for (int i = 0; i < 6; ++i) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{rng.Uniform(20)}};
    q.time_lo = q.time_hi = rng.Uniform(86400 / 60) * 60;
    q.oblivious = true;
    OpCounter().Reset();
    ASSERT_TRUE(sp_->Execute(q).ok());
    op_counts.push_back(OpCounter().Total());
  }
  std::set<uint64_t> distinct(op_counts.begin(), op_counts.end());
  EXPECT_EQ(distinct.size(), 1u)
      << "oblivious op trace varies across point queries";

  // Multi-unit Concealer+ plans whose units share cell-ids: a shared cell's
  // rows count only in the first unit that lists it, and that dedup must
  // not move the trace either. Within each plan shape the window and key
  // columns are fixed and only the observation filter varies, so the plans
  // are identical while the matched row counts are not. OpCounter is
  // thread-local; the provider borrows no pool, so the units run serially
  // on this thread.
  auto state = sp_->epoch_state(0);
  ASSERT_TRUE(state.ok());
  RangePlanner planner(config_);
  for (RangeMethod method : {RangeMethod::kWinSecRange, RangeMethod::kEBPB}) {
    Query q;
    q.agg = Aggregate::kCount;
    q.method = method;
    q.time_lo = 2 * 3600;
    q.time_hi = 8 * 3600;
    q.oblivious = true;
    bool shared = false;
    for (uint64_t k = 1; k < 20 && !shared; ++k) {
      q.key_values = {{0}, {k}};
      auto units = planner.Plan(*state, q);
      ASSERT_TRUE(units.ok());
      std::map<uint32_t, int> listed;
      for (const FetchUnit& unit : *units) {
        for (uint32_t cid : std::set<uint32_t>(unit.cell_ids.begin(),
                                               unit.cell_ids.end())) {
          shared = shared || ++listed[cid] > 1;
        }
      }
    }
    ASSERT_TRUE(shared) << "no two-column plan shares a cell-id";
    // Devices seen at the queried locations in the window, then one never
    // seen anywhere.
    std::vector<std::string> observations;
    for (const PlainTuple& t : tuples_) {
      const bool hit = t.time >= q.time_lo && t.time <= q.time_hi &&
                       (t.keys == q.key_values[0] || t.keys == q.key_values[1]);
      if (hit && observations.size() < 3 &&
          std::find(observations.begin(), observations.end(),
                    t.observation) == observations.end()) {
        observations.push_back(t.observation);
      }
    }
    observations.push_back("no-such-device");
    std::set<uint64_t> totals, matched;
    for (const std::string& obs : observations) {
      q.observation = obs;
      OpCounter().Reset();
      auto r = sp_->Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      totals.insert(OpCounter().Total());
      matched.insert(r->rows_matched);
    }
    EXPECT_GT(matched.size(), 1u) << "selectivity never varied";
    EXPECT_EQ(totals.size(), 1u)
        << "oblivious op trace varies within one plan shape, method "
        << static_cast<int>(method);
  }

  // Single-unit plans whose units hold different cells: the planner shapes
  // every unit's trapdoor slots from epoch-level values, so the trace must
  // not depend on which key column (eBPB) or which interval (winSecRange)
  // the query names.
  const auto trace_totals = [&](RangeMethod method,
                                const std::vector<Query>& queries) {
    std::set<uint64_t> totals;
    for (Query q : queries) {
      q.agg = Aggregate::kCount;
      q.method = method;
      q.oblivious = true;
      OpCounter().Reset();
      auto r = sp_->Execute(q);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      totals.insert(OpCounter().Total());
    }
    return totals;
  };
  std::vector<Query> columns;  // One window, every key column.
  for (uint64_t k = 0; k < 20; ++k) {
    Query q;
    q.key_values = {{k}};
    q.time_lo = 4 * 3600;
    q.time_hi = 6 * 3600;
    columns.push_back(q);
  }
  EXPECT_EQ(trace_totals(RangeMethod::kEBPB, columns).size(), 1u)
      << "oblivious eBPB trace varies across key columns";
  std::vector<Query> intervals;  // One key, each one-interval window.
  for (uint64_t hour = 0; hour < 24; ++hour) {
    Query q;
    q.key_values = {{3}};
    q.time_lo = hour * 3600;
    q.time_hi = hour * 3600 + 3599;
    intervals.push_back(q);
  }
  EXPECT_EQ(trace_totals(RangeMethod::kWinSecRange, intervals).size(), 1u)
      << "oblivious winSecRange trace varies across intervals";
}

TEST_F(SecurityTest, ForwardPrivacy_TrapdoorsDoNotMatchOtherEpochs) {
  // Encrypt a second epoch holding the same logical values shifted by one
  // day: no ciphertext bytes can collide with epoch 0's rows.
  std::vector<PlainTuple> day2 = tuples_;
  for (auto& t : day2) t.time += 86400;
  auto epochs = dp_->EncryptAll(day2);
  ASSERT_TRUE(epochs.ok());
  std::set<Bytes> epoch0_cols;
  for (const Row& row : epoch_.rows) {
    for (const Column& col : row.columns) epoch0_cols.insert(col.ToBytes());
  }
  for (const Row& row : (*epochs)[0].rows) {
    for (const Column& col : row.columns) {
      EXPECT_EQ(epoch0_cols.count(col.ToBytes()), 0u);
    }
  }
}

TEST_F(SecurityTest, FakeRowsIndistinguishableByLengthAndEntropy) {
  // Fake tuples must blend in: per column, the multiset of ciphertext
  // lengths of fake rows is a subset of the real rows' length multiset,
  // and no byte position is constant across fakes.
  auto state = sp_->epoch_state(0);
  ASSERT_TRUE(state.ok());
  auto det = sp_->enclave().EpochDetCipher(0);
  ASSERT_TRUE(det.ok());

  std::set<size_t> real_el_lens, fake_el_lens;
  std::vector<Bytes> fake_els;
  for (const Row& row : epoch_.rows) {
    const bool is_fake = !det->Decrypt(row.columns[kColEr]).ok();
    if (is_fake) {
      fake_el_lens.insert(row.columns[kColEl].size());
      fake_els.push_back(row.columns[kColEl].ToBytes());
    } else {
      real_el_lens.insert(row.columns[kColEl].size());
    }
  }
  ASSERT_GT(fake_els.size(), 1u);
  for (size_t len : fake_el_lens) {
    EXPECT_TRUE(real_el_lens.count(len) > 0)
        << "fake length " << len << " never occurs among real rows";
  }
  // Entropy check: first byte varies across fakes.
  std::set<uint8_t> first_bytes;
  for (const auto& el : fake_els) first_bytes.insert(el[0]);
  EXPECT_GT(first_bytes.size(), 1u);
}

TEST_F(SecurityTest, WorkloadSkewFlattensWithSuperBins) {
  auto state = sp_->epoch_state(0);
  ASSERT_TRUE(state.ok());
  auto plan = (*state)->GetBinPlan(PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  const auto& layout = (*state)->layout();
  const uint32_t num_bins = static_cast<uint32_t>((*plan)->bins.size());

  auto base = SimulateUniformWorkload(layout, (*plan)->bin_of_cell_id,
                                      num_bins, {});
  uint32_t f = 1;
  for (uint32_t cand = 2; cand * 2 <= num_bins; ++cand) {
    if (num_bins % cand == 0) f = cand;  // Largest proper divisor <= n/2.
  }
  if (f == 1) GTEST_SKIP() << "prime bin count; no nontrivial factor";
  auto sbp = MakeSuperBins(
      EstimateUniqueValuesPerBin(**plan, layout), f);
  ASSERT_TRUE(sbp.ok());
  auto flattened = SimulateUniformWorkload(layout, (*plan)->bin_of_cell_id,
                                           num_bins, sbp->super_of_bin);
  EXPECT_LE(flattened.skew, base.skew);
  EXPECT_LE(flattened.max_retrievals - flattened.min_retrievals,
            base.max_retrievals - base.min_retrievals);
}

TEST_F(SecurityTest, EpochTransportRoundTrips) {
  const Bytes blob = SerializeEpoch(epoch_);
  auto back = DeserializeEpoch(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch_id, epoch_.epoch_id);
  EXPECT_EQ(back->num_real_tuples, epoch_.num_real_tuples);
  EXPECT_EQ(back->num_fake_tuples, epoch_.num_fake_tuples);
  ASSERT_EQ(back->rows.size(), epoch_.rows.size());
  EXPECT_EQ(back->rows[0].columns, epoch_.rows[0].columns);
  EXPECT_EQ(back->enc_grid_layout, epoch_.enc_grid_layout);

  // A fresh SP can ingest the deserialized epoch and answer correctly.
  auto sp2 = ServiceProvider::Open(config_, dp_->shared_secret());
  ASSERT_TRUE(sp2.ok()) << sp2.status().ToString();
  ASSERT_TRUE((*sp2)->IngestEpoch(*back).ok());
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{3}};
  q.time_lo = 0;
  q.time_hi = 86399;
  auto a = sp_->Execute(q);
  auto b = (*sp2)->Execute(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->count, b->count);
}

TEST_F(SecurityTest, EpochTransportRejectsMangling) {
  Bytes blob = SerializeEpoch(epoch_);
  // Truncation.
  Bytes truncated(blob.begin(), blob.end() - 5);
  EXPECT_FALSE(DeserializeEpoch(truncated).ok());
  // Bit flip in the body.
  Bytes flipped = blob;
  flipped[flipped.size() / 2] ^= 1;
  EXPECT_TRUE(DeserializeEpoch(flipped).status().IsCorruption());
  // Bad magic.
  Bytes bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_TRUE(DeserializeEpoch(bad_magic).status().IsCorruption());
  // Unsupported version.
  Bytes bad_version = blob;
  bad_version[4] = 0x7f;
  EXPECT_TRUE(DeserializeEpoch(bad_version).status().IsInvalidArgument());
}

TEST_F(SecurityTest, CiphertextIndistinguishability_ErUniquePerRow) {
  // Every Er ciphertext in the epoch is unique (DET over tuples made
  // unique by their timestamps/payloads — paper §7 "ciphertext
  // indistinguishability").
  std::set<Bytes> ers;
  for (const Row& row : epoch_.rows) {
    EXPECT_TRUE(ers.insert(row.columns[kColEr].ToBytes()).second);
  }
  // And the Index column is unique by construction.
  std::set<Bytes> indexes;
  for (const Row& row : epoch_.rows) {
    EXPECT_TRUE(indexes.insert(row.columns[kColIndex].ToBytes()).second);
  }
}

}  // namespace
}  // namespace concealer
