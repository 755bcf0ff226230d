// Tests for the bin-packing layer: FFD/BFD behaviour, the paper's
// Example 4.1, Theorem 4.1 bounds as a property sweep, and the §8
// super-bin construction including Example 8.1.

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <set>

#include "common/random.h"
#include "concealer/bin_packing.h"
#include "concealer/super_bins.h"

namespace concealer {
namespace {

TEST(BinPackingTest, PaperExample41) {
  // c_tuple[5] = {79, 2, 73, 7, 7}: FFD must yield three bins of size 79
  // holding {cid0}, {cid2, cid1}, {cid3, cid4} and 69 total fakes
  // (Example 4.1 uses 1-based cids; ours are 0-based).
  const std::vector<uint32_t> c_tuple{79, 2, 73, 7, 7};
  auto plan = MakeBinPlan(c_tuple, PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->bin_size, 79u);
  ASSERT_EQ(plan->bins.size(), 3u);
  EXPECT_EQ(plan->bins[0].cell_ids, (std::vector<uint32_t>{0}));
  EXPECT_EQ(plan->bins[1].cell_ids, (std::vector<uint32_t>{2, 1}));
  EXPECT_EQ(plan->bins[2].cell_ids, (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(plan->bins[0].fake_count, 0u);
  EXPECT_EQ(plan->bins[1].fake_count, 4u);
  EXPECT_EQ(plan->bins[2].fake_count, 65u);
  EXPECT_EQ(plan->total_fakes, 69u);
  EXPECT_TRUE(CheckTheorem41(*plan, 79 + 2 + 73 + 7 + 7).ok());
}

TEST(BinPackingTest, FakeRangesAreDisjoint) {
  const std::vector<uint32_t> c_tuple{50, 30, 30, 10, 5, 5};
  auto plan = MakeBinPlan(c_tuple, PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  std::set<uint64_t> seen;
  for (const Bin& bin : plan->bins) {
    for (uint64_t f = bin.fake_id_lo; f < bin.fake_id_lo + bin.fake_count;
         ++f) {
      EXPECT_TRUE(seen.insert(f).second) << "fake id " << f << " reused";
    }
  }
  EXPECT_EQ(seen.size(), plan->total_fakes);
}

TEST(BinPackingTest, EveryCellIdPlacedExactlyOnce) {
  const std::vector<uint32_t> c_tuple{9, 0, 3, 3, 7, 0, 1};
  auto plan = MakeBinPlan(c_tuple, PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  std::vector<int> placed(c_tuple.size(), 0);
  for (const Bin& bin : plan->bins) {
    for (uint32_t cid : bin.cell_ids) placed[cid]++;
  }
  for (size_t cid = 0; cid < c_tuple.size(); ++cid) {
    EXPECT_EQ(placed[cid], 1) << "cid " << cid;
    EXPECT_EQ(plan->bins[plan->bin_of_cell_id[cid]].cell_ids.end() !=
                  std::find(plan->bins[plan->bin_of_cell_id[cid]]
                                .cell_ids.begin(),
                            plan->bins[plan->bin_of_cell_id[cid]]
                                .cell_ids.end(),
                            static_cast<uint32_t>(cid)),
              true);
  }
}

TEST(BinPackingTest, BfdPacksAtLeastAsTightAsFfdOnKnownCase) {
  // BFD picks the tightest bin; both must satisfy the same invariants.
  const std::vector<uint32_t> c_tuple{40, 35, 30, 25, 20, 15, 10, 5};
  auto ffd = MakeBinPlan(c_tuple, PackAlgorithm::kFirstFitDecreasing);
  auto bfd = MakeBinPlan(c_tuple, PackAlgorithm::kBestFitDecreasing);
  ASSERT_TRUE(ffd.ok());
  ASSERT_TRUE(bfd.ok());
  const uint64_t n = std::accumulate(c_tuple.begin(), c_tuple.end(), 0ull);
  EXPECT_TRUE(CheckTheorem41(*ffd, n).ok());
  EXPECT_TRUE(CheckTheorem41(*bfd, n).ok());
  EXPECT_LE(bfd->bins.size(), ffd->bins.size() + 1);
}

TEST(BinPackingTest, ExplicitBinSizeRejectsOversizedInput) {
  EXPECT_FALSE(MakeBinPlanWithSize({10, 5}, 8,
                                   PackAlgorithm::kFirstFitDecreasing)
                   .ok());
  EXPECT_FALSE(MakeBinPlanWithSize({1}, 0,
                                   PackAlgorithm::kFirstFitDecreasing)
                   .ok());
  EXPECT_FALSE(
      MakeBinPlan({}, PackAlgorithm::kFirstFitDecreasing).ok());
}

TEST(BinPackingTest, AllZeroWeightsStillProducesAPlan) {
  auto plan = MakeBinPlan({0, 0, 0}, PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan->bin_size, 1u);
  size_t placed = 0;
  for (const Bin& bin : plan->bins) placed += bin.cell_ids.size();
  EXPECT_EQ(placed, 3u);
}

// Theorem 4.1 property sweep over random weight distributions: bounds on
// bin count and fake count hold, bins are equi-sized, fake ranges disjoint.
struct SweepParams {
  uint64_t seed;
  uint32_t num_cids;
  uint32_t max_weight;
  bool bfd;
};

// gtest would print the parameter as its raw bytes, padding included,
// and those bytes end up in the test ids that ctest discovers; print the
// fields instead.
void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << "seed" << p.seed << "_cids" << p.num_cids << "_maxw"
      << p.max_weight << (p.bfd ? "_bfd" : "_ffd");
}

class Theorem41Sweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(Theorem41Sweep, BoundsHold) {
  const SweepParams p = GetParam();
  Rng rng(p.seed);
  std::vector<uint32_t> c_tuple(p.num_cids);
  uint64_t n = 0;
  for (auto& w : c_tuple) {
    // Skewed weights: occasionally heavy cell-ids, many light ones.
    w = rng.Uniform(4) == 0
            ? static_cast<uint32_t>(rng.Uniform(p.max_weight))
            : static_cast<uint32_t>(rng.Uniform(p.max_weight / 8 + 1));
    n += w;
  }
  auto plan = MakeBinPlan(c_tuple, p.bfd
                                       ? PackAlgorithm::kBestFitDecreasing
                                       : PackAlgorithm::kFirstFitDecreasing);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(CheckTheorem41(*plan, n).ok());

  // The sharper paper statement when n >> |b|: fakes <= n + |b|/2.
  if (n > 10ull * plan->bin_size) {
    EXPECT_LE(plan->total_fakes, n + plan->bin_size / 2 + plan->bin_size);
  }
  // FFD/BFD half-full property: at most one bin under half-full.
  uint32_t underfull = 0;
  for (const Bin& bin : plan->bins) {
    if (bin.real_tuples < plan->bin_size / 2) ++underfull;
  }
  EXPECT_LE(underfull, 1u + (n == 0 ? plan->bins.size() : 0));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, Theorem41Sweep,
    ::testing::Values(SweepParams{1, 10, 100, false},
                      SweepParams{2, 100, 1000, false},
                      SweepParams{3, 1000, 500, false},
                      SweepParams{4, 100, 1000, true},
                      SweepParams{5, 500, 50, true},
                      SweepParams{6, 37, 9999, false}));

TEST(SuperBinTest, PaperExample81) {
  // 12 bins with unique-value counts 1,2,9,1,2,10,1,1,1,8,2,7 and f = 4
  // must yield super-bins retrieved 12, 12, 11, 10 times under a uniform
  // workload (paper §8, Example 8.1).
  const std::vector<uint64_t> unique{1, 2, 9, 1, 2, 10, 1, 1, 1, 8, 2, 7};
  auto plan = MakeSuperBins(unique, 4);
  ASSERT_TRUE(plan.ok());
  std::vector<uint64_t> retrievals = UniformWorkloadRetrievals(*plan);
  std::sort(retrievals.begin(), retrievals.end(), std::greater<>());
  EXPECT_EQ(retrievals, (std::vector<uint64_t>{12, 12, 11, 10}));
  // Every super-bin has exactly 12/4 = 3 bins.
  for (const auto& sb : plan->super_bins) EXPECT_EQ(sb.size(), 3u);
}

TEST(SuperBinTest, RejectsBadFactor) {
  const std::vector<uint64_t> unique{1, 2, 3, 4, 5};
  EXPECT_FALSE(MakeSuperBins(unique, 0).ok());
  EXPECT_FALSE(MakeSuperBins(unique, 2).ok());  // 2 does not divide 5.
  EXPECT_FALSE(MakeSuperBins(unique, 6).ok());  // f > #bins.
  EXPECT_TRUE(MakeSuperBins(unique, 5).ok());
  EXPECT_TRUE(MakeSuperBins(unique, 1).ok());
}

TEST(SuperBinTest, BalancesBetterThanNaiveChunking) {
  // Strongly skewed unique counts: the balanced assignment's max/min
  // retrieval spread must beat contiguous chunking.
  Rng rng(9);
  std::vector<uint64_t> unique(40);
  for (auto& u : unique) u = 1 + rng.Uniform(64);
  auto plan = MakeSuperBins(unique, 8);
  ASSERT_TRUE(plan.ok());
  auto minmax =
      std::minmax_element(plan->unique_values.begin(),
                          plan->unique_values.end());

  std::vector<uint64_t> naive(8, 0);
  for (size_t i = 0; i < unique.size(); ++i) naive[i / 5] += unique[i];
  auto naive_minmax = std::minmax_element(naive.begin(), naive.end());

  EXPECT_LE(*minmax.second - *minmax.first,
            *naive_minmax.second - *naive_minmax.first);
}

TEST(SuperBinTest, SuperOfBinIsConsistent) {
  const std::vector<uint64_t> unique{5, 1, 3, 2, 4, 6};
  auto plan = MakeSuperBins(unique, 3);
  ASSERT_TRUE(plan.ok());
  for (uint32_t s = 0; s < plan->super_bins.size(); ++s) {
    for (uint32_t b : plan->super_bins[s]) {
      EXPECT_EQ(plan->super_of_bin[b], s);
    }
  }
}

}  // namespace
}  // namespace concealer
