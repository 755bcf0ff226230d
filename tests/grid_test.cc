// Tests for the grid (Algorithm 1 Stage 1) and the wire encodings.

#include <gtest/gtest.h>

#include <set>

#include "concealer/grid.h"
#include "concealer/types.h"
#include "concealer/wire.h"
#include "crypto/grid_hash.h"

namespace concealer {
namespace {

ConcealerConfig SmallConfig() {
  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {20};
  config.time_buckets = 24;
  config.num_cell_ids = 50;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;
  return config;
}

class GridTest : public ::testing::Test {
 protected:
  GridTest() {
    EXPECT_TRUE(hash_.SetKey(Bytes(32, 0x21)).ok());
  }
  GridHash hash_;
};

TEST_F(GridTest, CreateValidatesConfig) {
  ConcealerConfig config = SmallConfig();
  EXPECT_TRUE(Grid::Create(config, &hash_, 1, 0).ok());

  config.num_cell_ids = 0;
  EXPECT_FALSE(Grid::Create(config, &hash_, 1, 0).ok());
  config.num_cell_ids = 8 * 24 + 1;  // More cell-ids than cells.
  EXPECT_FALSE(Grid::Create(config, &hash_, 1, 0).ok());

  config = SmallConfig();
  config.key_buckets = {};
  EXPECT_FALSE(Grid::Create(config, &hash_, 1, 0).ok());

  config = SmallConfig();
  config.epoch_seconds = 100;  // Not divisible by 24 buckets.
  EXPECT_FALSE(Grid::Create(config, &hash_, 1, 0).ok());

  EXPECT_FALSE(Grid::Create(SmallConfig(), nullptr, 1, 0).ok());
}

TEST_F(GridTest, CellAssignmentsDeterministicAcrossInstances) {
  // DP and the enclave independently construct the grid; all mappings must
  // agree.
  auto g1 = Grid::Create(SmallConfig(), &hash_, 7, 7 * 86400);
  auto g2 = Grid::Create(SmallConfig(), &hash_, 7, 7 * 86400);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  for (uint32_t c = 0; c < g1->num_cells(); ++c) {
    EXPECT_EQ(g1->CellIdOf(c), g2->CellIdOf(c));
  }
  for (uint64_t loc = 0; loc < 20; ++loc) {
    auto c1 = g1->CellIndexOf({loc}, 7 * 86400 + 3600 * loc);
    auto c2 = g2->CellIndexOf({loc}, 7 * 86400 + 3600 * loc);
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE(c2.ok());
    EXPECT_EQ(*c1, *c2);
  }
}

TEST_F(GridTest, CellIdAllocationChangesAcrossEpochs) {
  auto g1 = Grid::Create(SmallConfig(), &hash_, 1, 0);
  auto g2 = Grid::Create(SmallConfig(), &hash_, 2, 86400);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  int same = 0;
  for (uint32_t c = 0; c < g1->num_cells(); ++c) {
    same += (g1->CellIdOf(c) == g2->CellIdOf(c));
  }
  EXPECT_LT(same, static_cast<int>(g1->num_cells()) / 2);
}

TEST_F(GridTest, AllCellIdsWithinRange) {
  auto grid = Grid::Create(SmallConfig(), &hash_, 3, 0);
  ASSERT_TRUE(grid.ok());
  for (uint32_t c = 0; c < grid->num_cells(); ++c) {
    EXPECT_LT(grid->CellIdOf(c), SmallConfig().num_cell_ids);
  }
}

TEST_F(GridTest, TimeBucketsPartitionTheEpoch) {
  auto grid = Grid::Create(SmallConfig(), &hash_, 1, 86400);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->TimeBucketOf(86400), 0u);
  EXPECT_EQ(grid->TimeBucketOf(86400 + 3599), 0u);
  EXPECT_EQ(grid->TimeBucketOf(86400 + 3600), 1u);
  EXPECT_EQ(grid->TimeBucketOf(86400 + 86399), 23u);
  // Out-of-epoch timestamps clamp.
  EXPECT_EQ(grid->TimeBucketOf(0), 0u);
  EXPECT_EQ(grid->TimeBucketOf(86400 * 5), 23u);
}

TEST_F(GridTest, CellIndexUsesKeyHashAndTimeBucket) {
  auto grid = Grid::Create(SmallConfig(), &hash_, 1, 0);
  ASSERT_TRUE(grid.ok());
  // Same key, same bucket -> same cell; different bucket -> different cell.
  auto a = grid->CellIndexOf({5}, 100);
  auto b = grid->CellIndexOf({5}, 3599);
  auto c = grid->CellIndexOf({5}, 3600);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_NE(*a, *c);
  // Arity mismatch rejected.
  EXPECT_FALSE(grid->CellIndexOf({1, 2}, 0).ok());
}

TEST_F(GridTest, CoverCellsSingleKeyRange) {
  auto grid = Grid::Create(SmallConfig(), &hash_, 1, 0);
  ASSERT_TRUE(grid.ok());
  auto cover = grid->CoverCells({{5}}, 2, 4);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->size(), 3u);  // One key column x three buckets.
  // Each covered cell must map back to key 5's column.
  auto cell_b2 = grid->CellIndexOf({5}, 2 * 3600);
  ASSERT_TRUE(cell_b2.ok());
  EXPECT_NE(std::find(cover->begin(), cover->end(), *cell_b2), cover->end());
}

TEST_F(GridTest, CoverCellsWholeDomain) {
  auto grid = Grid::Create(SmallConfig(), &hash_, 1, 0);
  ASSERT_TRUE(grid.ok());
  auto cover = grid->CoverCells({}, 0, 0);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->size(), 8u);  // All 8 key columns at bucket 0.
  auto all = grid->CoverCells({}, 0, 23);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 8u * 24);
  EXPECT_FALSE(grid->CoverCells({}, 0, 24).ok());  // Bucket out of range.
}

TEST_F(GridTest, CoverCellsDeduplicatesCollidingKeys) {
  auto grid = Grid::Create(SmallConfig(), &hash_, 1, 0);
  ASSERT_TRUE(grid.ok());
  // 20 domain values hash into 8 columns: duplicates collapse.
  std::vector<std::vector<uint64_t>> all_keys;
  for (uint64_t k = 0; k < 20; ++k) all_keys.push_back({k});
  auto cover = grid->CoverCells(all_keys, 0, 0);
  ASSERT_TRUE(cover.ok());
  EXPECT_LE(cover->size(), 8u);
  std::set<uint32_t> dedup(cover->begin(), cover->end());
  EXPECT_EQ(dedup.size(), cover->size());
}

TEST_F(GridTest, MultiAxisGrid) {
  ConcealerConfig config;
  config.key_buckets = {4, 5};
  config.key_domains = {100, 10};
  config.time_buckets = 0;  // Non-time-series (TPC-H style).
  config.num_cell_ids = 10;
  auto grid = Grid::Create(config, &hash_, 0, 0);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_cells(), 20u);
  auto cell = grid->CellIndexOf({42, 3}, 0);
  ASSERT_TRUE(cell.ok());
  EXPECT_LT(*cell, 20u);
  auto cover = grid->CoverCells({{42, 3}}, 0, 0);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->size(), 1u);
  EXPECT_EQ((*cover)[0], *cell);
}

TEST_F(GridTest, QuantizeTime) {
  auto grid = Grid::Create(SmallConfig(), &hash_, 1, 0);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->QuantizeTime(0), 0u);
  EXPECT_EQ(grid->QuantizeTime(59), 0u);
  EXPECT_EQ(grid->QuantizeTime(60), 60u);
  EXPECT_EQ(grid->QuantizeTime(119), 60u);
}

// --- wire encodings ---

TEST(WireTest, TuplePlainRoundTrip) {
  PlainTuple t;
  t.keys = {7, 42};
  t.time = 123456;
  t.observation = "dev-9";
  t.payload = NumericPayload(55, "|extra");
  auto parsed = ParseTuplePlain(TuplePlain(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->keys, t.keys);
  EXPECT_EQ(parsed->time, t.time);
  EXPECT_EQ(parsed->observation, t.observation);
  EXPECT_EQ(parsed->payload, t.payload);
  EXPECT_EQ(PayloadValue(*parsed), 55u);
}

TEST(WireTest, ParseTupleRejectsGarbage) {
  EXPECT_FALSE(ParseTuplePlain(Bytes{}).ok());
  EXPECT_FALSE(ParseTuplePlain(Bytes{'X', 0, 0, 0, 0}).ok());
  Bytes truncated = TuplePlain(PlainTuple{{1}, 5, "o", "p"});
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(ParseTuplePlain(truncated).ok());
}

TEST(WireTest, PlaintextEncodingsAreDomainSeparated) {
  // An El plaintext can never equal an Eo/Er/Index plaintext even with
  // contrived values (distinct leading tags).
  const Bytes el = KeyTimePlain({1}, 60);
  const Bytes eo = ObsTimePlain("x", 60);
  const Bytes ix = IndexPlain(1, 60);
  EXPECT_NE(el[0], eo[0]);
  EXPECT_NE(el[0], ix[0]);
  EXPECT_NE(eo[0], ix[0]);
}

TEST(WireTest, GridLayoutRoundTrip) {
  GridLayout layout;
  layout.cell_of_cell_index = {1, 0, 2, 1};
  layout.count_per_cell = {4, 0, 1, 2};
  layout.count_per_cell_id = {4, 2, 1};
  auto back = DeserializeGridLayout(SerializeGridLayout(layout));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cell_of_cell_index, layout.cell_of_cell_index);
  EXPECT_EQ(back->count_per_cell, layout.count_per_cell);
  EXPECT_EQ(back->count_per_cell_id, layout.count_per_cell_id);
  EXPECT_FALSE(DeserializeGridLayout(Bytes{1, 0}).ok());
}

TEST(WireTest, TagsRoundTrip) {
  VerificationTags tags;
  ChainTags t;
  t.el.fill(1);
  t.eo.fill(2);
  t.er.fill(3);
  tags.emplace(7, t);
  t.el.fill(9);
  tags.emplace(1, t);
  auto back = DeserializeTags(SerializeTags(tags));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ(back->at(7).eo[0], 2);
  EXPECT_EQ(back->at(1).el[0], 9);
  EXPECT_FALSE(DeserializeTags(Bytes{5, 0, 0, 0, 1}).ok());
}

TEST(WireTest, QueryResultRoundTrip) {
  QueryResult r;
  r.count = 42;
  r.rows_fetched = 100;
  r.rows_matched = 42;
  r.verified = true;
  r.keyed_counts = {{{1, 2}, 10}, {{3}, 5}};
  auto back = DeserializeQueryResult(SerializeQueryResult(r));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->count, 42u);
  EXPECT_EQ(back->rows_fetched, 100u);
  EXPECT_EQ(back->rows_matched, 42u);
  EXPECT_TRUE(back->verified);
  ASSERT_EQ(back->keyed_counts.size(), 2u);
  EXPECT_EQ(back->keyed_counts[0].first, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(back->keyed_counts[1].second, 5u);
  EXPECT_FALSE(DeserializeQueryResult(Bytes{1, 2, 3}).ok());
}

TEST(WireTest, ChainStepMatchesManualChain) {
  const Bytes a{1, 2, 3}, b{4, 5};
  const auto h0 = ChainStep(a, nullptr);
  const auto h1 = ChainStep(b, &h0);
  // Manual: SHA256(b || h0).
  Sha256 h;
  h.Update(b);
  h.Update(Slice(h0.data(), h0.size()));
  EXPECT_EQ(h1, h.Finish());
}

TEST(WireTest, ChainStepRowMatchesThreeChainSteps) {
  Row row;
  row.columns.resize(kNumRowColumns);
  ChainTags lanes{}, single{};
  for (uint8_t step = 0; step < 5; ++step) {
    row.columns[kColEl] = Bytes(29, step);
    row.columns[kColEo] = Bytes(33, uint8_t(step + 1));
    row.columns[kColEr] = Bytes(45, uint8_t(step + 2));
    const bool started = step > 0;
    ChainStepRow(row, started, &lanes);
    single.el = ChainStep(row.columns[kColEl], started ? &single.el : nullptr);
    single.eo = ChainStep(row.columns[kColEo], started ? &single.eo : nullptr);
    single.er = ChainStep(row.columns[kColEr], started ? &single.er : nullptr);
    EXPECT_EQ(lanes.el, single.el) << int(step);
    EXPECT_EQ(lanes.eo, single.eo) << int(step);
    EXPECT_EQ(lanes.er, single.er) << int(step);
  }
}

}  // namespace
}  // namespace concealer
