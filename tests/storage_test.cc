// Unit and property tests for the storage layer: B+-tree, the pluggable
// engines (in-memory heap and the mmap segment engine) and the
// encrypted-table facade — the table tests run against BOTH engines and
// must behave identically.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>

#include "common/coding.h"
#include "common/random.h"
#include "storage/bplus_tree.h"
#include "storage/encrypted_table.h"
#include "storage/node_store.h"
#include "storage/row_store.h"
#include "storage/segment_engine.h"
#include "test_engine.h"

namespace concealer {
namespace {

Bytes Key(uint64_t v) {
  Bytes b;
  PutFixed64(&b, v);
  return b;
}

// Big-endian key: lexicographic byte order == numeric order. Used where a
// test asserts ordered iteration.
Bytes OrderedKey(uint64_t v) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) b[i] = uint8_t(v >> (8 * (7 - i)));
  return b;
}

std::string TempDir() {
  char tmpl[] = "/tmp/concealer-storage-test-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void RemoveDirRecursive(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

// Per-key probe: the row id on a hit, nullopt on a miss. A probe error
// fails the calling test.
std::optional<uint64_t> FindId(const BPlusTree& tree, Slice key) {
  uint64_t row_id = 0;
  bool found = false;
  const Status st = tree.Find(key, &row_id, &found);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!st.ok() || !found) return std::nullopt;
  return row_id;
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(FindId(tree, Key(1)).has_value());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, InsertAndGet) {
  BPlusTree tree;
  ASSERT_TRUE(tree.Insert(Key(10), 100).ok());
  ASSERT_TRUE(tree.Insert(Key(20), 200).ok());
  const std::optional<uint64_t> v = FindId(tree, Key(10));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 100u);
  EXPECT_FALSE(FindId(tree, Key(15)).has_value());
  EXPECT_TRUE(FindId(tree, Key(20)).has_value());
}

TEST(BPlusTreeTest, RejectsDuplicates) {
  BPlusTree tree;
  ASSERT_TRUE(tree.Insert(Key(1), 1).ok());
  EXPECT_TRUE(tree.Insert(Key(1), 2).IsInvalidArgument());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), i).ok());
  }
  EXPECT_EQ(tree.size(), 10000u);
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  for (uint64_t i = 0; i < 10000; ++i) {
    const std::optional<uint64_t> v = FindId(tree, Key(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i);
  }
}

TEST(BPlusTreeTest, ScanVisitsInOrder) {
  BPlusTree tree;
  Rng rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.Next());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<uint64_t> shuffled = keys;
  rng.Shuffle(&shuffled);
  for (uint64_t k : shuffled) ASSERT_TRUE(tree.Insert(OrderedKey(k), k).ok());

  std::vector<uint64_t> visited;
  ASSERT_TRUE(tree.ForEach([&](Slice, uint64_t v) {
                    visited.push_back(v);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(visited, keys);
}

TEST(BPlusTreeTest, ScanEarlyStop) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree.Insert(Key(i), i).ok());
  int count = 0;
  // An early stop is not an error.
  EXPECT_TRUE(tree.ForEach([&](Slice, uint64_t) { return ++count < 10; }).ok());
  EXPECT_EQ(count, 10);
}

// Property test across insertion orders: tree matches a std::map oracle and
// invariants hold.
class BPlusTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreePropertyTest, MatchesMapOracle) {
  BPlusTree tree;
  std::map<Bytes, uint64_t> oracle;
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.Uniform(5000);
    Bytes key = Key(k);
    const bool dup = oracle.count(key) > 0;
    const Status st = tree.Insert(key, k);
    EXPECT_EQ(st.ok(), !dup);
    if (!dup) oracle[key] = k;
  }
  EXPECT_EQ(tree.size(), oracle.size());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (const auto& [key, val] : oracle) {
    const std::optional<uint64_t> v = FindId(tree, key);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, val);
  }
  // Absent keys miss.
  for (uint64_t k = 5000; k < 5100; ++k) {
    EXPECT_FALSE(FindId(tree, Key(k)).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreePropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

TEST(BPlusTreeTest, VariableLengthKeys) {
  BPlusTree tree;
  std::vector<std::string> keys = {"", "a", "ab", "abc", "b", "ba", "z"};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(Slice(keys[i]), i).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::optional<uint64_t> v = FindId(tree, Slice(keys[i]));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

// --- BulkFind --------------------------------------------------------------
//
// The suites keep the BPlusTreeBulkGet* names the batched probe had before
// it became BulkFind, so their test ids stay the same across releases.

// Differential check: runs BulkFind over `probes` (must be sorted ascending,
// duplicates allowed) and compares every slot against per-key Find.
// Returns the per-slot row ids (kNoMatch on a miss).
std::vector<uint64_t> DifferentialBulkFind(const BPlusTree& tree,
                                           const std::vector<Bytes>& probes) {
  std::vector<Slice> views(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) views[i] = Slice(probes[i]);
  std::vector<uint64_t> ids(probes.size(), 0xdead);
  size_t hits = 0;
  const Status st = tree.BulkFind(views.data(), views.size(), ids.data(),
                                  &hits);
  EXPECT_TRUE(st.ok()) << st.ToString();
  size_t expect_hits = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::optional<uint64_t> v = FindId(tree, probes[i]);
    if (v.has_value()) {
      ++expect_hits;
      EXPECT_EQ(ids[i], *v) << "probe " << i;
    } else {
      EXPECT_EQ(ids[i], BPlusTree::kNoMatch) << "probe " << i;
    }
  }
  EXPECT_EQ(hits, expect_hits);
  return ids;
}

// Runs the differential against both BulkFind branches: `tree` as built
// (the resident lockstep descent), then the same tree saved to a node file
// and attached under a node cache smaller than one page, so every leaf the
// paged branch touches is loaded, evicted and reloaded. Both branches must
// also return the same row ids. Returns the hit count (duplicates of a
// present key each count).
size_t DifferentialBulkFindBothBranches(const BPlusTree& tree,
                                        const std::vector<Bytes>& probes) {
  const std::vector<uint64_t> want = DifferentialBulkFind(tree, probes);
  const std::string dir = TempDir();
  {
    NodeStore store({dir + "/index-nodes", /*cache_bytes=*/256});
    EXPECT_TRUE(tree.SavePaged(&store, /*stamp=*/1).ok());
    EXPECT_TRUE(store.Open().ok());
    BPlusTree paged;
    EXPECT_TRUE(paged.AttachPaged(&store).ok());
    EXPECT_EQ(DifferentialBulkFind(paged, probes), want);
  }
  RemoveDirRecursive(dir);
  return static_cast<size_t>(std::count_if(
      want.begin(), want.end(),
      [](uint64_t id) { return id != BPlusTree::kNoMatch; }));
}

TEST(BPlusTreeBulkGetTest, EmptyTreeAndEmptyProbeSet) {
  BPlusTree tree;
  size_t hits = 1;
  EXPECT_TRUE(tree.BulkFind(nullptr, 0, nullptr, &hits).ok());
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(DifferentialBulkFindBothBranches(tree, {}), 0u);
  std::vector<Bytes> probes{OrderedKey(1), OrderedKey(2)};
  EXPECT_EQ(DifferentialBulkFindBothBranches(tree, probes), 0u);
}

TEST(BPlusTreeBulkGetTest, SingleLeaf) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(OrderedKey(i * 2), i).ok());
  }
  ASSERT_EQ(tree.height(), 1);
  std::vector<Bytes> probes;  // Every even hits, every odd misses.
  for (uint64_t v = 0; v < 22; ++v) probes.push_back(OrderedKey(v));
  EXPECT_EQ(DifferentialBulkFindBothBranches(tree, probes), 10u);
}

TEST(BPlusTreeBulkGetTest, DuplicateProbes) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(OrderedKey(i * 2), i).ok());
  }
  std::vector<Bytes> probes;
  for (int rep = 0; rep < 3; ++rep) {
    probes.push_back(OrderedKey(100));   // Present.
    probes.push_back(OrderedKey(1001));  // Absent.
  }
  std::sort(probes.begin(), probes.end());
  EXPECT_EQ(DifferentialBulkFindBothBranches(tree, probes), 3u);
}

TEST(BPlusTreeBulkGetTest, LeafBoundaryAndGapProbes) {
  // Every stored key probed in one batch crosses every leaf boundary of the
  // tree; the interleaved odd keys exercise the miss path in every gap.
  BPlusTree tree;
  const uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(OrderedKey(i * 2), i).ok());
  }
  ASSERT_GT(tree.height(), 1);
  std::vector<Bytes> probes;
  for (uint64_t v = 0; v < 2 * kN + 2; ++v) probes.push_back(OrderedKey(v));
  EXPECT_EQ(DifferentialBulkFindBothBranches(tree, probes), kN);
}

TEST(BPlusTreeBulkGetTest, ProbesSpanLazilyEmptiedLeaves) {
  // Lazy deletion leaves empty leaves in the chain; a probe batch walking
  // across the deleted range must skip them (regression for the chain-walk
  // re-targeting step).
  BPlusTree tree;
  const uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(OrderedKey(i), i).ok());
  }
  ASSERT_GT(tree.height(), 1);
  // Empty many consecutive leaves in the middle.
  for (uint64_t i = 1000; i < 2000; ++i) {
    ASSERT_TRUE(tree.Delete(OrderedKey(i)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<Bytes> probes;
  for (uint64_t i = 900; i < 2100; ++i) probes.push_back(OrderedKey(i));
  EXPECT_EQ(DifferentialBulkFindBothBranches(tree, probes), 200u);
  probes.clear();
  for (uint64_t i = 0; i < kN; i += 7) probes.push_back(OrderedKey(i));
  DifferentialBulkFindBothBranches(tree, probes);
}

// Randomized differential property: random tree (with deletions), random
// probe sets with duplicates, absent keys and boundary values — BulkFind
// must answer exactly as per-key Find on every slot, on both branches.
class BPlusTreeBulkGetPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeBulkGetPropertyTest, MatchesPerKeyGet) {
  Rng rng(GetParam());
  BPlusTree tree;
  std::vector<uint64_t> inserted;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t k = rng.Uniform(30000);
    if (tree.Insert(OrderedKey(k), k).ok()) inserted.push_back(k);
  }
  // Lazy-delete a random subset so some probes cross emptied entries.
  for (size_t i = 0; i < inserted.size(); i += 3) {
    ASSERT_TRUE(tree.Delete(OrderedKey(inserted[i])).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (const size_t probe_count : {1u, 16u, 256u, 1024u}) {
    std::vector<Bytes> probes;
    probes.reserve(probe_count);
    for (size_t i = 0; i < probe_count; ++i) {
      // Mix of likely-present, certainly-absent, and duplicated probes.
      const uint64_t pick = rng.Uniform(10);
      uint64_t v;
      if (pick < 6 && !inserted.empty()) {
        v = inserted[rng.Uniform(inserted.size())];
      } else if (pick < 9) {
        v = rng.Uniform(40000);  // May or may not be present.
      } else if (!probes.empty()) {
        probes.push_back(probes[rng.Uniform(probes.size())]);  // Duplicate.
        continue;
      } else {
        v = 0;
      }
      probes.push_back(OrderedKey(v));
    }
    std::sort(probes.begin(), probes.end());
    DifferentialBulkFindBothBranches(tree, probes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeBulkGetPropertyTest,
                         ::testing::Values(2, 11, 47, 4321, 55555));

// --- Column semantics -----------------------------------------------------

TEST(ColumnTest, OwnedAndBorrowedExposeSameBytes) {
  const Bytes data{1, 2, 3, 4};
  Column owned(data);
  Column borrowed = Column::Borrowed(data.data(), data.size());
  EXPECT_FALSE(owned.borrowed());
  EXPECT_TRUE(borrowed.borrowed());
  EXPECT_EQ(owned, borrowed);
  EXPECT_EQ(borrowed.data(), data.data());  // View, not a copy.
  EXPECT_NE(owned.data(), data.data());
}

TEST(ColumnTest, CopyMaterializesBorrow) {
  const Bytes data{9, 8, 7};
  Column borrowed = Column::Borrowed(data.data(), data.size());
  Column copy = borrowed;  // NOLINT: the copy is the point.
  EXPECT_FALSE(copy.borrowed());
  EXPECT_NE(copy.data(), data.data());
  EXPECT_EQ(copy, borrowed);
  // Moves preserve the mode.
  Column moved = std::move(borrowed);
  EXPECT_TRUE(moved.borrowed());
  EXPECT_EQ(moved.data(), data.data());
}

// --- Engine-parameterized tests -------------------------------------------

enum class EngineKind { kMemory, kMmap };

std::unique_ptr<StorageEngine> MakeEngine(EngineKind kind) {
  StorageOptions options;
  options.engine = kind == EngineKind::kMemory
                       ? StorageOptions::Engine::kMemory
                       : StorageOptions::Engine::kMmap;
  // Empty dir => ephemeral temp directory removed on destruction.
  auto engine = MakeStorageEngine(options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

class EngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineTest, AppendGetReplace) {
  auto store = MakeEngine(GetParam());
  Row r1{{Bytes{1, 2}, Bytes{3}}};
  Row r2{{Bytes{4}, Bytes{5, 6, 7}}};
  auto id1 = store->Append(r1);
  auto id2 = store->Append(r2);
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_EQ(*id1, 0u);
  EXPECT_EQ(*id2, 1u);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->TotalBytes(), 7u);

  auto got = store->Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->columns, r1.columns);
  EXPECT_TRUE(store->Get(5).status().IsNotFound());
  EXPECT_EQ(store->GetRef(5), nullptr);

  Row r3{{Bytes{9, 9, 9, 9}}};
  ASSERT_TRUE(store->Replace(0, r3).ok());
  EXPECT_EQ(store->GetRef(0)->columns, r3.columns);
  EXPECT_EQ(store->TotalBytes(), 8u);  // 4 (new r1) + 4 (r2).
  EXPECT_TRUE(store->Replace(9, r3).IsNotFound());
}

TEST_P(EngineTest, GenerationBumpsOnEveryMutation) {
  auto store = MakeEngine(GetParam());
  const uint64_t g0 = store->generation();
  ASSERT_TRUE(store->Append(Row{{Bytes{1}}}).ok());
  const uint64_t g1 = store->generation();
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(store->Replace(0, Row{{Bytes{2}}}).ok());
  EXPECT_GT(store->generation(), g1);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest,
                         ::testing::Values(EngineKind::kMemory,
                                           EngineKind::kMmap),
                         [](const auto& info) {
                           return info.param == EngineKind::kMemory
                                      ? "memory"
                                      : "mmap";
                         });

// --- EncryptedTable over both engines -------------------------------------

class EncryptedTableTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  std::unique_ptr<EncryptedTable> MakeTable(size_t num_columns,
                                            size_t index_column) {
    return std::make_unique<EncryptedTable>("t", num_columns, index_column,
                                            MakeEngine(GetParam()));
  }
};

TEST_P(EncryptedTableTest, InsertAndFetchByIndexKeys) {
  auto table = MakeTable(3, 2);
  for (uint64_t i = 0; i < 100; ++i) {
    Row row{{Bytes{uint8_t(i)}, Bytes{uint8_t(i + 1)}, Key(i)}};
    ASSERT_TRUE(table->Insert(std::move(row)).ok());
  }
  EXPECT_EQ(table->num_rows(), 100u);

  std::vector<Bytes> keys{Key(5), Key(50), Key(500)};  // Last one misses.
  std::vector<RowRef> refs;
  ASSERT_TRUE(table->FetchRefs(keys, &refs).ok());
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].get()->columns[0], Column(Bytes{5}));
  EXPECT_EQ(refs[1].get()->columns[0], Column(Bytes{50}));

  const TableStats stats = table->stats();
  EXPECT_EQ(stats.index_probes, 3u);
  EXPECT_EQ(stats.index_hits, 2u);
  EXPECT_EQ(stats.rows_fetched, 2u);
  EXPECT_EQ(stats.rows_inserted, 100u);
}

TEST_P(EncryptedTableTest, RejectsArityMismatch) {
  auto table = MakeTable(3, 2);
  Row bad{{Bytes{1}, Key(0)}};
  EXPECT_TRUE(table->Insert(std::move(bad)).IsInvalidArgument());
}

TEST_P(EncryptedTableTest, RejectsDuplicateIndexKey) {
  auto table = MakeTable(2, 1);
  ASSERT_TRUE(table->Insert(Row{{Bytes{1}, Key(7)}}).ok());
  EXPECT_FALSE(table->Insert(Row{{Bytes{2}, Key(7)}}).ok());
}

TEST_P(EncryptedTableTest, ScanCountsRows) {
  auto table = MakeTable(2, 1);
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
  }
  uint64_t seen = 0;
  ASSERT_TRUE(table->Scan([&](const Row&) {
                     ++seen;
                     return true;
                   })
                  .ok());
  EXPECT_EQ(seen, 20u);
  EXPECT_EQ(table->stats().rows_scanned, 20u);
}

TEST_P(EncryptedTableTest, FetchWithIdsAndReplace) {
  auto table = MakeTable(2, 1);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
  }
  std::vector<RowRef> refs;
  ASSERT_TRUE(table->FetchRefs({Key(3)}, &refs).ok());
  ASSERT_EQ(refs.size(), 1u);
  Row updated{{Bytes{0xee}, Key(3)}};
  ASSERT_TRUE(table->ReplaceRows({{refs[0].row_id, updated}}).ok());
  refs.clear();
  ASSERT_TRUE(table->FetchRefs({Key(3)}, &refs).ok());
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].get()->columns[0], Column(Bytes{0xee}));
}

TEST_P(EncryptedTableTest, FetchRefsBorrowsRowsAndCountsBytes) {
  auto table = MakeTable(3, 2);
  for (uint64_t i = 0; i < 30; ++i) {
    // Column sizes 1 + 2 + |Key(i)| = 1 + 2 + 8 = 11 bytes per row.
    Row row{{Bytes{uint8_t(i)}, Bytes{uint8_t(i), uint8_t(i)}, Key(i)}};
    ASSERT_TRUE(table->Insert(std::move(row)).ok());
  }
  std::vector<RowRef> refs;
  ASSERT_TRUE(table->FetchRefs({Key(2), Key(7), Key(999), Key(11)}, &refs).ok());
  ASSERT_EQ(refs.size(), 3u);
  // Borrowed pointers read the stored bytes in place (no copy).
  EXPECT_EQ(refs[0].get()->columns[0], Column(Bytes{2}));
  EXPECT_EQ(refs[1].get()->columns[0], Column(Bytes{7}));
  EXPECT_EQ(refs[2].get()->columns[0], Column(Bytes{11}));
  EXPECT_EQ(refs[1].row_id, 7u);
  // Each ref names the probe that matched it; the missed probe 2 is skipped.
  EXPECT_EQ(refs[0].probe, 0u);
  EXPECT_EQ(refs[1].probe, 1u);
  EXPECT_EQ(refs[2].probe, 3u);
  for (const RowRef& ref : refs) EXPECT_FALSE(ref.stale());

  if (GetParam() == EngineKind::kMmap) {
    // Zero-copy really means the mapped region: every borrowed column
    // points into a segment file, not the heap.
    const EncryptedTable& ctable = *table;
    const auto* engine = static_cast<const SegmentEngine*>(&ctable.engine());
    for (const RowRef& ref : refs) {
      for (const Column& col : ref.get()->columns) {
        EXPECT_TRUE(col.borrowed());
        EXPECT_TRUE(engine->IsMapped(col.data()));
      }
    }
  }

  const TableStats stats = table->stats();
  EXPECT_EQ(stats.index_probes, 4u);
  EXPECT_EQ(stats.index_hits, 3u);
  EXPECT_EQ(stats.rows_fetched, 3u);
  EXPECT_EQ(stats.bytes_fetched, 3u * 11u);

  // A single probe is a batch of one and counts bytes the same way.
  refs.clear();
  ASSERT_TRUE(table->FetchRefs({Key(1)}, &refs).ok());
  EXPECT_EQ(table->stats().bytes_fetched, 4u * 11u);
}

TEST_P(EncryptedTableTest, BulkAndPerKeyFetchRefsAreIdentical) {
  // FetchRefs' bulk probe must be observationally identical to a per-key
  // fetch loop — one Find per key on a tree built by the same inserts, then
  // the engine's borrowed row: same refs, same order, same stats. The
  // probe set is shuffled (FetchRefs sorts internally via a permutation)
  // and mixes hits, misses and duplicates. On the mmap engine the check
  // runs again after the index is paged to the node file.
  auto table = MakeTable(2, 1);
  BPlusTree per_key_index;
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        table->Insert(Row{{Bytes{uint8_t(i), uint8_t(i >> 8)}, Key(i * 3)}})
            .ok());
    ASSERT_TRUE(per_key_index.Insert(Key(i * 3), i).ok());
  }
  Rng rng(77);
  std::vector<Bytes> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(Key(rng.Uniform(2000)));
  keys.push_back(keys[0]);  // Guaranteed duplicate probe.
  rng.Shuffle(&keys);

  std::vector<std::pair<uint64_t, const Row*>> per_key;  // (row id, row)
  uint64_t per_key_bytes = 0;
  for (const Bytes& key : keys) {
    const std::optional<uint64_t> id = FindId(per_key_index, key);
    if (!id.has_value()) continue;
    const Row* row = table->engine()->GetRef(*id);
    ASSERT_NE(row, nullptr);
    per_key_bytes += RowByteSize(*row);
    per_key.emplace_back(*id, row);
  }
  ASSERT_GT(per_key.size(), 0u);

  const auto expect_identical = [&] {
    table->ResetStats();
    std::vector<RowRef> bulk;
    ASSERT_TRUE(table->FetchRefs(keys, &bulk).ok());
    ASSERT_EQ(bulk.size(), per_key.size());
    for (size_t i = 0; i < bulk.size(); ++i) {
      EXPECT_EQ(bulk[i].row_id, per_key[i].first) << i;
      EXPECT_EQ(bulk[i].row, per_key[i].second) << i;  // Same borrowed row.
    }
    const TableStats stats = table->stats();
    EXPECT_EQ(stats.index_probes, keys.size());
    EXPECT_EQ(stats.index_hits, per_key.size());
    EXPECT_EQ(stats.rows_fetched, per_key.size());
    EXPECT_EQ(stats.bytes_fetched, per_key_bytes);
  };
  expect_identical();
  if (table->engine()->node_store() != nullptr) {
    ASSERT_TRUE(table->PersistPagedIndex().ok());
    ASSERT_TRUE(table->paged_index());
    expect_identical();
  }
}

TEST_P(EncryptedTableTest, RowRefStaleAfterMutation) {
  auto table = MakeTable(2, 1);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
  }
  std::vector<RowRef> refs;
  ASSERT_TRUE(table->FetchRefs({Key(1)}, &refs).ok());
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_FALSE(refs[0].stale());
  // Any engine mutation invalidates the borrow — the documented rule the
  // generation counter now enforces.
  ASSERT_TRUE(table->Insert(Row{{Bytes{42}, Key(42)}}).ok());
  EXPECT_TRUE(refs[0].stale());
#ifndef NDEBUG
  EXPECT_DEATH((void)refs[0].get(), "RowRef read after invalidation");
#endif
}

TEST_P(EncryptedTableTest, BatchInsert) {
  auto table = MakeTable(2, 1);
  std::vector<Row> rows;
  for (uint64_t i = 0; i < 50; ++i) {
    rows.push_back(Row{{Bytes{uint8_t(i)}, Key(i)}});
  }
  ASSERT_TRUE(table->InsertBatch(std::move(rows)).ok());
  EXPECT_EQ(table->num_rows(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Engines, EncryptedTableTest,
                         ::testing::Values(EngineKind::kMemory,
                                           EngineKind::kMmap),
                         [](const auto& info) {
                           return info.param == EngineKind::kMemory
                                      ? "memory"
                                      : "mmap";
                         });

// --- SegmentEngine persistence --------------------------------------------

std::unique_ptr<StorageEngine> OpenSegEngine(const std::string& dir) {
  auto engine =
      SegmentEngine::Open(SegmentEngine::Options{dir, 1 << 20, false});
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

Row TestRow(uint64_t i) {
  return Row{{Bytes{uint8_t(i), uint8_t(i >> 8)}, Key(i), Key(i * 31)}};
}

TEST(SegmentEngineTest, RowsSurviveReopen) {
  const std::string dir = TempDir();
  {
    SegmentEngine::Options options;
    options.dir = dir;
    options.segment_bytes = 4096;  // Force several segments.
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
    ASSERT_TRUE((*engine)->Replace(17, TestRow(9999)).ok());
    EXPECT_GT((*engine)->NumSegments(), 1u);
  }  // Destructor seals + truncates.
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->size(), 200u);
    for (uint64_t i = 0; i < 200; ++i) {
      const Row* row = (*engine)->GetRef(i);
      ASSERT_NE(row, nullptr) << i;
      const Row want = i == 17 ? TestRow(9999) : TestRow(i);
      EXPECT_EQ(row->columns, want.columns) << i;
    }
  }
  RemoveDirRecursive(dir);
}

TEST(SegmentEngineTest, SealAlignsEpochsToSegments) {
  const std::string dir = TempDir();
  SegmentEngine::Options options;
  options.dir = dir;
  auto engine = SegmentEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  // "Epoch 0": rows 0-9 in segment 0; sealed; "epoch 1": rows 10-19 in 1.
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
  }
  ASSERT_TRUE((*engine)->SealSegment().ok());
  EXPECT_EQ((*engine)->NumSegments(), 1u);
  for (uint64_t i = 10; i < 20; ++i) {
    ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
  }
  ASSERT_TRUE((*engine)->SealSegment().ok());
  EXPECT_EQ((*engine)->NumSegments(), 2u);

  // Evict segment 0: its rows disappear from GetRef, segment 1's stay.
  ASSERT_TRUE((*engine)->EvictSegments(0, 0).ok());
  EXPECT_FALSE((*engine)->SegmentsResident(0, 0));
  EXPECT_TRUE((*engine)->SegmentsResident(1, 1));
  EXPECT_EQ((*engine)->GetRef(3), nullptr);
  ASSERT_NE((*engine)->GetRef(13), nullptr);
  EXPECT_TRUE((*engine)->Get(3).status().IsFailedPrecondition());

  // Load it back: byte-identical rows.
  ASSERT_TRUE((*engine)->LoadSegments(0, 0).ok());
  for (uint64_t i = 0; i < 20; ++i) {
    const Row* row = (*engine)->GetRef(i);
    ASSERT_NE(row, nullptr) << i;
    EXPECT_EQ(row->columns, TestRow(i).columns) << i;
  }
  engine->reset();
  RemoveDirRecursive(dir);
}

TEST(SegmentEngineTest, EvictionSparesRowsReplacedIntoNewerSegments) {
  const std::string dir = TempDir();
  SegmentEngine::Options options;
  options.dir = dir;
  auto engine = SegmentEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
  }
  ASSERT_TRUE((*engine)->SealSegment().ok());
  // Row 4's latest version lands in the (new) active segment.
  ASSERT_TRUE((*engine)->Replace(4, TestRow(444)).ok());
  ASSERT_TRUE((*engine)->SealSegment().ok());

  ASSERT_TRUE((*engine)->EvictSegments(0, 0).ok());
  EXPECT_EQ((*engine)->GetRef(3), nullptr);     // Lives in segment 0.
  ASSERT_NE((*engine)->GetRef(4), nullptr);     // Moved to segment 1.
  EXPECT_EQ((*engine)->GetRef(4)->columns, TestRow(444).columns);

  // Loading segment 0 must not resurrect row 4's old bytes.
  ASSERT_TRUE((*engine)->LoadSegments(0, 0).ok());
  EXPECT_EQ((*engine)->GetRef(4)->columns, TestRow(444).columns);
  EXPECT_EQ((*engine)->GetRef(3)->columns, TestRow(3).columns);
  engine->reset();
  RemoveDirRecursive(dir);
}

TEST(SegmentEngineTest, TornFinalRecordIsTruncatedOnRecovery) {
  const std::string dir = TempDir();
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
  }
  // Simulate a crash mid-append: flip a byte inside the last record.
  const std::string seg0 = dir + "/seg-000000.seg";
  std::FILE* f = std::fopen(seg0.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -3, SEEK_END);
  std::fputc(0xff, f);
  std::fclose(f);
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    // The torn record is dropped; everything before it survives.
    EXPECT_EQ((*engine)->size(), 4u);
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_NE((*engine)->GetRef(i), nullptr);
      EXPECT_EQ((*engine)->GetRef(i)->columns, TestRow(i).columns);
    }
  }
  RemoveDirRecursive(dir);
}

TEST(SegmentEngineTest, CorruptionBeforeFinalSegmentFailsOpenIntact) {
  const std::string dir = TempDir();
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
    ASSERT_TRUE((*engine)->SealSegment().ok());
    for (uint64_t i = 5; i < 10; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
  }
  // Flip a byte inside a record of segment 0 — committed, msync'd data in
  // a NON-final segment. That is real damage, not a torn tail: Open must
  // refuse, and must not truncate a single byte.
  const std::string seg0 = dir + "/seg-000000.seg";
  struct stat before;
  ASSERT_EQ(::stat(seg0.c_str(), &before), 0);
  std::FILE* f = std::fopen(seg0.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
  const int orig = std::fgetc(f);
  ASSERT_NE(orig, EOF);
  ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
  std::fputc(orig ^ 0xff, f);
  std::fclose(f);
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_FALSE(engine.ok());
    EXPECT_TRUE(engine.status().IsCorruption()) << engine.status().ToString();
  }
  struct stat after;
  ASSERT_EQ(::stat(seg0.c_str(), &after), 0);
  EXPECT_EQ(after.st_size, before.st_size);
  // Proof no committed byte was destroyed: repairing the flipped byte
  // brings every row straight back.
  f = std::fopen(seg0.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
  std::fputc(orig, f);
  std::fclose(f);
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->size(), 10u);
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_NE((*engine)->GetRef(i), nullptr) << i;
      EXPECT_EQ((*engine)->GetRef(i)->columns, TestRow(i).columns) << i;
    }
  }
  RemoveDirRecursive(dir);
}

TEST(SegmentEngineTest, TornTailInFinalOfSeveralSegmentsRecovers) {
  const std::string dir = TempDir();
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
    ASSERT_TRUE((*engine)->SealSegment().ok());
    for (uint64_t i = 5; i < 10; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
  }
  // Corrupt the last record of the FINAL segment: a genuine torn tail.
  const std::string seg1 = dir + "/seg-000001.seg";
  std::FILE* f = std::fopen(seg1.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
  std::fputc(0xff, f);
  std::fclose(f);
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    // Only the torn record is dropped; segment 0 is untouched.
    EXPECT_EQ((*engine)->size(), 9u);
    for (uint64_t i = 0; i < 9; ++i) {
      ASSERT_NE((*engine)->GetRef(i), nullptr) << i;
      EXPECT_EQ((*engine)->GetRef(i)->columns, TestRow(i).columns) << i;
    }
  }
  RemoveDirRecursive(dir);
}

TEST(SegmentEngineTest, FailedReloadLeavesSegmentEvicted) {
  const std::string dir = TempDir();
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
    ASSERT_TRUE((*engine)->SealSegment().ok());
    ASSERT_TRUE((*engine)->EvictSegments(0, 0).ok());

    // Corrupt the evicted file on disk (size preserved, checksum broken).
    const std::string seg0 = dir + "/seg-000000.seg";
    std::FILE* f = std::fopen(seg0.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
    const int orig = std::fgetc(f);
    ASSERT_NE(orig, EOF);
    ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
    std::fputc(orig ^ 0xff, f);
    std::fclose(f);

    // The reload must fail AND leave the segment evicted — "resident"
    // with cleared row columns would hand the query path empty vectors.
    Status st = (*engine)->LoadSegments(0, 0);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_FALSE((*engine)->SegmentsResident(0, 0));
    EXPECT_EQ((*engine)->GetRef(2), nullptr);

    // Repairing the file lets a retry succeed with the original bytes.
    f = std::fopen(seg0.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -3, SEEK_END), 0);
    std::fputc(orig, f);
    std::fclose(f);
    ASSERT_TRUE((*engine)->LoadSegments(0, 0).ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_NE((*engine)->GetRef(i), nullptr) << i;
      EXPECT_EQ((*engine)->GetRef(i)->columns, TestRow(i).columns) << i;
    }
  }
  RemoveDirRecursive(dir);
}

TEST(SegmentEngineTest, ScanFailsOnEvictedSegment) {
  const std::string dir = TempDir();
  {
    auto table =
        std::make_unique<EncryptedTable>("t", 2, 1, OpenSegEngine(dir));
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
    }
    ASSERT_TRUE(table->engine()->SealSegment().ok());
    ASSERT_TRUE(table->engine()->EvictSegments(0, 0).ok());
    // The Opaque-baseline full scan must fail loudly rather than return a
    // partial answer — same residency guard as the fetch path.
    uint64_t seen = 0;
    Status st = table->Scan([&](const Row&) {
      ++seen;
      return true;
    });
    EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
    EXPECT_EQ(seen, 0u);
    ASSERT_TRUE(table->engine()->LoadSegments(0, 0).ok());
    st = table->Scan([&](const Row&) {
      ++seen;
      return true;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(seen, 10u);
  }
  RemoveDirRecursive(dir);
}

// --- Segment compaction ----------------------------------------------------
// Dynamic-mode churn (§6 rewrites) strands dead record versions in sealed
// segments; Compact rewrites the survivors into the active segment and
// swaps the victim for a purge-marker tombstone under the existing
// generation/borrow-stamp protocol.

TEST(SegmentCompactionTest, RewritesLiveRowsAndReclaims) {
  const std::string dir = TempDir();
  SegmentEngine::Options options;
  options.dir = dir;
  options.segment_bytes = 4096;  // Force several sealed segments.
  auto engine = SegmentEngine::Open(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (uint64_t i = 0; i < 120; ++i) {
    ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
  }
  // Rewrite most early rows: their old records (in sealed segments) are
  // dead weight now.
  for (uint64_t i = 0; i < 80; ++i) {
    ASSERT_TRUE((*engine)->Replace(i, TestRow(1000 + i)).ok());
  }
  ASSERT_TRUE((*engine)->SealSegment().ok());
  ASSERT_GT((*engine)->DeadBytes(), 0u);
  const uint64_t disk_before = (*engine)->DiskBytes();
  const uint64_t gen_before = (*engine)->generation();

  auto reclaimed = (*engine)->Compact(0.3);
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
  EXPECT_GT(*reclaimed, 0u);
  EXPECT_LT((*engine)->DiskBytes(), disk_before);
  // Compaction invalidates outstanding borrows like any other mutation.
  EXPECT_GT((*engine)->generation(), gen_before);

  // Every row still reads back its LATEST bytes.
  for (uint64_t i = 0; i < 120; ++i) {
    const Row* row = (*engine)->GetRef(i);
    ASSERT_NE(row, nullptr) << i;
    const Row want = i < 80 ? TestRow(1000 + i) : TestRow(i);
    EXPECT_EQ(row->columns, want.columns) << i;
  }
  // A second pass finds nothing worth rewriting.
  auto again = (*engine)->Compact(0.3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  engine->reset();
  RemoveDirRecursive(dir);
}

TEST(SegmentCompactionTest, BorrowsGoStaleAcrossCompaction) {
  const std::string dir = TempDir();
  auto table = std::make_unique<EncryptedTable>("t", 2, 1, OpenSegEngine(dir));
  for (uint64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
  }
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        table->engine()->Replace(i, Row{{Bytes{0xbb}, Key(i)}}).ok());
  }
  ASSERT_TRUE(table->engine()->SealSegment().ok());

  std::vector<RowRef> refs;
  ASSERT_TRUE(table->FetchRefs({Key(45)}, &refs).ok());
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_FALSE(refs[0].stale());

  auto reclaimed = table->engine()->Compact(0.3);
  ASSERT_TRUE(reclaimed.ok());
  ASSERT_GT(*reclaimed, 0u);
  // The borrow protocol catches the rewrite — a reader that held a ref
  // across the compaction sees it stale instead of reading a stale (or
  // unmapped) record.
  EXPECT_TRUE(refs[0].stale());
  refs.clear();
  ASSERT_TRUE(table->FetchRefs({Key(45)}, &refs).ok());
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_FALSE(refs[0].stale());
  EXPECT_EQ(refs[0].get()->columns[0], Column(Bytes{45}));
  RemoveDirRecursive(dir);
}

TEST(SegmentCompactionTest, ChurnKeepsDeadBytesBounded) {
  const std::string dir = TempDir();
  SegmentEngine::Options options;
  options.dir = dir;
  options.segment_bytes = 4096;
  auto engine = SegmentEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
  }
  // Sustained churn with periodic compaction: the dead-byte ratio must
  // stay bounded instead of growing with the number of rounds.
  for (int round = 0; round < 12; ++round) {
    for (uint64_t i = 0; i < 64; i += 2) {
      ASSERT_TRUE(
          (*engine)->Replace(i, TestRow(64 * (round + 1) + i)).ok());
    }
    ASSERT_TRUE((*engine)->SealSegment().ok());
    ASSERT_TRUE((*engine)->Compact(0.4).ok()) << "round " << round;
  }
  const uint64_t dead = (*engine)->DeadBytes();
  const uint64_t disk = (*engine)->DiskBytes();
  ASSERT_GT(disk, 0u);
  EXPECT_LT(static_cast<double>(dead), 0.6 * static_cast<double>(disk))
      << "dead=" << dead << " disk=" << disk;
  for (uint64_t i = 0; i < 64; ++i) {
    const Row* row = (*engine)->GetRef(i);
    ASSERT_NE(row, nullptr) << i;
    const Row want = (i % 2) == 0 ? TestRow(64 * 12 + i) : TestRow(i);
    EXPECT_EQ(row->columns, want.columns) << i;
  }
  engine->reset();
  RemoveDirRecursive(dir);
}

TEST(SegmentCompactionTest, EvictedSegmentIsSkipped) {
  const std::string dir = TempDir();
  SegmentEngine::Options options;
  options.dir = dir;
  auto engine = SegmentEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
  }
  ASSERT_TRUE((*engine)->SealSegment().ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE((*engine)->Replace(i, TestRow(500 + i)).ok());
  }
  ASSERT_TRUE((*engine)->SealSegment().ok());
  ASSERT_GT((*engine)->DeadBytes(), 0u);

  // Evict the mostly-dead segment 0: compaction must leave it alone (its
  // rows are not readable, so they cannot be rewritten).
  ASSERT_TRUE((*engine)->EvictSegments(0, 0).ok());
  auto reclaimed = (*engine)->Compact(0.3);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 0u);
  EXPECT_FALSE((*engine)->SegmentsResident(0, 0));

  // Reloaded, the same pass reclaims it.
  ASSERT_TRUE((*engine)->LoadSegments(0, 0).ok());
  reclaimed = (*engine)->Compact(0.3);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(*reclaimed, 0u);
  for (uint64_t i = 0; i < 10; ++i) {
    const Row* row = (*engine)->GetRef(i);
    ASSERT_NE(row, nullptr) << i;
    const Row want = i < 8 ? TestRow(500 + i) : TestRow(i);
    EXPECT_EQ(row->columns, want.columns) << i;
  }
  engine->reset();
  RemoveDirRecursive(dir);
}

TEST(SegmentCompactionTest, CompactedStateSurvivesReopen) {
  const std::string dir = TempDir();
  uint64_t durable = 0;
  uint64_t disk = 0;
  {
    SegmentEngine::Options options;
    options.dir = dir;
    options.segment_bytes = 4096;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    for (uint64_t i = 0; i < 120; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
    for (uint64_t i = 0; i < 80; ++i) {
      ASSERT_TRUE((*engine)->Replace(i, TestRow(2000 + i)).ok());
    }
    ASSERT_TRUE((*engine)->SealSegment().ok());
    auto reclaimed = (*engine)->Compact(0.3);
    ASSERT_TRUE(reclaimed.ok());
    ASSERT_GT(*reclaimed, 0u);
    durable = (*engine)->durable_generation();
    disk = (*engine)->DiskBytes();
  }  // Destructor seals + truncates.
  {
    SegmentEngine::Options options;
    options.dir = dir;
    auto engine = SegmentEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    // The purge markers re-count the compacted-away records, so the
    // durable generation — the node file's freshness stamp — is
    // byte-stable across the restart.
    EXPECT_EQ((*engine)->durable_generation(), durable);
    EXPECT_EQ((*engine)->size(), 120u);
    EXPECT_LE((*engine)->DiskBytes(), disk);
    for (uint64_t i = 0; i < 120; ++i) {
      const Row* row = (*engine)->GetRef(i);
      ASSERT_NE(row, nullptr) << i;
      const Row want = i < 80 ? TestRow(2000 + i) : TestRow(i);
      EXPECT_EQ(row->columns, want.columns) << i;
    }
  }
  RemoveDirRecursive(dir);
}

// The suite's engine toggle must build the engine it names: otherwise the
// CI mmap leg could pass on the memory engine.
TEST(TestEngineTest, HelperProviderRunsTheNamedEngine) {
  const char* env = std::getenv("CONCEALER_STORAGE_ENGINE");
  ConcealerConfig config;
  config.key_buckets = {4};
  config.time_buckets = 4;
  config.num_cell_ids = 4;
  std::unique_ptr<ServiceProvider> sp = MakeTestProvider(config, Bytes(32, 1));
  EXPECT_STREQ(sp->table().engine().name(), env == nullptr ? "memory" : env);
}

}  // namespace
}  // namespace concealer
