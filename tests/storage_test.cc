// Unit and property tests for the storage layer: B+-tree, the mmap segment
// engine and the encrypted-table facade over it.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "storage/bplus_tree.h"
#include "storage/encrypted_table.h"
#include "storage/node_store.h"
#include "storage/segment_engine.h"
#include "test_dir.h"

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
// and attached, so the paged branch reads every leaf it touches in place
// from the mapped file. Both branches must also return the same row ids.
// Returns the hit count (duplicates of a present key each count).
size_t DifferentialBulkFindBothBranches(const BPlusTree& tree,
                                        const std::vector<Bytes>& probes) {
  const std::vector<uint64_t> want = DifferentialBulkFind(tree, probes);
  const std::string dir = TempDir();
  {
    NodeStore store(dir + "/index-nodes");
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

// --- BulkLoad --------------------------------------------------------------

// `n` distinct keys in ascending order, mixing the shapes that stress the
// 8-byte sort prefix of EncryptedTable::RecoverIndex: keys shorter than 8
// bytes, keys that share their first 8 bytes, and 16-byte random keys.
std::vector<Bytes> BulkLoadKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::set<Bytes> keys;
  while (keys.size() < n) {
    Bytes key;
    size_t shared = 0;  // Leading bytes fixed across keys.
    switch (rng.Uniform(3)) {
      case 0:
        key.resize(1 + rng.Uniform(7));
        break;
      case 1:
        key = {'s', 'h', 'a', 'r', 'e', 'd', 'p', 'f'};
        shared = key.size();
        key.resize(shared + 1 + rng.Uniform(4));
        break;
      default:
        key.resize(16);
        break;
    }
    rng.FillBytes(key.data() + shared, key.size() - shared);
    keys.insert(std::move(key));
  }
  return std::vector<Bytes>(keys.begin(), keys.end());
}

// Probe set for a key set: every key, plus absent keys of each shape.
std::vector<Bytes> BulkLoadProbes(const std::vector<Bytes>& keys,
                                  uint64_t seed) {
  std::vector<Bytes> probes = keys;
  const std::vector<Bytes> others = BulkLoadKeys(keys.size() / 4 + 8, seed);
  probes.insert(probes.end(), others.begin(), others.end());
  for (size_t i = 0; i < keys.size(); i += 97) {
    Bytes longer = keys[i];
    longer.push_back(0);  // Sorts right after keys[i]; absent unless stored.
    probes.push_back(std::move(longer));
  }
  std::sort(probes.begin(), probes.end());
  return probes;
}

// Loads `keys` (sorted, distinct) with scattered row ids, then checks the
// result against a tree built by Insert over the same pairs in a shuffled
// order: invariants, ForEach, Find and BulkFind on hits and misses (both
// BulkFind branches), then 1,000 random Inserts and Deletes against a
// std::map oracle.
void CheckBulkLoadMatchesInsert(const std::vector<Bytes>& keys,
                                uint64_t seed) {
  SCOPED_TRACE("n=" + std::to_string(keys.size()));
  Rng rng(seed);
  std::vector<Slice> views(keys.begin(), keys.end());
  std::vector<uint64_t> ids(keys.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i * 7919 % 1000003;

  BPlusTree loaded;
  ASSERT_TRUE(loaded.BulkLoad(views.data(), ids.data(), keys.size()).ok());
  ASSERT_EQ(loaded.size(), keys.size());
  const Status inv = loaded.CheckInvariants();
  ASSERT_TRUE(inv.ok()) << inv.ToString();

  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  BPlusTree inserted;
  for (size_t i : order) ASSERT_TRUE(inserted.Insert(keys[i], ids[i]).ok());

  size_t visited = 0;
  bool same = true;
  ASSERT_TRUE(loaded
                  .ForEach([&](Slice key, uint64_t id) {
                    same = same && visited < keys.size() &&
                           key == Slice(keys[visited]) && id == ids[visited];
                    ++visited;
                    return true;
                  })
                  .ok());
  EXPECT_TRUE(same);
  EXPECT_EQ(visited, keys.size());

  const std::vector<Bytes> probes = BulkLoadProbes(keys, seed + 1);
  for (const Bytes& probe : probes) {
    ASSERT_EQ(FindId(loaded, probe), FindId(inserted, probe));
  }
  EXPECT_EQ(DifferentialBulkFindBothBranches(loaded, probes),
            DifferentialBulkFindBothBranches(inserted, probes));
  EXPECT_EQ(DifferentialBulkFind(loaded, probes),
            DifferentialBulkFind(inserted, probes));

  // The loaded tree stays an ordinary mutable tree.
  std::map<Bytes, uint64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) oracle[keys[i]] = ids[i];
  const std::vector<Bytes> extra = BulkLoadKeys(600, seed + 2);
  for (int op = 0; op < 1000; ++op) {
    if (rng.Uniform(2) == 0 || oracle.empty()) {
      const Bytes& key = extra[rng.Uniform(extra.size())];
      const uint64_t id = 2000000 + static_cast<uint64_t>(op);
      const bool present = oracle.count(key) > 0;
      EXPECT_EQ(loaded.Insert(key, id).ok(), !present);
      if (!present) oracle[key] = id;
    } else {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(std::min<size_t>(oracle.size(), 500)));
      ASSERT_TRUE(loaded.Delete(it->first).ok());
      oracle.erase(it);
    }
  }
  EXPECT_EQ(loaded.size(), oracle.size());
  ASSERT_TRUE(loaded.CheckInvariants().ok());
  for (const auto& [key, id] : oracle) {
    const std::optional<uint64_t> got = FindId(loaded, key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, id);
  }
  for (const Bytes& key : extra) {
    EXPECT_EQ(FindId(loaded, key).has_value(), oracle.count(key) > 0);
  }
}

TEST(BPlusTreeBulkLoadTest, BoundarySizesMatchInsertBuiltTree) {
  constexpr size_t kF = BPlusTree::kFanout;
  for (size_t n : {size_t{0}, size_t{1}, kF - 1, kF, kF + 1, kF * (kF + 1),
                   kF * (kF + 1) + 1}) {
    CheckBulkLoadMatchesInsert(BulkLoadKeys(n, 100 + n), 200 + n);
  }
}

TEST(BPlusTreeBulkLoadTest, HundredThousandRandomKeysMatchInsertBuiltTree) {
  const std::vector<Bytes> keys = BulkLoadKeys(100000, 7);
  CheckBulkLoadMatchesInsert(keys, 8);
  std::vector<Slice> views(keys.begin(), keys.end());
  std::vector<uint64_t> ids(keys.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  BPlusTree tree;
  ASSERT_TRUE(tree.BulkLoad(views.data(), ids.data(), keys.size()).ok());
  EXPECT_EQ(tree.height(), 3);  // 1,563 leaves under 25 internal nodes.
}

TEST(BPlusTreeBulkLoadTest, DuplicateKeysLeaveTreeEmpty) {
  // The duplicate sits deep in the input, past several built leaves.
  std::vector<Bytes> keys = BulkLoadKeys(1000, 3);
  keys.insert(keys.begin() + 700, keys[700]);
  std::vector<Slice> views(keys.begin(), keys.end());
  std::vector<uint64_t> ids(keys.size(), 1);
  BPlusTree tree;
  const Status st = tree.BulkLoad(views.data(), ids.data(), views.size());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("duplicate index key"), std::string::npos);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_FALSE(FindId(tree, keys[0]).has_value());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // Still empty, so a clean load succeeds afterwards.
  keys.erase(keys.begin() + 700);
  views.assign(keys.begin(), keys.end());
  EXPECT_TRUE(tree.BulkLoad(views.data(), ids.data(), views.size()).ok());
  EXPECT_EQ(tree.size(), keys.size());
}

TEST(BPlusTreeBulkLoadTest, KeysOutOfOrderAreRefused) {
  std::vector<Bytes> keys = BulkLoadKeys(500, 4);
  std::swap(keys[300], keys[301]);
  std::vector<Slice> views(keys.begin(), keys.end());
  std::vector<uint64_t> ids(keys.size(), 1);
  BPlusTree tree;
  EXPECT_FALSE(tree.BulkLoad(views.data(), ids.data(), views.size()).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(FindId(tree, keys[0]).has_value());
  // Descending input is refused at its second key.
  std::reverse(views.begin(), views.end());
  EXPECT_FALSE(tree.BulkLoad(views.data(), ids.data(), views.size()).ok());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(BPlusTreeBulkLoadTest, NonEmptyTreeIsRefused) {
  const std::vector<Bytes> keys = BulkLoadKeys(10, 5);
  std::vector<Slice> views(keys.begin(), keys.end());
  std::vector<uint64_t> ids(keys.size(), 1);
  BPlusTree tree;
  ASSERT_TRUE(tree.Insert(OrderedKey(1), 1).ok());
  EXPECT_TRUE(tree.BulkLoad(views.data(), ids.data(), views.size())
                  .IsFailedPrecondition());
  EXPECT_EQ(tree.size(), 1u);
  BPlusTree loaded;
  ASSERT_TRUE(loaded.BulkLoad(views.data(), ids.data(), views.size()).ok());
  EXPECT_TRUE(loaded.BulkLoad(views.data(), ids.data(), views.size())
                  .IsFailedPrecondition());
}

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

// --- The engine through its interface, in both directory placements ------

/// An engine over an ephemeral temp directory, removed on destruction.
std::unique_ptr<StorageEngine> MakeEngine() {
  auto engine = MakeStorageEngine(StorageOptions{});
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

// Where the engine keeps its segments. kEphemeral is an empty
// StorageOptions::dir: a temp directory removed with the engine, the
// placement every in-process provider runs. kPersistent is an explicit
// directory whose segments outlive the engine, as concealer_server runs.
// The instances keep the suffixes the suite had when it also ran an
// in-memory heap: /memory is the ephemeral placement (rows live only as
// long as the engine), /mmap the persistent one.
enum class Placement { kEphemeral, kPersistent };

std::string PlacementName(const ::testing::TestParamInfo<Placement>& info) {
  return info.param == Placement::kEphemeral ? "memory" : "mmap";
}

class PlacedEngineTest : public ::testing::TestWithParam<Placement> {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) RemoveDirRecursive(dir);
  }

  /// A fresh engine in the placement under test; a persistent one gets its
  /// own directory, removed after the test.
  std::unique_ptr<StorageEngine> MakePlacedEngine() {
    StorageOptions options;
    if (GetParam() == Placement::kPersistent) {
      dirs_.push_back(TempDir());
      options.dir = dirs_.back();
    }
    auto engine = MakeStorageEngine(options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return nullptr;
    EXPECT_EQ((*engine)->persistent(), GetParam() == Placement::kPersistent);
    return std::move(*engine);
  }

 private:
  std::vector<std::string> dirs_;
};

class EngineTest : public PlacedEngineTest {};

TEST_P(EngineTest, AppendGetReplace) {
  auto store = MakePlacedEngine();
  Row r1{{Bytes{1, 2}, Bytes{3}}};
  Row r2{{Bytes{4}, Bytes{5, 6, 7}}};
  auto id1 = store->Append(r1);
  auto id2 = store->Append(r2);
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_EQ(*id1, 0u);
  EXPECT_EQ(*id2, 1u);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->TotalBytes(), 7u);

  ASSERT_NE(store->GetRef(0), nullptr);
  const Row got = *store->GetRef(0);  // The copy owns its columns.
  EXPECT_EQ(got.columns, r1.columns);
  EXPECT_EQ(store->GetRef(5), nullptr);

  Row r3{{Bytes{9, 9, 9, 9}}};
  ASSERT_TRUE(store->Replace(0, r3).ok());
  EXPECT_EQ(store->GetRef(0)->columns, r3.columns);
  EXPECT_EQ(got.columns, r1.columns);
  EXPECT_EQ(store->TotalBytes(), 8u);  // 4 (new r1) + 4 (r2).
  EXPECT_TRUE(store->Replace(9, r3).IsNotFound());
}

TEST_P(EngineTest, GenerationBumpsOnEveryMutation) {
  auto store = MakePlacedEngine();
  const uint64_t g0 = store->generation();
  ASSERT_TRUE(store->Append(Row{{Bytes{1}}}).ok());
  const uint64_t g1 = store->generation();
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(store->Replace(0, Row{{Bytes{2}}}).ok());
  EXPECT_GT(store->generation(), g1);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest,
                         ::testing::Values(Placement::kEphemeral,
                                           Placement::kPersistent),
                         PlacementName);

// --- EncryptedTable in both placements --------------------------------------

class EncryptedTableTest : public PlacedEngineTest {
 protected:
  std::unique_ptr<EncryptedTable> MakeTable(size_t num_columns,
                                            size_t index_column) {
    return std::make_unique<EncryptedTable>("t", num_columns, index_column,
                                            MakePlacedEngine());
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

  // Zero-copy really means the mapped region: every borrowed column points
  // into a segment file, not the heap.
  const EncryptedTable& ctable = *table;
  const auto* engine = static_cast<const SegmentEngine*>(&ctable.engine());
  for (const RowRef& ref : refs) {
    for (const Column& col : ref.get()->columns) {
      EXPECT_TRUE(col.borrowed());
      EXPECT_TRUE(engine->IsMapped(col.data()));
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
  // the engine's borrowed row: same refs, same order, same probe
  // positions, same stats. Each probe set is shuffled (FetchRefs sorts it
  // internally, carrying each probe's position) and mixes hits, misses and
  // duplicates. Each check runs on the resident tree the inserts built,
  // then again after the index is paged to the node file.
  const auto expect_identical = [&](const std::vector<Bytes>& index_keys,
                                    const std::vector<Bytes>& probes) {
    auto table = MakeTable(2, 1);
    BPlusTree per_key_index;
    for (uint64_t i = 0; i < index_keys.size(); ++i) {
      ASSERT_TRUE(
          table->Insert(Row{{Bytes{uint8_t(i), uint8_t(i >> 8)}, index_keys[i]}})
              .ok());
      ASSERT_TRUE(per_key_index.Insert(index_keys[i], i).ok());
    }
    struct Hit {
      uint64_t row_id;
      const Row* row;
      size_t probe;
    };
    std::vector<Hit> per_key;
    uint64_t per_key_bytes = 0;
    for (size_t p = 0; p < probes.size(); ++p) {
      const std::optional<uint64_t> id = FindId(per_key_index, probes[p]);
      if (!id.has_value()) continue;
      const Row* row = table->engine()->GetRef(*id);
      ASSERT_NE(row, nullptr);
      per_key_bytes += RowByteSize(*row);
      per_key.push_back(Hit{*id, row, p});
    }
    ASSERT_GT(per_key.size(), 0u);
    ASSERT_LT(per_key.size(), probes.size());

    for (bool paged : {false, true}) {
      SCOPED_TRACE(paged ? "paged" : "resident");
      if (paged) {
        ASSERT_TRUE(table->PersistPagedIndex().ok());
        ASSERT_TRUE(table->paged_index());
      }
      table->ResetStats();
      std::vector<RowRef> bulk;
      ASSERT_TRUE(table->FetchRefs(probes, &bulk).ok());
      ASSERT_EQ(bulk.size(), per_key.size());
      for (size_t i = 0; i < bulk.size(); ++i) {
        EXPECT_EQ(bulk[i].row_id, per_key[i].row_id) << i;
        EXPECT_EQ(bulk[i].row, per_key[i].row) << i;  // Same borrowed row.
        EXPECT_EQ(bulk[i].probe, per_key[i].probe) << i;
      }
      const TableStats stats = table->stats();
      EXPECT_EQ(stats.index_probes, probes.size());
      EXPECT_EQ(stats.index_hits, per_key.size());
      EXPECT_EQ(stats.rows_fetched, per_key.size());
      EXPECT_EQ(stats.bytes_fetched, per_key_bytes);
    }
  };

  // 500 rows under 8-byte keys, every sort prefix distinct.
  std::vector<Bytes> index_keys;
  for (uint64_t i = 0; i < 500; ++i) index_keys.push_back(Key(i * 3));
  Rng rng(77);
  std::vector<Bytes> probes;
  for (int i = 0; i < 300; ++i) probes.push_back(Key(rng.Uniform(2000)));
  probes.push_back(probes[0]);  // Guaranteed duplicate probe.
  rng.Shuffle(&probes);
  {
    SCOPED_TRACE("distinct prefixes");
    expect_identical(index_keys, probes);
  }

  // Keys that tie on the zero-padded 8-byte sort prefix, so only the full
  // compare orders them, among keys that do not.
  const std::vector<Bytes> ties = {Bytes{'a', 'b'}, Bytes{'a', 'b', 0},
                                   Bytes{'a', 'b', 0, 0, 0, 0, 0, 0, 'x'},
                                   Bytes{}};
  index_keys.resize(40);
  index_keys.insert(index_keys.end(), ties.begin(), ties.end());
  probes = index_keys;
  probes.push_back(Bytes{'a', 'b', 0, 0});  // Absent: ties "ab\0" on prefix.
  probes.push_back(Key(1));                 // Absent: between two rows.
  probes.push_back(ties[1]);                // Duplicate of a tie.
  rng.Shuffle(&probes);
  {
    SCOPED_TRACE("tied prefixes");
    expect_identical(index_keys, probes);
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

// RecoverIndex over rows written straight into the engine (as a restart
// finds them): the sort-and-load rebuild must index every row under its
// Index value, including values that tie on the zero-padded 8-byte sort
// prefix ("ab", "ab\0", "ab\0\0\0\0\0\0x").
TEST_P(EncryptedTableTest, RecoverIndexRebuildsFromEngineRows) {
  auto table = MakeTable(2, 1);
  std::vector<Bytes> keys = BulkLoadKeys(3000, 21);
  keys.push_back(Bytes{'a', 'b'});
  keys.push_back(Bytes{'a', 'b', 0});
  keys.push_back(Bytes{'a', 'b', 0, 0, 0, 0, 0, 0, 'x'});
  keys.push_back(Bytes{});
  Rng rng(22);
  rng.Shuffle(&keys);
  for (uint64_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(
        table->engine()->Append(Row{{Key(i), keys[i]}}).ok());
  }
  ASSERT_TRUE(table->RecoverIndex().ok());
  EXPECT_TRUE(table->RecoverIndex().IsFailedPrecondition());

  std::vector<Bytes> probes = keys;
  probes.push_back(Bytes{'a', 'b', 0, 0});  // Absent: ties "ab\0" on prefix.
  std::vector<RowRef> refs;
  ASSERT_TRUE(table->FetchRefs(probes, &refs).ok());
  ASSERT_EQ(refs.size(), keys.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].probe, i);
    EXPECT_EQ(refs[i].row_id, i);
  }
}

// Rows whose Index values repeat (written past the index, as a damaged or
// forged segment would hold them) must fail the rebuild with the status a
// duplicate Insert gives, not yield an index that hides one of them.
TEST_P(EncryptedTableTest, RecoverIndexRejectsDuplicateIndexValues) {
  auto table = MakeTable(2, 1);
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t index_value = i == 150 ? 40 : i;
    ASSERT_TRUE(table->engine()
                    ->Append(Row{{Bytes{uint8_t(i)}, Key(index_value)}})
                    .ok());
  }
  const Status st = table->RecoverIndex();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  std::vector<RowRef> refs;
  ASSERT_TRUE(table->FetchRefs({Key(40), Key(41)}, &refs).ok());
  EXPECT_TRUE(refs.empty());  // Nothing half-built is served.
}

INSTANTIATE_TEST_SUITE_P(Engines, EncryptedTableTest,
                         ::testing::Values(Placement::kEphemeral,
                                           Placement::kPersistent),
                         PlacementName);

// An ephemeral engine whose GetRef can hide one row id while the table's
// index still holds it: the index and the row heap disagree.
class HidingEngine : public StorageEngine {
 public:
  void Hide(uint64_t row_id) { hidden_ = row_id; }

  StatusOr<uint64_t> Append(Row row) override {
    return rows_->Append(std::move(row));
  }
  const Row* GetRef(uint64_t row_id) const override {
    return row_id == hidden_ ? nullptr : rows_->GetRef(row_id);
  }
  Status Replace(uint64_t row_id, Row row) override {
    return rows_->Replace(row_id, std::move(row));
  }
  uint64_t size() const override { return rows_->size(); }
  uint64_t TotalBytes() const override { return rows_->TotalBytes(); }
  uint64_t generation() const override { return rows_->generation(); }
  uint64_t durable_generation() const override {
    return rows_->durable_generation();
  }
  const char* name() const override { return "hiding"; }
  Status Sync() override { return rows_->Sync(); }
  bool persistent() const override { return rows_->persistent(); }
  NodeStore* node_store() override { return rows_->node_store(); }
  uint32_t NumSegments() const override { return rows_->NumSegments(); }
  Status SealSegment() override { return rows_->SealSegment(); }
  uint64_t DeadBytes() const override { return rows_->DeadBytes(); }
  uint64_t DiskBytes() const override { return rows_->DiskBytes(); }
  StatusOr<uint64_t> Compact(double min_dead_ratio) override {
    return rows_->Compact(min_dead_ratio);
  }

 private:
  std::unique_ptr<StorageEngine> rows_ = MakeEngine();
  uint64_t hidden_ = ~0ull;
};

void ExpectSameStats(const TableStats& got, const TableStats& want) {
  EXPECT_EQ(got.index_probes, want.index_probes);
  EXPECT_EQ(got.index_hits, want.index_hits);
  EXPECT_EQ(got.rows_fetched, want.rows_fetched);
  EXPECT_EQ(got.bytes_fetched, want.bytes_fetched);
  EXPECT_EQ(got.rows_scanned, want.rows_scanned);
  EXPECT_EQ(got.rows_inserted, want.rows_inserted);
}

// An index hit whose row the engine does not return must fail the fetch
// and the scan with Corruption, keeping no ref and moving no counter,
// rather than answer from fewer rows.
TEST(EncryptedTableFailClosedTest, IndexHitWithoutRowIsCorruption) {
  auto owned = std::make_unique<HidingEngine>();
  HidingEngine* engine = owned.get();
  EncryptedTable table("t", 2, 1, std::move(owned));
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
  }
  engine->Hide(7);
  std::vector<RowRef> out;
  ASSERT_TRUE(table.FetchRefs({Key(1)}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  const TableStats before = table.stats();

  // Row 3 resolves before the hidden row 7 does.
  Status st = table.FetchRefs({Key(3), Key(7), Key(9)}, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row_id, 1u);
  ExpectSameStats(table.stats(), before);

  uint64_t seen = 0;
  st = table.Scan([&](const Row&) {
    ++seen;
    return true;
  });
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(seen, 7u);
  ExpectSameStats(table.stats(), before);
}

// The rebuild refuses a row heap with a gap instead of indexing around it.
TEST(EncryptedTableFailClosedTest, RecoverIndexOverMissingRowIsCorruption) {
  auto owned = std::make_unique<HidingEngine>();
  HidingEngine* engine = owned.get();
  EncryptedTable table("t", 2, 1, std::move(owned));
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine->Append(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
  }
  engine->Hide(12);
  const Status st = table.RecoverIndex();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(table.index().size(), 0u);
}

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

  for (uint64_t i = 0; i < 20; ++i) {
    const Row* row = (*engine)->GetRef(i);
    ASSERT_NE(row, nullptr) << i;
    EXPECT_EQ(row->columns, TestRow(i).columns) << i;
  }
  engine->reset();
  RemoveDirRecursive(dir);
}

// Open runs its checksum pass inline without a pool and one task per
// segment with one; the recovery tests run both ways and must agree.
ThreadPool* TestPool() {
  static ThreadPool pool(4);
  return &pool;
}

const std::vector<ThreadPool*>& InlineAndPooled() {
  static const std::vector<ThreadPool*> pools = {nullptr, TestPool()};
  return pools;
}

StatusOr<std::unique_ptr<SegmentEngine>> OpenDir(const std::string& dir,
                                                 ThreadPool* pool,
                                                 uint64_t segment_bytes = 0) {
  SegmentEngine::Options options;
  options.dir = dir;
  if (segment_bytes != 0) options.segment_bytes = segment_bytes;
  return SegmentEngine::Open(options, pool);
}

// XORs `mask` into the byte `from_end` bytes before the end of `path`.
void FlipByteFromEnd(const std::string& path, long from_end, int mask) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -from_end, SEEK_END), 0);
  const int orig = std::fgetc(f);
  ASSERT_NE(orig, EOF);
  ASSERT_EQ(std::fseek(f, -from_end, SEEK_END), 0);
  std::fputc(orig ^ mask, f);
  std::fclose(f);
}

TEST(SegmentEngineTest, TornFinalRecordIsTruncatedOnRecovery) {
  for (ThreadPool* pool : InlineAndPooled()) {
    SCOPED_TRACE(pool == nullptr ? "inline" : "pooled");
    const std::string dir = TempDir();
    {
      auto engine = OpenDir(dir, pool);
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
      auto engine = OpenDir(dir, pool);
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
}

TEST(SegmentEngineTest, CorruptionBeforeFinalSegmentFailsOpenIntact) {
  for (ThreadPool* pool : InlineAndPooled()) {
    SCOPED_TRACE(pool == nullptr ? "inline" : "pooled");
    const std::string dir = TempDir();
    {
      auto engine = OpenDir(dir, pool);
      ASSERT_TRUE(engine.ok());
      for (uint64_t i = 0; i < 5; ++i) {
        ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
      }
      ASSERT_TRUE((*engine)->SealSegment().ok());
      for (uint64_t i = 5; i < 10; ++i) {
        ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
      }
    }
    // Flip a byte inside a record of segment 0 — committed, msync'd data
    // in a NON-final segment. That is real damage, not a torn tail: Open
    // must refuse, and must not truncate a single byte.
    const std::string seg0 = dir + "/seg-000000.seg";
    struct stat before;
    ASSERT_EQ(::stat(seg0.c_str(), &before), 0);
    FlipByteFromEnd(seg0, 3, 0xff);
    {
      auto engine = OpenDir(dir, pool);
      ASSERT_FALSE(engine.ok());
      EXPECT_TRUE(engine.status().IsCorruption())
          << engine.status().ToString();
    }
    struct stat after;
    ASSERT_EQ(::stat(seg0.c_str(), &after), 0);
    EXPECT_EQ(after.st_size, before.st_size);
    // Proof no committed byte was destroyed: repairing the flipped byte
    // brings every row straight back.
    FlipByteFromEnd(seg0, 3, 0xff);
    {
      auto engine = OpenDir(dir, pool);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ((*engine)->size(), 10u);
      for (uint64_t i = 0; i < 10; ++i) {
        ASSERT_NE((*engine)->GetRef(i), nullptr) << i;
        EXPECT_EQ((*engine)->GetRef(i)->columns, TestRow(i).columns) << i;
      }
    }
    RemoveDirRecursive(dir);
  }
}

TEST(SegmentEngineTest, TornTailInFinalOfSeveralSegmentsRecovers) {
  for (ThreadPool* pool : InlineAndPooled()) {
    SCOPED_TRACE(pool == nullptr ? "inline" : "pooled");
    const std::string dir = TempDir();
    {
      auto engine = OpenDir(dir, pool);
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
    FlipByteFromEnd(dir + "/seg-000001.seg", 3, 0xff);
    {
      auto engine = OpenDir(dir, pool);
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
}

// With damage in two non-final segments the checksum pass finds both at
// once on the pool; Open must still report the LOWER segment's status, as
// a serial replay would. Each damage kind has its own message, and the
// two layouts swap them, so the test tells which segment was reported.
TEST(SegmentEngineTest, PooledOpenReportsLowestDamagedSegment) {
  for (ThreadPool* pool : InlineAndPooled()) {
    for (const bool magic_first : {true, false}) {
      SCOPED_TRACE(std::string(pool == nullptr ? "inline" : "pooled") +
                   (magic_first ? " magic-first" : " checksum-first"));
      const std::string dir = TempDir();
      {
        auto engine = OpenDir(dir, pool);
        ASSERT_TRUE(engine.ok());
        for (uint64_t seg = 0; seg < 4; ++seg) {
          for (uint64_t i = 0; i < 5; ++i) {
            ASSERT_TRUE((*engine)->Append(TestRow(seg * 5 + i)).ok());
          }
          ASSERT_TRUE((*engine)->SealSegment().ok());
        }
      }
      // Segment 1 and segment 2 are damaged; segment 3 is final. A flipped
      // first magic byte breaks a frame's magic; a flipped body byte its
      // checksum.
      const std::string seg1 = dir + "/seg-000001.seg";
      const std::string seg2 = dir + "/seg-000002.seg";
      const auto break_magic = [](const std::string& path) {
        struct stat st;
        ASSERT_EQ(::stat(path.c_str(), &st), 0);
        FlipByteFromEnd(path, static_cast<long>(st.st_size), 0x01);
      };
      const auto break_checksum = [](const std::string& path) {
        FlipByteFromEnd(path, 3, 0xff);
      };
      break_magic(magic_first ? seg1 : seg2);
      break_checksum(magic_first ? seg2 : seg1);
      auto engine = OpenDir(dir, pool);
      ASSERT_FALSE(engine.ok());
      EXPECT_TRUE(engine.status().IsCorruption());
      const std::string want =
          magic_first ? "bad record magic" : "record checksum mismatch";
      EXPECT_NE(engine.status().ToString().find(want), std::string::npos)
          << engine.status().ToString();
      RemoveDirRecursive(dir);
    }
  }
}

// Opening one directory with a 4-thread pool and with none must build the
// same engine: rows, generations, dead bytes and segments — over several
// segments, replaced rows and a compacted (purge-marker) segment.
TEST(SegmentEngineTest, PooledOpenMatchesInlineOpen) {
  const std::string dir = TempDir();
  {
    auto engine = OpenDir(dir, nullptr, /*segment_bytes=*/4096);
    ASSERT_TRUE(engine.ok());
    for (uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE((*engine)->Append(TestRow(i)).ok());
    }
    for (uint64_t i = 0; i < 60; ++i) {
      ASSERT_TRUE((*engine)->Replace(i, TestRow(5000 + i)).ok());
    }
    ASSERT_TRUE((*engine)->SealSegment().ok());
    auto reclaimed = (*engine)->Compact(0.3);
    ASSERT_TRUE(reclaimed.ok());
    ASSERT_GT(*reclaimed, 0u);
    for (uint64_t i = 200; i < 230; ++i) {
      ASSERT_TRUE((*engine)->Replace(i, TestRow(7000 + i)).ok());
    }
  }
  auto inline_open = OpenDir(dir, nullptr);
  ASSERT_TRUE(inline_open.ok()) << inline_open.status().ToString();
  auto pooled_open = OpenDir(dir, TestPool());
  ASSERT_TRUE(pooled_open.ok()) << pooled_open.status().ToString();
  const SegmentEngine& a = **inline_open;
  const SegmentEngine& b = **pooled_open;
  EXPECT_GT(a.NumSegments(), 4u);
  EXPECT_EQ(a.NumSegments(), b.NumSegments());
  EXPECT_EQ(a.generation(), b.generation());
  EXPECT_EQ(a.durable_generation(), b.durable_generation());
  EXPECT_EQ(a.DeadBytes(), b.DeadBytes());
  EXPECT_GT(a.DeadBytes(), 0u);
  EXPECT_EQ(a.TotalBytes(), b.TotalBytes());
  ASSERT_EQ(a.size(), 300u);
  ASSERT_EQ(b.size(), a.size());
  for (uint64_t i = 0; i < a.size(); ++i) {
    ASSERT_NE(a.GetRef(i), nullptr) << i;
    ASSERT_NE(b.GetRef(i), nullptr) << i;
    EXPECT_EQ(a.GetRef(i)->columns, b.GetRef(i)->columns) << i;
    uint64_t version = i;
    if (i < 60) version = 5000 + i;
    if (i >= 200 && i < 230) version = 7000 + i;
    EXPECT_EQ(b.GetRef(i)->columns, TestRow(version).columns) << i;
  }
  inline_open->reset();
  pooled_open->reset();
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

}  // namespace
}  // namespace concealer
