// Tests for the paged B+-tree index: node-file round trips, byte-identity
// between paged and resident trees, the read policy (a page's checksum is
// checked on its first read after each Open, then the page is read in
// place, from any number of threads), fail-closed handling of torn and
// corrupt node files, the crash-point sweep over PersistPagedIndex's
// writes, and the ServiceProvider restart path that re-attaches the paged
// index.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "concealer/data_provider.h"
#include "concealer/service_provider.h"
#include "concealer/wire.h"
#include "storage/bplus_tree.h"
#include "storage/encrypted_table.h"
#include "storage/fault_fs.h"
#include "storage/node_store.h"
#include "storage/segment_engine.h"
#include "workload/wifi_generator.h"
#include "test_dir.h"

namespace concealer {
namespace {

Bytes Key(uint64_t v) {
  Bytes b;
  PutFixed64(&b, v);
  return b;
}

// 16-byte DET-ciphertext-shaped keys: random prefix decides comparisons,
// counter suffix guarantees uniqueness (counters >= `n` never collide with
// stored keys — the absent-probe generator).
Bytes WideKey(Rng* rng, uint64_t counter) {
  Bytes key(16);
  rng->FillBytes(key.data(), 8);
  for (int i = 0; i < 8; ++i) {
    key[8 + i] = static_cast<uint8_t>(counter >> (8 * (7 - i)));
  }
  return key;
}

std::unique_ptr<StorageEngine> OpenSegEngine(const std::string& dir) {
  SegmentEngine::Options options;
  options.dir = dir;
  auto engine = SegmentEngine::Open(options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

// Flips one byte at `offset` of `path` in place.
void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, offset >= 0 ? SEEK_SET : SEEK_END), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0xff, f);
  ASSERT_EQ(std::fclose(f), 0);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

void TruncateTo(const std::string& path, long size) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(::ftruncate(fileno(f), size), 0);
  ASSERT_EQ(std::fclose(f), 0);
}

// --- Tree level ------------------------------------------------------------

// Builds a resident tree, saves it, attaches a second tree to the file and
// demands bitwise-identical answers on every probe shape, over first and
// later reads of the pages.
TEST(IndexPagingTest, PagedTreeMatchesResidentByteIdentical) {
  const std::string dir = TempDir();
  const size_t n = 5000;
  Rng rng(0xbee);
  std::vector<Bytes> keys;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) keys.push_back(WideKey(&rng, i));

  BPlusTree resident;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(resident.Insert(keys[i], i).ok());
  }

  NodeStore store(dir + "/index-nodes");
  ASSERT_TRUE(resident.SavePaged(&store, /*stamp=*/n).ok());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.stamp(), n);
  EXPECT_GT(store.num_pages(), 10u);

  BPlusTree paged;
  ASSERT_TRUE(paged.AttachPaged(&store).ok());
  EXPECT_TRUE(paged.paged());
  EXPECT_EQ(paged.size(), resident.size());
  EXPECT_EQ(paged.height(), resident.height());

  // Point probes: every stored key plus absent ones.
  for (uint64_t i = 0; i < n; i += 7) {
    uint64_t got = 0;
    bool found = false;
    ASSERT_TRUE(paged.Find(keys[i], &got, &found).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(got, i);
  }
  for (uint64_t i = 0; i < 64; ++i) {
    Bytes absent = WideKey(&rng, n + i);
    uint64_t got = 0;
    bool found = true;
    ASSERT_TRUE(paged.Find(absent, &got, &found).ok());
    EXPECT_FALSE(found);
  }

  // Bulk probes: sorted batches mixing hits, misses and duplicates must
  // reproduce the resident tree's BulkFind output array exactly.
  std::vector<Slice> probes;
  for (int i = 0; i < 600; ++i) {
    probes.push_back(keys[rng.Uniform(n)]);
  }
  std::vector<Bytes> absent_storage;
  for (int i = 0; i < 150; ++i) {
    absent_storage.push_back(WideKey(&rng, n + 100 + i));
  }
  for (const Bytes& b : absent_storage) probes.push_back(b);
  probes.push_back(probes[0]);  // Duplicate probe.
  std::sort(probes.begin(), probes.end(),
            [](Slice a, Slice b) { return a.Compare(b) < 0; });
  std::vector<uint64_t> want_ids(probes.size()), got_ids(probes.size());
  size_t want_hits = 0;
  ASSERT_TRUE(resident
                  .BulkFind(probes.data(), probes.size(), want_ids.data(),
                            &want_hits)
                  .ok());
  size_t got_hits = 0;
  ASSERT_TRUE(
      paged.BulkFind(probes.data(), probes.size(), got_ids.data(), &got_hits)
          .ok());
  EXPECT_EQ(got_hits, want_hits);
  EXPECT_EQ(got_ids, want_ids);

  // Ordered iteration: ForEach over the paged tree == ForEach over the
  // resident one, pair for pair.
  std::vector<std::pair<Bytes, uint64_t>> want_seq, got_seq;
  ASSERT_TRUE(resident
                  .ForEach([&](Slice k, uint64_t v) {
                    want_seq.emplace_back(k.ToBytes(), v);
                    return true;
                  })
                  .ok());
  ASSERT_TRUE(paged
                  .ForEach([&](Slice k, uint64_t v) {
                    got_seq.emplace_back(k.ToBytes(), v);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(got_seq, want_seq);

  // Full scan (reads every page; checksums those not read since Open).
  EXPECT_TRUE(paged.CheckInvariants().ok());

  RemoveDirRecursive(dir);
}

TEST(IndexPagingTest, InsertDeleteAfterAttachMaterializesLeaves) {
  const std::string dir = TempDir();
  const size_t n = 2000;
  Rng rng(0xd00d);
  std::vector<Bytes> keys;
  for (uint64_t i = 0; i < n; ++i) keys.push_back(WideKey(&rng, i));
  BPlusTree tree;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(keys[i], i).ok());
  }
  NodeStore store(dir + "/index-nodes");
  ASSERT_TRUE(tree.SavePaged(&store, 1).ok());
  ASSERT_TRUE(store.Open().ok());
  BPlusTree paged;
  ASSERT_TRUE(paged.AttachPaged(&store).ok());

  // Mutations land in paged leaves: the touched leaf materializes, the
  // rest stay on disk. Answers and invariants hold throughout.
  std::vector<Bytes> extra;
  for (uint64_t i = 0; i < 300; ++i) {
    extra.push_back(WideKey(&rng, n + i));
    ASSERT_TRUE(paged.Insert(extra.back(), n + i).ok());
  }
  for (uint64_t i = 0; i < n; i += 2) {
    ASSERT_TRUE(paged.Delete(keys[i]).ok());
  }
  EXPECT_EQ(paged.size(), n + 300 - n / 2);
  EXPECT_TRUE(paged.CheckInvariants().ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t got = 0;
    bool found = false;
    ASSERT_TRUE(paged.Find(keys[i], &got, &found).ok());
    ASSERT_EQ(found, i % 2 == 1) << i;
    if (found) {
      ASSERT_EQ(got, i);
    }
  }

  // Re-persisting a mixed tree (materialized + still-paged leaves) streams
  // untouched pages through and re-serializes the rest.
  ASSERT_TRUE(paged.SavePaged(&store, 2).ok());
  ASSERT_TRUE(store.Open().ok());
  BPlusTree paged2;
  ASSERT_TRUE(paged2.AttachPaged(&store).ok());
  EXPECT_EQ(paged2.size(), paged.size());
  EXPECT_TRUE(paged2.CheckInvariants().ok());
  uint64_t got = 0;
  bool found = false;
  ASSERT_TRUE(paged2.Find(extra[7], &got, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(got, n + 7);
  RemoveDirRecursive(dir);
}

// SavePaged streams the paged leaves front to back. The mapping does no
// read-around of its own, so the stream prefetches the leaves not yet read
// since the Open, and only those.
TEST(IndexPagingTest, SavePagedPrefetchesUnreadLeaves) {
  const std::string dir = TempDir();
  BPlusTree tree;
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), i).ok());
  }
  NodeStore store(dir + "/index-nodes");
  ASSERT_TRUE(tree.SavePaged(&store, 1).ok());
  ASSERT_TRUE(store.Open().ok());
  BPlusTree paged;
  ASSERT_TRUE(paged.AttachPaged(&store).ok());
  NodeStore::Page page;
  ASSERT_TRUE(store.GetPage(0, &page).ok());
  const uint64_t before = store.prefetched_pages();
  ASSERT_TRUE(paged.SavePaged(&store, 2).ok());
  EXPECT_EQ(store.prefetched_pages() - before, store.num_pages() - 1u);
  RemoveDirRecursive(dir);
}

// --- Corruption / staleness ------------------------------------------------

TEST(IndexPagingTest, TornTailFailsOpenCleanly) {
  const std::string dir = TempDir();
  BPlusTree tree;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), i).ok());
  }
  const std::string path = dir + "/index-nodes";
  NodeStore store(path);
  ASSERT_TRUE(tree.SavePaged(&store, 1).ok());
  ASSERT_TRUE(store.Open().ok());
  store.Close();

  // A crash mid-write leaves a file without a valid footer at its end.
  // Every truncation point must fail Open() — never attach garbage.
  const long size = FileSize(path);
  for (long cut : {size - 1, size - 17, size / 2, 24L, 1L}) {
    SCOPED_TRACE("truncated to " + std::to_string(cut));
    TruncateTo(path, cut);
    NodeStore torn(path);
    EXPECT_FALSE(torn.Open().ok());
    EXPECT_FALSE(torn.is_open());
  }
  RemoveDirRecursive(dir);
}

TEST(IndexPagingTest, CorruptLeafPageFailsClosed) {
  const std::string dir = TempDir();
  auto table = std::make_unique<EncryptedTable>(
      "t", 2, 1, OpenSegEngine(dir));
  const uint64_t n = 2000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
  }
  ASSERT_TRUE(table->PersistPagedIndex().ok());
  ASSERT_TRUE(table->paged_index());

  // PersistPagedIndex re-opened the store and read no page since. Learn a
  // key of the first leaf page through a second store over the same file
  // (its own mapping and first-read flags), then flip a byte inside that
  // page's frame body. The footer, page table and directory still verify,
  // so the damage is only discoverable when a probe reads that page — its
  // first read since the Open checks the checksum, and the damage must
  // surface as an error, not a wrong answer.
  NodeStore* ns = table->engine()->node_store();
  Bytes damaged_key;  // A stored key that lives in the damaged page.
  {
    NodeStore probe(ns->path());
    ASSERT_TRUE(probe.Open().ok());
    NodeStore::Page page;
    ASSERT_TRUE(probe.GetPage(0, &page).ok());
    ASSERT_FALSE(page.keys.empty());
    damaged_key = page.keys.front().ToBytes();
  }
  ASSERT_EQ(ns->loads(), 0u);
  FlipByteAt(ns->path(), 25);

  // A direct page read reports corruption.
  NodeStore::Page page;
  EXPECT_TRUE(ns->GetPage(0, &page).IsCorruption());

  // A batch that spans every leaf hits the bad page: FetchRefs fails
  // closed — no refs, stats untouched.
  table->ResetStats();
  std::vector<Bytes> all_keys;
  for (uint64_t i = 0; i < n; ++i) all_keys.push_back(Key(i));
  std::vector<RowRef> refs;
  EXPECT_FALSE(table->FetchRefs(all_keys, &refs).ok());
  EXPECT_TRUE(refs.empty());
  const TableStats stats = table->stats();
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_EQ(stats.rows_fetched, 0u);

  // A single probe is a batch of one, and a key in the damaged page fails
  // closed the same way.
  EXPECT_FALSE(table->FetchRefs({damaged_key}, &refs).ok());
  EXPECT_TRUE(refs.empty());
  EXPECT_EQ(table->stats().index_probes, 0u);
  EXPECT_EQ(table->stats().rows_fetched, 0u);

  // A failed page stays unchecked: every later read re-checks and fails.
  EXPECT_TRUE(ns->GetPage(0, &page).IsCorruption());
  // (A fresh attach at recovery refuses the file only lazily — the
  // directory is intact — so recovery-time protection for leaf damage is
  // the first-read checksum, exactly what ran above.)
  table.reset();
  RemoveDirRecursive(dir);
}

// The read policy's other half: a page is checked once per Open, then read
// in place (the segments' policy). Damage that lands after a page's first
// read goes unseen until the next Open, whose first read of the page
// catches it.
TEST(IndexPagingTest, DamageAfterFirstReadIsCaughtAtNextOpen) {
  const std::string dir = TempDir();
  const std::string path = dir + "/index-nodes";
  BPlusTree tree;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), i).ok());
  }
  NodeStore store(path);
  ASSERT_TRUE(tree.SavePaged(&store, 1).ok());
  ASSERT_TRUE(store.Open().ok());
  BPlusTree paged;
  ASSERT_TRUE(paged.AttachPaged(&store).ok());

  NodeStore::Page page;
  ASSERT_TRUE(store.GetPage(0, &page).ok());
  ASSERT_FALSE(page.keys.empty());
  const Bytes first_key = page.keys.front().ToBytes();
  EXPECT_EQ(store.loads(), 1u);
  EXPECT_EQ(store.cache_hits(), 0u);

  // Flip a byte of page 0's first key: frame header (24) + num_keys (4) +
  // klen (4) puts the key at file offset 32.
  FlipByteAt(path, 32 + 3);
  // The page passed its check since this Open, so this read checks only
  // the frame header and sees the damaged key in place.
  ASSERT_TRUE(store.GetPage(0, &page).ok());
  EXPECT_NE(page.keys.front(), Slice(first_key));
  EXPECT_EQ(store.loads(), 1u);
  EXPECT_EQ(store.cache_hits(), 1u);

  // The next Open re-arms every page's first-read check: the footer, page
  // table and directory are intact, so Open succeeds, and the first read
  // of the damaged page fails closed — directly and through the tree.
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.GetPage(0, &page).IsCorruption());
  uint64_t row_id = 0;
  bool found = false;
  EXPECT_TRUE(paged.Find(first_key, &row_id, &found).IsCorruption());
  EXPECT_FALSE(found);
  const Slice probe(first_key);
  size_t hits = 0;
  EXPECT_TRUE(paged.BulkFind(&probe, 1, &row_id, &hits).IsCorruption());
  EXPECT_FALSE(paged.CheckInvariants().ok());
  // Pages the flip missed still read fine.
  ASSERT_TRUE(paged.Find(Key(999), &row_id, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(row_id, 999u);
  RemoveDirRecursive(dir);
}

// Four threads probe a freshly attached paged tree whose pages are all
// unread, so they race on every page's first read (checksum and flag) and
// on the prefetch that reads the same flags. Each must match the resident
// tree exactly. Runs under TSan (CONCEALER_TSAN_SUITES).
TEST(IndexPagingConcurrencyTest, FirstReadsRaceAcrossThreads) {
  const std::string dir = TempDir();
  const size_t n = 20000;
  Rng rng(0x7a5);
  std::vector<Bytes> keys;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) keys.push_back(WideKey(&rng, i));
  BPlusTree resident;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(resident.Insert(keys[i], i).ok());
  }
  std::vector<Bytes> absent;
  for (uint64_t i = 0; i < 500; ++i) absent.push_back(WideKey(&rng, n + i));
  std::vector<Slice> probes(keys.begin(), keys.end());
  probes.insert(probes.end(), absent.begin(), absent.end());
  std::sort(probes.begin(), probes.end(),
            [](Slice a, Slice b) { return a.Compare(b) < 0; });
  std::vector<uint64_t> want(probes.size());
  size_t want_hits = 0;
  ASSERT_TRUE(
      resident.BulkFind(probes.data(), probes.size(), want.data(), &want_hits)
          .ok());
  ASSERT_EQ(want_hits, n);

  NodeStore store(dir + "/index-nodes");
  ASSERT_TRUE(resident.SavePaged(&store, /*stamp=*/1).ok());
  ASSERT_TRUE(store.Open().ok());
  BPlusTree paged;
  ASSERT_TRUE(paged.AttachPaged(&store).ok());
  ASSERT_EQ(store.loads(), 0u);

  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> got(
      kThreads, std::vector<uint64_t>(probes.size()));
  std::vector<size_t> hits(kThreads, 0);
  std::vector<Status> status(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      status[t] = paged.BulkFind(probes.data(), probes.size(), got[t].data(),
                                 &hits[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_TRUE(status[t].ok()) << status[t].ToString();
    EXPECT_EQ(hits[t], want_hits);
    EXPECT_EQ(got[t], want);
  }
  // Every probe set covers every leaf once per thread. Each page's first
  // read was checked at least once; racing first reads may each count.
  const uint64_t pages = store.num_pages();
  EXPECT_EQ(store.loads() + store.cache_hits(), kThreads * pages);
  EXPECT_GE(store.loads(), pages);
  RemoveDirRecursive(dir);
}

TEST(IndexPagingTest, CorruptDirectoryFallsBackAtRecovery) {
  const std::string dir = TempDir();
  const uint64_t n = 1500;
  {
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
    }
    ASSERT_TRUE(table->PersistPagedIndex().ok());
    ASSERT_TRUE(table->engine()->Sync().ok());
  }
  // Corrupt the tree directory (the interior-node skeleton): its frame
  // checksum breaks, Open() fails, and recovery must fall through to the
  // row-scan rebuild — fail closed, then heal, never serve a wrong tree.
  {
    NodeStore probe(dir + "/index-nodes");
    ASSERT_TRUE(probe.Open().ok());
    // Directory frame body sits between the page table and the footer;
    // flip a byte a fixed distance before the footer frame (footer body
    // is 48 bytes + 24-byte frame header).
    FlipByteAt(dir + "/index-nodes", -(48 + 24 + 4));
    NodeStore again(dir + "/index-nodes");
    EXPECT_FALSE(again.Open().ok());
  }
  {
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    ASSERT_TRUE(table->RecoverIndex().ok());
    EXPECT_FALSE(table->paged_index());  // Fell back to a resident rebuild.
    std::vector<RowRef> refs;
    ASSERT_TRUE(table->FetchRefs({Key(3), Key(n - 1)}, &refs).ok());
    EXPECT_EQ(refs.size(), 2u);
  }
  RemoveDirRecursive(dir);
}

TEST(IndexPagingTest, StaleStampIgnoredAtRecovery) {
  const std::string dir = TempDir();
  {
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    for (uint64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
    }
    ASSERT_TRUE(table->PersistPagedIndex().ok());
    // One more row AFTER the node-file dump: its stamp is now stale.
    ASSERT_TRUE(table->Insert(Row{{Bytes{0xaa}, Key(9999)}}).ok());
    ASSERT_TRUE(table->engine()->Sync().ok());
  }
  {
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    ASSERT_TRUE(table->RecoverIndex().ok());
    EXPECT_FALSE(table->paged_index());  // Stale node file was ignored.
    std::vector<RowRef> refs;
    ASSERT_TRUE(table->FetchRefs({Key(9999)}, &refs).ok());
    ASSERT_EQ(refs.size(), 1u);  // The post-dump row is indexed.
    EXPECT_EQ(refs[0].get()->columns[0], Column(Bytes{0xaa}));
  }
  RemoveDirRecursive(dir);
}

TEST(IndexPagingTest, FreshNodeFileAttachesAtRecovery) {
  const std::string dir = TempDir();
  const uint64_t n = 1200;
  std::vector<uint64_t> want_ids;
  {
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
    }
    ASSERT_TRUE(table->PersistPagedIndex().ok());
    ASSERT_TRUE(table->engine()->Sync().ok());
    std::vector<RowRef> refs;
    std::vector<Bytes> probes;
    for (uint64_t i = 0; i < n; i += 3) probes.push_back(Key(i));
    ASSERT_TRUE(table->FetchRefs(probes, &refs).ok());
    for (const RowRef& r : refs) want_ids.push_back(r.row_id);
  }
  {
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    // The node file's stamp is fresh: recovery must attach it.
    ASSERT_TRUE(table->RecoverIndex().ok());
    EXPECT_TRUE(table->paged_index());
    std::vector<RowRef> refs;
    std::vector<Bytes> probes;
    for (uint64_t i = 0; i < n; i += 3) probes.push_back(Key(i));
    ASSERT_TRUE(table->FetchRefs(probes, &refs).ok());
    std::vector<uint64_t> got_ids;
    for (const RowRef& r : refs) got_ids.push_back(r.row_id);
    EXPECT_EQ(got_ids, want_ids);
  }
  RemoveDirRecursive(dir);
}

// --- Crash sweep over the node-file writer ---------------------------------
// Every write/fsync/rename the NodeFileBuilder issues goes through
// fault_fs, so the sweep enumerates them: fail each one (alternating torn
// and clean), then demand (a) PersistPagedIndex reports the failure, (b)
// recovery after the "crash" serves byte-identical answers, and (c) a
// re-persist succeeds.

TEST(IndexPagingTest, PersistCrashSweepRecovers) {
  const uint64_t n = 400;
  std::vector<Bytes> probes;
  for (uint64_t i = 0; i < n; i += 5) probes.push_back(Key(i));

  auto build = [&](const std::string& dir) {
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(table->Insert(Row{{Bytes{uint8_t(i)}, Key(i)}}).ok());
    }
    return table;
  };
  auto probe_ids = [&](EncryptedTable* table) {
    std::vector<RowRef> refs;
    EXPECT_TRUE(table->FetchRefs(probes, &refs).ok());
    std::vector<uint64_t> ids;
    for (const RowRef& r : refs) ids.push_back(r.row_id);
    return ids;
  };

  // Reference run: count the ops and record the expected answers.
  uint64_t num_ops = 0;
  std::vector<uint64_t> want_ids;
  {
    const std::string dir = TempDir();
    auto table = build(dir);
    want_ids = probe_ids(table.get());
    ASSERT_FALSE(want_ids.empty());
    fault_fs::Arm(0);  // Count mode.
    ASSERT_TRUE(table->PersistPagedIndex().ok());
    num_ops = fault_fs::OpsIssued();
    fault_fs::Disarm();
    EXPECT_EQ(probe_ids(table.get()), want_ids);
    table.reset();
    RemoveDirRecursive(dir);
  }
  ASSERT_GE(num_ops, 4u) << "node-file build issued too little I/O";
  ASSERT_LE(num_ops, 200u) << "node-file build too large to sweep";

  for (uint64_t k = 1; k <= num_ops; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k) + " of " +
                 std::to_string(num_ops));
    const std::string dir = TempDir();
    {
      auto table = build(dir);
      ASSERT_TRUE(table->engine()->Sync().ok());
      fault_fs::Arm(k, /*torn=*/(k % 2) == 0);
      const Status st = table->PersistPagedIndex();
      EXPECT_TRUE(fault_fs::Triggered());
      EXPECT_FALSE(st.ok()) << "op " << k << " failure was swallowed";
      // Keep the shim down through destruction, like a real crash.
    }
    fault_fs::Disarm();

    // Reopen. Whatever the crash left — no node file, a stray .tmp, or a
    // complete renamed file — recovery must answer identically. The
    // engine recovers the durable rows; only the index needs rebuilding.
    auto table = std::make_unique<EncryptedTable>(
        "t", 2, 1, OpenSegEngine(dir));
    ASSERT_TRUE(table->RecoverIndex().ok());
    EXPECT_EQ(probe_ids(table.get()), want_ids);
    // And the next persist heals the node file for good.
    ASSERT_TRUE(table->PersistPagedIndex().ok());
    EXPECT_TRUE(table->paged_index());
    EXPECT_EQ(probe_ids(table.get()), want_ids);
    table.reset();
    RemoveDirRecursive(dir);
  }
}

// --- Provider level ----------------------------------------------------------

ConcealerConfig PagingTestConfig() {
  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {20};
  config.time_buckets = 24;
  config.num_cell_ids = 40;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;
  return config;
}

std::vector<PlainTuple> PagingTestTuples(uint64_t days) {
  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 50;
  wifi.start_time = 0;
  wifi.duration_seconds = days * 86400;
  wifi.total_rows = 900 * days;
  wifi.seed = 11;
  return WifiGenerator(wifi).Generate();
}

TEST(IndexPagingTest, ProviderRestartAttachesAndAnswersIdentically) {
  const ConcealerConfig config = PagingTestConfig();
  DataProvider dp(config, Bytes(32, 0x71));
  auto epochs = dp.EncryptAll(PagingTestTuples(2));
  ASSERT_TRUE(epochs.ok());
  ASSERT_GE(epochs->size(), 2u);

  std::vector<Query> queries;
  for (int i = 0; i < 6; ++i) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{uint64_t(2 + 3 * i)}};
    q.time_lo = (i % 2) * 86400 + 2 * 3600;
    q.time_hi = (i % 2) * 86400 + 7 * 3600;
    queries.push_back(q);
  }

  // Reference answers: an ephemeral provider that never restarts.
  std::vector<Bytes> want;
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret());
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
    for (const Query& q : queries) {
      auto result = (*sp)->Execute(q);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      want.push_back(SerializeQueryResult(*result));
    }
  }

  const std::string dir = TempDir();
  StorageOptions options;
  options.dir = dir;
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
    // Ingest persisted the paged index on the geometric schedule (first
    // epoch at the latest), so the live provider is already paging.
    EXPECT_TRUE((*sp)->table().paged_index());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = (*sp)->Execute(queries[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(SerializeQueryResult(*result), want[i]) << i;
    }
  }
  // The node file is the index's only on-disk copy.
  std::vector<std::string> index_files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("index", 0) == 0) index_files.push_back(name);
  }
  EXPECT_EQ(index_files, std::vector<std::string>{"index-nodes"});
  {
    // Restart: recovery attaches the node file when its stamp is fresh
    // (the last ingest persisted it) and answers stay byte-identical.
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = (*sp)->Execute(queries[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(SerializeQueryResult(*result), want[i]) << i;
    }
    sp->reset();
  }
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace concealer
