// Storage persistence tests: epoch_io framing negative paths (the checks
// that also guard every segment record), epoch-meta sidecars, the
// ephemeral default of ServiceProvider::Open, and the end-to-end restart
// contract — ingest into a segment directory, destroy the provider,
// re-open the directory and get answers byte-identical to a provider that
// never restarted (whose own answers match the cleartext oracle).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/cleartext_db.h"
#include "concealer/data_provider.h"
#include "concealer/epoch_io.h"
#include "concealer/service_provider.h"
#include "concealer/wire.h"
#include "storage/segment_engine.h"
#include "workload/wifi_generator.h"
#include "test_dir.h"

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

std::vector<PlainTuple> TestTuples(uint64_t days) {
  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 50;
  wifi.start_time = 0;
  wifi.duration_seconds = days * 86400;
  wifi.total_rows = 1500 * days;
  wifi.seed = 7;
  return WifiGenerator(wifi).Generate();
}

EncryptedEpoch TestEpoch() {
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x51));
  auto epochs = dp.EncryptAll(TestTuples(1));
  EXPECT_TRUE(epochs.ok());
  EXPECT_EQ(epochs->size(), 1u);
  return std::move((*epochs)[0]);
}

// --- epoch_io negative paths ----------------------------------------------
// These same framing checks guard the segment files, the epoch metas and
// the index node file; each must fail cleanly, never crash.

class EpochIoNegativeTest : public ::testing::Test {
 protected:
  void SetUp() override { blob_ = SerializeEpoch(TestEpoch()); }
  Bytes blob_;
};

TEST_F(EpochIoNegativeTest, RoundTripsWhenUntouched) {
  auto epoch = DeserializeEpoch(blob_);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(SerializeEpoch(*epoch), blob_);
}

TEST_F(EpochIoNegativeTest, TooShort) {
  for (size_t len : {size_t{0}, size_t{3}, size_t{23}}) {
    Bytes short_blob(blob_.begin(), blob_.begin() + len);
    auto st = DeserializeEpoch(short_blob).status();
    EXPECT_TRUE(st.IsCorruption()) << len << ": " << st.ToString();
  }
}

TEST_F(EpochIoNegativeTest, BadMagic) {
  Bytes bad = blob_;
  bad[0] ^= 0xff;
  EXPECT_TRUE(DeserializeEpoch(bad).status().IsCorruption());
  // All-zero magic (a clean segment tail) is still corruption for a
  // standalone epoch blob.
  bad = blob_;
  bad[0] = bad[1] = bad[2] = bad[3] = 0;
  EXPECT_TRUE(DeserializeEpoch(bad).status().IsCorruption());
}

TEST_F(EpochIoNegativeTest, UnsupportedVersion) {
  Bytes bad = blob_;
  bad[4] = 99;
  auto st = DeserializeEpoch(bad).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST_F(EpochIoNegativeTest, CorruptedChecksum) {
  // Flip one body byte: the FNV integrity word must catch it.
  Bytes bad = blob_;
  bad[bad.size() / 2] ^= 0x01;
  auto st = DeserializeEpoch(bad).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Flip a checksum byte itself.
  bad = blob_;
  bad[9] ^= 0x01;
  EXPECT_TRUE(DeserializeEpoch(bad).status().IsCorruption());
}

TEST_F(EpochIoNegativeTest, TruncatedBody) {
  for (size_t cut : {size_t{1}, size_t{7}, blob_.size() / 2}) {
    Bytes bad(blob_.begin(), blob_.end() - cut);
    auto st = DeserializeEpoch(bad).status();
    EXPECT_TRUE(st.IsCorruption()) << cut << ": " << st.ToString();
  }
}

TEST_F(EpochIoNegativeTest, TrailingBytes) {
  Bytes bad = blob_;
  bad.push_back(0x42);
  EXPECT_TRUE(DeserializeEpoch(bad).status().IsCorruption());
}

TEST_F(EpochIoNegativeTest, ReadEpochFileMissing) {
  // The epoch meta files are read through ReadFileBytes.
  auto st = ReadFileBytes("/nonexistent/epoch-meta").status();
  EXPECT_TRUE(st.IsNotFound());
}

TEST(EpochMetaTest, RoundTrip) {
  EpochMeta meta;
  meta.epoch = TestEpoch();
  meta.first_row_id = 1234;
  meta.num_rows = meta.epoch.rows.size();
  meta.seg_lo = 3;
  meta.seg_hi = 5;
  const Bytes blob = SerializeEpochMeta(meta);
  auto back = DeserializeEpochMeta(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->first_row_id, 1234u);
  EXPECT_EQ(back->num_rows, meta.num_rows);
  EXPECT_EQ(back->seg_lo, 3u);
  EXPECT_EQ(back->seg_hi, 5u);
  EXPECT_TRUE(back->epoch.rows.empty());  // Rows are stripped by design.
  EXPECT_EQ(back->epoch.epoch_id, meta.epoch.epoch_id);
  EXPECT_EQ(back->epoch.enc_grid_layout, meta.epoch.enc_grid_layout);
  EXPECT_EQ(back->epoch.enc_verification_tags,
            meta.epoch.enc_verification_tags);

  Bytes bad = blob;
  bad[bad.size() / 2] ^= 1;
  EXPECT_FALSE(DeserializeEpochMeta(bad).ok());
}

// --- The default provider: an ephemeral segment directory ----------------

// Open without StorageOptions runs the one engine in a temp directory: the
// index pages to the node file from the first ingest, a dynamic query
// writes no WAL (nothing will reopen the directory), and destroying the
// provider removes the directory.
TEST(EphemeralProviderTest, DefaultOpenPagesTheIndexAndLeavesNoDirectory) {
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x57));
  auto epochs = dp.EncryptAll(TestTuples(1));
  ASSERT_TRUE(epochs.ok());
  auto sp = ServiceProvider::Open(config, dp.shared_secret());
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();
  const auto& engine =
      static_cast<const SegmentEngine&>((*sp)->table().engine());
  EXPECT_STREQ(engine.name(), "mmap");
  EXPECT_FALSE((*sp)->persistent());
  EXPECT_NE((*sp)->mutable_table().engine()->node_store(), nullptr);
  const std::string dir = engine.dir();
  ASSERT_TRUE(std::filesystem::is_directory(dir));

  ASSERT_TRUE((*sp)->IngestEpoch((*epochs)[0]).ok());
  EXPECT_TRUE((*sp)->table().paged_index());

  (*sp)->set_dynamic_mode(true);
  const uint64_t generation = engine.generation();
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{5}};
  q.time_lo = 10 * 3600;
  q.time_hi = 10 * 3600;
  auto result = (*sp)->Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(engine.generation(), generation);  // Rows were rewritten...
  EXPECT_FALSE(std::filesystem::exists(dir + "/dynamic.wal"));  // ...unlogged.

  sp->reset();
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// --- End-to-end restart equivalence ---------------------------------------

std::vector<Query> EquivalenceQueries() {
  std::vector<Query> queries;
  for (uint64_t loc : {2, 7, 13}) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{loc}};
    q.time_lo = 8 * 3600;
    q.time_hi = 8 * 3600 + 40 * 60;
    queries.push_back(q);
    q.time_lo = 86400 + 3 * 3600;  // Second epoch.
    q.time_hi = 86400 + 5 * 3600;
    q.verify = true;
    queries.push_back(q);
    q.method = RangeMethod::kWinSecRange;
    queries.push_back(q);
  }
  Query top;
  top.agg = Aggregate::kTopK;
  top.k = 3;
  top.time_lo = 0;
  top.time_hi = 3 * 86400;  // All epochs.
  queries.push_back(top);
  return queries;
}

TEST(PersistenceEndToEndTest, RestartAnswersByteIdentical) {
  const std::string dir = TempDir();
  const ConcealerConfig config = TestConfig();
  const auto tuples = TestTuples(3);
  DataProvider dp(config, Bytes(32, 0x52));
  auto epochs = dp.EncryptAll(tuples);
  ASSERT_TRUE(epochs.ok());
  ASSERT_EQ(epochs->size(), 3u);

  // Reference: an ephemeral provider that never restarts. It runs the same
  // engine as the subject, so its answers are checked against the
  // cleartext oracle too: an engine bug that hit both alike would
  // otherwise pass as "identical".
  auto reference = ServiceProvider::Open(config, dp.shared_secret());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ServiceProvider& ref_sp = **reference;
  for (const auto& e : *epochs) {
    ASSERT_TRUE(ref_sp.IngestEpoch(e).ok());
  }
  CleartextDb oracle(config.time_quantum);
  oracle.Insert(tuples);

  const std::vector<Query> queries = EquivalenceQueries();
  std::vector<Bytes> want;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = ref_sp.Execute(queries[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto truth = oracle.Execute(queries[i]);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(result->count, truth->count) << "query " << i;
    EXPECT_EQ(result->keyed_counts, truth->keyed_counts) << "query " << i;
    want.push_back(SerializeQueryResult(*result));
  }

  StorageOptions options;
  options.dir = dir;

  uint64_t bytes_fetched = 0;
  {
    // First life: ingest + query into the directory.
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    for (const auto& e : *epochs) {
      ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
    }
    EXPECT_EQ((*sp)->table().TotalBytes(), ref_sp.table().TotalBytes());
    (*sp)->mutable_table().ResetStats();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = (*sp)->Execute(queries[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(SerializeQueryResult(*result), want[i]) << "query " << i;
    }
    bytes_fetched = (*sp)->table().stats().bytes_fetched;
    EXPECT_GT(bytes_fetched, 0u);
  }  // Provider destroyed: maps unmapped, segments sealed.

  {
    // Second life: re-open from the segment directory alone — no epochs
    // are re-shipped — and answer every query byte-identically, fetching
    // the same ciphertext bytes.
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    EXPECT_EQ((*sp)->num_epochs(), 3u);
    EXPECT_EQ((*sp)->table().num_rows(), ref_sp.table().num_rows());
    EXPECT_EQ((*sp)->table().TotalBytes(), ref_sp.table().TotalBytes());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = (*sp)->Execute(queries[i]);
      ASSERT_TRUE(result.ok()) << "query " << i << ": "
                               << result.status().ToString();
      EXPECT_EQ(SerializeQueryResult(*result), want[i]) << "query " << i;
    }
    EXPECT_EQ((*sp)->table().stats().bytes_fetched, bytes_fetched);
  }
  RemoveDirRecursive(dir);
}

TEST(PersistenceEndToEndTest, RecoveryRebuildsIndexWithoutSidecar) {
  const std::string dir = TempDir();
  const ConcealerConfig config = TestConfig();
  const auto tuples = TestTuples(1);
  DataProvider dp(config, Bytes(32, 0x53));
  auto epochs = dp.EncryptAll(tuples);
  ASSERT_TRUE(epochs.ok());

  StorageOptions options;
  options.dir = dir;
  Bytes want;
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};
  q.time_lo = 6 * 3600;
  q.time_hi = 7 * 3600;
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok());
    for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
    auto result = (*sp)->Execute(q);
    ASSERT_TRUE(result.ok());
    want = SerializeQueryResult(*result);
  }
  // Delete the node file: recovery must fall back to rebuilding the
  // B+-tree from the segment rows and still answer identically.
  ASSERT_EQ(::unlink((dir + "/index-nodes").c_str()), 0);
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    EXPECT_FALSE((*sp)->table().paged_index());  // Rebuilt, not attached.
    auto result = (*sp)->Execute(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(SerializeQueryResult(*result), want);
  }
  RemoveDirRecursive(dir);
}

// The host owns the epoch-meta files and can re-frame a tampered one with
// a valid checksum, so Open must check the fields it adopts: a row span
// that wraps past 2^64 or a segment range beyond the recovered segments
// fails Open with Corruption (not later, as "rows are evicted").
TEST(PersistenceEndToEndTest, TamperedEpochMetaRangesFailOpen) {
  const std::string dir = TempDir();
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x54));
  auto epochs = dp.EncryptAll(TestTuples(2));
  ASSERT_TRUE(epochs.ok());
  ASSERT_EQ(epochs->size(), 2u);
  StorageOptions options;
  options.dir = dir;
  uint32_t num_segments = 0;
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok());
    for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
    num_segments = (*sp)->table().engine().NumSegments();
  }
  char name[40];
  std::snprintf(name, sizeof(name), "epoch-%020llu.meta",
                static_cast<unsigned long long>((*epochs)[1].epoch_id));
  const std::string meta_path = dir + "/" + name;
  StatusOr<Bytes> original = ReadFileBytes(meta_path);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  const std::vector<std::pair<const char*, void (*)(EpochMeta*, uint32_t)>>
      tamperings = {
          {"row span wraps",
           [](EpochMeta* m, uint32_t) {
             m->first_row_id = ~uint64_t{0};
             m->num_rows = 2;
           }},
          {"seg_hi past the last segment",
           [](EpochMeta* m, uint32_t segments) { m->seg_hi = segments; }},
          {"seg_lo above seg_hi",
           [](EpochMeta* m, uint32_t) { m->seg_lo = m->seg_hi + 1; }},
      };
  for (const auto& [what, tamper] : tamperings) {
    SCOPED_TRACE(what);
    StatusOr<EpochMeta> meta = ReadEpochMetaFile(meta_path);
    ASSERT_TRUE(meta.ok());
    tamper(&*meta, num_segments);
    ASSERT_TRUE(WriteEpochMetaFile(meta_path, *meta).ok());
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_FALSE(sp.ok());
    EXPECT_TRUE(sp.status().IsCorruption()) << sp.status().ToString();
    ASSERT_TRUE(WriteFileBytes(meta_path, *original).ok());
  }
  // The untampered meta still opens: the refusals destroyed nothing.
  auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();
  EXPECT_EQ((*sp)->num_epochs(), 2u);
  sp->reset();
  RemoveDirRecursive(dir);
}

TEST(PersistenceEndToEndTest, IngestAfterDynamicModeKeepsSegmentAlignment) {
  // Regression: a §6 dynamic query's re-encryption Replace opens a fresh
  // active segment. A subsequent ingest must seal it first, or the new
  // epoch's recorded segment range would miss its own rows — here all of
  // them, leaving a range that ends before it starts, which Recover
  // refuses.
  const std::string dir = TempDir();
  const ConcealerConfig config = TestConfig();
  const auto tuples = TestTuples(2);
  DataProvider dp(config, Bytes(32, 0x55));
  auto epochs = dp.EncryptAll(tuples);
  ASSERT_TRUE(epochs.ok());
  ASSERT_EQ(epochs->size(), 2u);

  StorageOptions options;
  options.dir = dir;
  auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE((*sp)->IngestEpoch((*epochs)[0]).ok());

  // Dynamic query on epoch 0: fetch-and-rewrite appends re-encrypted rows
  // into a new (unsealed) active segment.
  (*sp)->set_dynamic_mode(true);
  Query dyn;
  dyn.agg = Aggregate::kCount;
  dyn.key_values = {{5}};
  dyn.time_lo = 10 * 3600;
  dyn.time_hi = 10 * 3600;
  ASSERT_TRUE((*sp)->Execute(dyn).ok());
  (*sp)->set_dynamic_mode(false);

  ASSERT_TRUE((*sp)->IngestEpoch((*epochs)[1]).ok());
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{5}};
  q.time_lo = 86400 + 9 * 3600;
  q.time_hi = 86400 + 12 * 3600;
  auto result = (*sp)->Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Reopen the directory: Recover checks epoch 1's recorded segment range
  // against the recovered segments, and the same query answers the same.
  sp->reset();
  auto reopened = ServiceProvider::Open(config, dp.shared_secret(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto again = (*reopened)->Execute(q);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(SerializeQueryResult(*again), SerializeQueryResult(*result));
  reopened->reset();
  RemoveDirRecursive(dir);
}

TEST(PersistenceEndToEndTest, CrashSlackSegmentIsTruncatedOnOpen) {
  // A crash leaves the active segment preallocated (zero tail on disk).
  // Open must cut the file back to its last record and still answer.
  const std::string dir = TempDir();
  const ConcealerConfig config = TestConfig();
  const auto tuples = TestTuples(1);
  DataProvider dp(config, Bytes(32, 0x56));
  auto epochs = dp.EncryptAll(tuples);
  ASSERT_TRUE(epochs.ok());

  StorageOptions options;
  options.dir = dir;
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};
  q.time_lo = 6 * 3600;
  q.time_hi = 8 * 3600;
  Bytes want;
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok());
    ASSERT_TRUE((*sp)->IngestEpoch((*epochs)[0]).ok());
    auto result = (*sp)->Execute(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    want = SerializeQueryResult(*result);
  }
  // Simulate the crash by re-inflating the sealed file with a zero tail
  // (exactly what an unsealed preallocated segment looks like on disk).
  const std::string seg0 = dir + "/seg-000000.seg";
  const uintmax_t sealed_size = std::filesystem::file_size(seg0);
  ASSERT_GT(sealed_size, 0u);
  std::FILE* f = std::fopen(seg0.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const std::vector<char> zeros(1 << 20, 0);
  ASSERT_EQ(std::fwrite(zeros.data(), 1, zeros.size(), f), zeros.size());
  std::fclose(f);
  ASSERT_EQ(std::filesystem::file_size(seg0), sealed_size + zeros.size());
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    EXPECT_EQ(std::filesystem::file_size(seg0), sealed_size);
    auto result = (*sp)->Execute(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*result), want);
  }
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace concealer
