// Dynamic-mode durability: the WAL that makes §6 re-encryption survive a
// restart, the checkpoint that truncates it, and the crash-injection sweep
// that proves it — fail or tear the Nth file operation for EVERY N a
// deterministic dynamic run issues, reopen, and require answers
// byte-identical to a run that never crashed. Storage upkeep (compaction)
// and the tenant-registry recovery surface ride the same harness.
//
// Byte-identity is asserted on STATIC verify=true probes: their fetch
// plans, counts and verification outcome are invariant under §6 rewrites
// (a bin keeps its row population; only ciphertexts, placements and key
// versions change). Dynamic-mode results themselves are rng-shaped (the
// random-bin fill contributes to rows_fetched), so after a reopen they are
// asserted to succeed, not to reproduce bytes.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/cleartext_db.h"
#include "concealer/data_provider.h"
#include "concealer/dynamic_wal.h"
#include "concealer/epoch_io.h"
#include "concealer/service_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "service/query_service.h"
#include "service/tenant_registry.h"
#include "storage/fault_fs.h"
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
  wifi.total_rows = 600 * days;
  wifi.seed = 7;
  return WifiGenerator(wifi).Generate();
}

/// Static verify=true probes over both epochs. Their serialized results are
/// the byte-identity witness: deterministic, and logically invariant under
/// any number of §6 rewrites.
std::vector<Query> ProbeQueries() {
  std::vector<Query> queries;
  for (uint64_t loc : {2, 7, 13}) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{loc}};
    q.verify = true;
    q.time_lo = 8 * 3600;
    q.time_hi = 8 * 3600 + 40 * 60;
    queries.push_back(q);
    q.time_lo = 86400 + 3 * 3600;
    q.time_hi = 86400 + 5 * 3600;
    queries.push_back(q);
  }
  Query top;
  top.agg = Aggregate::kTopK;
  top.k = 3;
  top.time_lo = 0;
  top.time_hi = 2 * 86400;
  queries.push_back(top);
  return queries;
}

/// Runs every probe in static mode and serializes the results.
std::vector<Bytes> Probe(ServiceProvider* sp) {
  sp->set_dynamic_mode(false);
  std::vector<Bytes> out;
  for (const Query& q : ProbeQueries()) {
    auto result = sp->Execute(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    out.push_back(SerializeQueryResult(*result));
  }
  return out;
}

/// The deterministic dynamic phase the crash sweep enumerates: three §6
/// queries with a mid-phase checkpoint (so later WAL records replay over
/// already-absorbed metas) and a final MaintainStorage under a 1-byte
/// checkpoint threshold (so the sweep also crashes inside meta rewrite,
/// WAL truncation and segment compaction). Stops at the first error.
Status RunDynamicPhase(ServiceProvider* sp) {
  sp->set_dynamic_mode(true);
  sp->set_compaction_dead_ratio(0.3);
  for (int i = 0; i < 3; ++i) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{uint64_t(3 + 5 * i)}};
    q.time_lo = (i % 2) * 86400 + 6 * 3600;
    q.time_hi = (i % 2) * 86400 + 9 * 3600;
    auto result = sp->Execute(q);
    if (!result.ok()) return result.status();
    if (i == 1) {
      Status st = sp->CheckpointDynamicState();
      if (!st.ok()) return st;
    }
  }
  sp->set_wal_checkpoint_bytes(1);
  return sp->MaintainStorage();
}

StorageOptions MmapOptions(const std::string& dir) {
  StorageOptions options;
  options.dir = dir;
  return options;
}

// --- WAL unit level --------------------------------------------------------

TEST(DurabilityWalTest, WalRecordRoundTrip) {
  WalRecord record;
  record.epoch_id = 42;
  record.bin_index = 7;
  record.new_version = 3;
  record.reenc_counter_after = 19;
  record.rewrites.push_back(
      {1234, Row{{Bytes{1, 2, 3}, Bytes{4}, Bytes(16, 0xaa)}}});
  record.rewrites.push_back({99, Row{{Bytes(32, 0x5c)}}});
  record.enc_tag_update = Bytes(48, 0x11);

  const Bytes blob = SerializeWalRecord(record);
  auto back = DeserializeWalRecord(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch_id, 42u);
  EXPECT_EQ(back->bin_index, 7u);
  EXPECT_EQ(back->new_version, 3u);
  EXPECT_EQ(back->reenc_counter_after, 19u);
  ASSERT_EQ(back->rewrites.size(), 2u);
  EXPECT_EQ(back->rewrites[0].first, 1234u);
  EXPECT_EQ(back->rewrites[0].second.columns, record.rewrites[0].second.columns);
  EXPECT_EQ(SerializeWalRecord(*back), blob);

  // Truncations anywhere must fail cleanly, never crash.
  for (size_t cut = 0; cut < blob.size(); cut += 3) {
    Bytes shorter(blob.begin(), blob.begin() + cut);
    EXPECT_FALSE(DeserializeWalRecord(shorter).ok()) << cut;
  }
  // Trailing junk is rejected (strict framing).
  Bytes longer = blob;
  longer.push_back(0x42);
  EXPECT_FALSE(DeserializeWalRecord(longer).ok());
}

TEST(DurabilityWalTest, TagUpdateRoundTrip) {
  TagUpdate update;
  ChainTags tags;
  tags.el.fill(0x01);
  tags.eo.fill(0x02);
  tags.er.fill(0x03);
  update.set[5] = tags;
  tags.el.fill(0x04);
  update.set[17] = tags;
  update.erased = {9, 30};

  const Bytes blob = SerializeTagUpdate(update);
  auto back = DeserializeTagUpdate(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->set.size(), 2u);
  EXPECT_EQ(back->set.at(5).el, update.set.at(5).el);
  EXPECT_EQ(back->set.at(17).el, update.set.at(17).el);
  EXPECT_EQ(back->set.at(17).er, update.set.at(17).er);
  EXPECT_EQ(back->erased, update.erased);
  EXPECT_EQ(SerializeTagUpdate(*back), blob);  // Byte-exact round trip.

  Bytes shorter(blob.begin(), blob.end() - 1);
  EXPECT_FALSE(DeserializeTagUpdate(shorter).ok());
}

TEST(DurabilityWalTest, WalAppendReplayReset) {
  const std::string dir = TempDir();
  const std::string path = dir + "/dynamic.wal";
  auto wal = DynamicWal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  const Bytes body_a(40, 0xa1);
  const Bytes body_b(7, 0xb2);
  ASSERT_TRUE((*wal)->Append(body_a).ok());
  ASSERT_TRUE((*wal)->Append(body_b).ok());
  EXPECT_GT((*wal)->SizeBytes(), 0u);

  auto bodies = (*wal)->ReadAll();
  ASSERT_TRUE(bodies.ok()) << bodies.status().ToString();
  ASSERT_EQ(bodies->size(), 2u);
  EXPECT_EQ((*bodies)[0], body_a);
  EXPECT_EQ((*bodies)[1], body_b);

  // A mid-append crash leaves a torn final frame: write half of a valid
  // frame straight into the file. Replay must surface the whole records
  // and truncate the tear away.
  Bytes torn;
  AppendFramedRecord(&torn, Bytes(64, 0xcc));
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(torn.data(), 1, torn.size() / 2, f), torn.size() / 2);
  std::fclose(f);

  auto reopened = DynamicWal::Open(path);
  ASSERT_TRUE(reopened.ok());
  auto replay = (*reopened)->ReadAll();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->size(), 2u);
  EXPECT_EQ((*replay)[0], body_a);
  // The tear was truncated: appending keeps the log parseable.
  ASSERT_TRUE((*reopened)->Append(body_b).ok());
  auto again = (*reopened)->ReadAll();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 3u);

  // In-place corruption (not a tear signature) fails CLOSED.
  {
    auto raw = ReadFileBytes(path);
    ASSERT_TRUE(raw.ok());
    Bytes bad = *raw;
    bad[bad.size() / 2] ^= 0x01;
    ASSERT_TRUE(WriteFileBytes(path, bad).ok());
    auto corrupt = DynamicWal::Open(path);
    ASSERT_TRUE(corrupt.ok());
    auto st = (*corrupt)->ReadAll().status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    ASSERT_TRUE(WriteFileBytes(path, *raw).ok());  // Restore.
  }

  ASSERT_TRUE((*reopened)->Reset().ok());
  EXPECT_EQ((*reopened)->SizeBytes(), 0u);
  auto empty = (*reopened)->ReadAll();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  RemoveDirRecursive(dir);
}

// --- Provider level --------------------------------------------------------

TEST(DurabilityTest, DynamicStateSurvivesRestart) {
  const std::string dir = TempDir();
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x61));
  const std::vector<PlainTuple> tuples = TestTuples(2);
  auto epochs = dp.EncryptAll(tuples);
  ASSERT_TRUE(epochs.ok());
  ASSERT_EQ(epochs->size(), 2u);

  // Ephemeral reference that never restarts (and never rewrites): static
  // probe answers are invariant under §6, so all three worlds must agree.
  // It runs the subject's engine, so it must also agree with the cleartext
  // oracle: an engine bug that hit both alike would otherwise pass.
  auto reference = ServiceProvider::Open(config, dp.shared_secret());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const auto& e : *epochs) {
    ASSERT_TRUE((*reference)->IngestEpoch(e).ok());
  }
  const std::vector<Bytes> want = Probe(reference->get());
  ASSERT_FALSE(want.empty());
  CleartextDb oracle(config.time_quantum);
  oracle.Insert(tuples);
  for (const Query& q : ProbeQueries()) {
    auto got = (*reference)->Execute(q);
    auto truth = oracle.Execute(q);
    ASSERT_TRUE(got.ok() && truth.ok());
    EXPECT_EQ(got->count, truth->count);
    EXPECT_EQ(got->keyed_counts, truth->keyed_counts);
  }

  const StorageOptions options = MmapOptions(dir);
  std::map<uint64_t, uint64_t> want_counters;
  std::map<uint64_t, std::map<uint32_t, uint64_t>> want_versions;
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
    EXPECT_EQ((*sp)->wal_size_bytes(), 0u);

    (*sp)->set_dynamic_mode(true);
    for (int i = 0; i < 4; ++i) {
      Query q;
      q.agg = Aggregate::kCount;
      q.key_values = {{uint64_t(2 + 3 * i)}};
      q.time_lo = (i % 2) * 86400 + 7 * 3600;
      q.time_hi = (i % 2) * 86400 + 10 * 3600;
      auto result = (*sp)->Execute(q);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    EXPECT_GT((*sp)->wal_size_bytes(), 0u);  // Every rewrite was logged.
    EXPECT_EQ(Probe(sp->get()), want);       // §6 left static answers alone.

    for (uint64_t eid : {0, 1}) {
      auto state = (*sp)->epoch_state(eid);
      ASSERT_TRUE(state.ok());
      want_counters[eid] = (*state)->reenc_counter();
      want_versions[eid] = (*state)->bin_key_versions();
    }
    ASSERT_GT(want_counters[0] + want_counters[1], 0u);
  }  // No checkpoint: restart leans entirely on WAL replay.

  for (int life = 0; life < 2; ++life) {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << "life " << life << ": " << sp.status().ToString();
    for (uint64_t eid : {0, 1}) {
      auto state = (*sp)->epoch_state(eid);
      ASSERT_TRUE(state.ok());
      EXPECT_EQ((*state)->reenc_counter(), want_counters[eid])
          << "life " << life << " epoch " << eid;
      EXPECT_EQ((*state)->bin_key_versions(), want_versions[eid])
          << "life " << life << " epoch " << eid;
    }
    EXPECT_EQ(Probe(sp->get()), want) << "life " << life;
  }

  // The recovered provider is fully live in dynamic mode too.
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok());
    (*sp)->set_dynamic_mode(true);
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{11}};
    q.time_lo = 4 * 3600;
    q.time_hi = 6 * 3600;
    ASSERT_TRUE((*sp)->Execute(q).ok());
    EXPECT_EQ(Probe(sp->get()), want);
  }
  RemoveDirRecursive(dir);
}

TEST(DurabilityTest, CheckpointTruncatesWalAndSurvivesRestart) {
  const std::string dir = TempDir();
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x62));
  auto epochs = dp.EncryptAll(TestTuples(2));
  ASSERT_TRUE(epochs.ok());

  auto reference = ServiceProvider::Open(config, dp.shared_secret());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const auto& e : *epochs) {
    ASSERT_TRUE((*reference)->IngestEpoch(e).ok());
  }
  const std::vector<Bytes> want = Probe(reference->get());

  const StorageOptions options = MmapOptions(dir);
  std::map<uint64_t, uint64_t> want_counters;
  {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok());
    for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
    (*sp)->set_dynamic_mode(true);
    for (int i = 0; i < 3; ++i) {
      Query q;
      q.agg = Aggregate::kCount;
      q.key_values = {{uint64_t(4 * i + 1)}};
      q.time_lo = (i % 2) * 86400 + 11 * 3600;
      q.time_hi = (i % 2) * 86400 + 13 * 3600;
      ASSERT_TRUE((*sp)->Execute(q).ok());
    }
    ASSERT_GT((*sp)->wal_size_bytes(), 0u);
    ASSERT_TRUE((*sp)->CheckpointDynamicState().ok());
    EXPECT_EQ((*sp)->wal_size_bytes(), 0u);  // Checkpoint truncates the log.
    for (uint64_t eid : {0, 1}) {
      auto state = (*sp)->epoch_state(eid);
      ASSERT_TRUE(state.ok());
      want_counters[eid] = (*state)->reenc_counter();
    }
  }
  {
    // Restart now recovers from the meta sidecars alone (empty WAL).
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    EXPECT_EQ((*sp)->wal_size_bytes(), 0u);
    for (uint64_t eid : {0, 1}) {
      auto state = (*sp)->epoch_state(eid);
      ASSERT_TRUE(state.ok());
      EXPECT_EQ((*state)->reenc_counter(), want_counters[eid]) << eid;
    }
    EXPECT_EQ(Probe(sp->get()), want);
  }
  RemoveDirRecursive(dir);
}

// §6 churn through a QueryService compacts an ephemeral provider's
// directory as it compacts a named one. Without compaction every rewritten
// row stays on disk as a dead record, so the ephemeral footprint would
// grow with the query count instead of staying near the named one's.
TEST(DurabilityTest, EphemeralProviderCompactsLikeNamedUnderDynamicChurn) {
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x66));
  const Bytes user_secret(16, 0x7b);
  ASSERT_TRUE(dp.RegisterUser("alice", user_secret, "").ok());
  auto epochs = dp.EncryptAll(TestTuples(2));
  ASSERT_TRUE(epochs.ok());

  // Ingests both epochs, runs 200 dynamic queries and returns the engine's
  // DiskBytes() (0 on any failure).
  const auto churn = [&](const StorageOptions& options) -> uint64_t {
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    EXPECT_TRUE(sp.ok()) << sp.status().ToString();
    if (!sp.ok()) return 0;
    for (const auto& e : *epochs) EXPECT_TRUE((*sp)->IngestEpoch(e).ok());
    QueryService service(std::move(*sp));
    EXPECT_TRUE(service.LoadRegistry(dp.EncryptedRegistry()).ok());
    auto token = service.OpenSession(
        "alice", Registry::MakeProof(user_secret, "alice"));
    EXPECT_TRUE(token.ok());
    if (!token.ok()) return 0;
    service.set_dynamic_mode(true);
    for (int i = 0; i < 200; ++i) {
      Query q;
      q.agg = Aggregate::kCount;
      q.key_values = {{uint64_t(1 + i % 19)}};
      q.time_lo = (i % 2) * 86400 + (i % 20) * 3600;
      q.time_hi = q.time_lo + 2 * 3600;
      auto result = service.Execute(*token, q);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) return 0;
    }
    return service.provider()->table().engine().DiskBytes();
  };
  const std::string dir = TempDir();
  const uint64_t named = churn(MmapOptions(dir));
  RemoveDirRecursive(dir);
  const uint64_t ephemeral = churn(StorageOptions{});
  ASSERT_GT(named, 0u);
  ASSERT_GT(ephemeral, 0u);
  EXPECT_LE(ephemeral, 2 * named)
      << "ephemeral " << ephemeral << " B vs named " << named << " B";
}

// --- Crash-point sweep -----------------------------------------------------
// Enumerate the dynamic phase's file operations with fault_fs in count
// mode, then re-run it once per operation with that operation failing
// (alternating clean failures and torn writes), reopen, and demand the
// recovered provider answer byte-identically to the never-crashed run.

TEST(DurabilityTest, CrashSweepEveryIoPoint) {
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x63));
  auto epochs = dp.EncryptAll(TestTuples(2));
  ASSERT_TRUE(epochs.ok());
  ASSERT_EQ(epochs->size(), 2u);

  auto reference = ServiceProvider::Open(config, dp.shared_secret());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const auto& e : *epochs) {
    ASSERT_TRUE((*reference)->IngestEpoch(e).ok());
  }
  const std::vector<Bytes> want = Probe(reference->get());
  ASSERT_FALSE(want.empty());

  // Reference run: count the crash points, then prove the clean path.
  uint64_t num_ops = 0;
  {
    const std::string dir = TempDir();
    const StorageOptions options = MmapOptions(dir);
    {
      auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
      ASSERT_TRUE(sp.ok());
      for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
      fault_fs::Arm(0);  // Count mode: passthrough, ops counted.
      ASSERT_TRUE(RunDynamicPhase(sp->get()).ok());
      num_ops = fault_fs::OpsIssued();
      fault_fs::Disarm();
    }
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    EXPECT_EQ(Probe(sp->get()), want);
    sp->reset();
    RemoveDirRecursive(dir);
  }
  // The phase must actually exercise the durable paths (WAL appends and
  // fsyncs, checkpoint meta rewrites, WAL truncation, compaction), and the
  // sweep must stay enumerable.
  ASSERT_GE(num_ops, 20u) << "dynamic phase issued too little I/O to sweep";
  ASSERT_LE(num_ops, 400u) << "dynamic phase too large to sweep";

  for (uint64_t k = 1; k <= num_ops; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k) + " of " +
                 std::to_string(num_ops));
    const std::string dir = TempDir();
    const StorageOptions options = MmapOptions(dir);
    {
      auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
      ASSERT_TRUE(sp.ok());
      for (const auto& e : *epochs) ASSERT_TRUE((*sp)->IngestEpoch(e).ok());
      // Fail op k — torn (prefix persisted) on even k, clean on odd — and
      // keep the shim DOWN through the provider's destructor: a crashed
      // process issues no best-effort seals either.
      fault_fs::Arm(k, /*torn=*/(k % 2) == 0);
      const Status st = RunDynamicPhase(sp->get());
      EXPECT_TRUE(fault_fs::Triggered());
      EXPECT_FALSE(st.ok()) << "op " << k << " failure was swallowed";
    }
    fault_fs::Disarm();

    // Reopen: recovery must succeed and restore byte-identical answers.
    auto sp = ServiceProvider::Open(config, dp.shared_secret(), options);
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    EXPECT_EQ(Probe(sp->get()), want);
    // And stay fully live: another dynamic query plus upkeep.
    (*sp)->set_dynamic_mode(true);
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{9}};
    q.time_lo = 3 * 3600;
    q.time_hi = 5 * 3600;
    ASSERT_TRUE((*sp)->Execute(q).ok());
    ASSERT_TRUE((*sp)->MaintainStorage().ok());
    sp->reset();
    RemoveDirRecursive(dir);
  }
}

// --- Registry level --------------------------------------------------------

TEST(DurabilityTest, TenantRegistryRecoversDynamicState) {
  const std::string root = TempDir();
  const ConcealerConfig config = TestConfig();
  DataProvider dp(config, Bytes(32, 0x64));
  const Bytes user_secret(16, 0x7a);
  ASSERT_TRUE(dp.RegisterUser("alice", user_secret, "").ok());
  auto epochs = dp.EncryptAll(TestTuples(2));
  ASSERT_TRUE(epochs.ok());

  TenantRegistryOptions options;
  options.root_dir = root;

  std::vector<Bytes> want;
  {
    TenantRegistry registry(options);
    ASSERT_TRUE(
        registry.CreateTenant("acme", config, dp.shared_secret()).ok());
    ASSERT_TRUE(registry.LoadRegistry("acme", dp.EncryptedRegistry()).ok());
    for (const auto& e : *epochs) {
      ASSERT_TRUE(registry.IngestEpoch("acme", e).ok());
    }
    auto token = registry.OpenSession(
        "acme", "alice", Registry::MakeProof(user_secret, "alice"));
    ASSERT_TRUE(token.ok());

    // Dynamic traffic THROUGH the service layer: QueryService runs the
    // storage upkeep (checkpoint + compaction) after each dynamic query.
    auto service = registry.tenant("acme");
    ASSERT_TRUE(service.ok());
    (*service)->set_dynamic_mode(true);
    for (int i = 0; i < 3; ++i) {
      Query q;
      q.agg = Aggregate::kCount;
      q.key_values = {{uint64_t(2 + 4 * i)}};
      q.time_lo = (i % 2) * 86400 + 9 * 3600;
      q.time_hi = (i % 2) * 86400 + 12 * 3600;
      auto result = registry.Query("acme", *token, q);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    (*service)->set_dynamic_mode(false);
    for (const Query& q : ProbeQueries()) {
      auto result = registry.Query("acme", *token, q);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      want.push_back(SerializeQueryResult(*result));
    }
  }  // Registry destroyed mid-stream: WAL + metas carry the dynamic state.

  TenantRegistry reopened(options);
  const auto resolver = [&](const std::string& id)
      -> StatusOr<TenantRegistry::TenantCredentials> {
    if (id == "acme") {
      return TenantRegistry::TenantCredentials{config, dp.shared_secret()};
    }
    return Status::NotFound("no credentials for tenant: " + id);
  };
  ASSERT_TRUE(reopened.OpenAll(resolver).ok());
  for (const auto& r : reopened.recovery_statuses()) {
    EXPECT_TRUE(r.status.ok()) << r.tenant_id << ": " << r.status.ToString();
  }
  ASSERT_TRUE(reopened.AggregateRecoveryStatus().ok());

  ASSERT_TRUE(reopened.LoadRegistry("acme", dp.EncryptedRegistry()).ok());
  auto token = reopened.OpenSession(
      "acme", "alice", Registry::MakeProof(user_secret, "alice"));
  ASSERT_TRUE(token.ok());
  size_t i = 0;
  for (const Query& q : ProbeQueries()) {
    auto result = reopened.Query("acme", *token, q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*result), want[i]) << "probe " << i;
    ++i;
  }
  // Dynamic mode keeps working after recovery.
  auto service = reopened.tenant("acme");
  ASSERT_TRUE(service.ok());
  (*service)->set_dynamic_mode(true);
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{5}};
  q.time_lo = 2 * 3600;
  q.time_hi = 4 * 3600;
  ASSERT_TRUE(reopened.Query("acme", *token, q).ok());
  RemoveDirRecursive(root);
}

}  // namespace
}  // namespace concealer
