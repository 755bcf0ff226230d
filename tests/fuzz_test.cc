// Differential fuzzing: random grid configurations, random skewed datasets
// and random queries, executed through the full encrypted pipeline and
// compared against the cleartext oracle. Each seed exercises a different
// (grid shape, cell-id count, workload skew, query mix) point; any
// divergence — count, grouped results, or volume-hiding violation — fails.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <set>

#include "baseline/cleartext_db.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "concealer/data_provider.h"
#include "concealer/dynamic_wal.h"
#include "concealer/epoch_io.h"
#include "concealer/service_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "service/tenant_registry.h"
#include "workload/wifi_generator.h"

namespace concealer {
namespace {

class PipelineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineFuzz, RandomConfigAndQueriesMatchOracle) {
  Rng rng(GetParam());

  // Random but valid configuration.
  ConcealerConfig config;
  config.key_buckets = {static_cast<uint32_t>(2 + rng.Uniform(15))};
  const uint64_t domain = config.key_buckets[0] + rng.Uniform(30);
  config.key_domains = {domain};
  config.time_buckets = static_cast<uint32_t>(6 + rng.Uniform(30));
  config.epoch_seconds = 86400 - (86400 % config.time_buckets);
  const uint32_t cells = config.key_buckets[0] * config.time_buckets;
  config.num_cell_ids =
      static_cast<uint32_t>(1 + rng.Uniform(std::max(2u, cells / 2)));
  config.time_quantum = rng.Uniform(2) == 0 ? 60 : 300;
  config.equal_fake_tuples = rng.Uniform(2) == 0;
  config.use_bfd = rng.Uniform(2) == 0;
  config.winsec_lambda_buckets =
      static_cast<uint32_t>(1 + rng.Uniform(config.time_buckets));

  // Random workload.
  WifiConfig wifi;
  wifi.num_access_points = static_cast<uint32_t>(domain);
  wifi.num_devices = 20 + rng.Uniform(60);
  wifi.start_time = 0;
  wifi.duration_seconds = config.epoch_seconds * (1 + rng.Uniform(2));
  wifi.total_rows = 300 + rng.Uniform(1500);
  wifi.time_quantum = config.time_quantum;
  wifi.location_skew = 0.3 + rng.NextDouble() * 0.8;
  wifi.seed = GetParam() * 31 + 1;
  const auto tuples = WifiGenerator(wifi).Generate();

  DataProvider dp(config, Bytes(32, uint8_t(GetParam())));
  ThreadPool pool(4);
  auto opened = ServiceProvider::Open(config, dp.shared_secret());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ServiceProvider* sp = opened->get();
  auto epochs = dp.EncryptAll(tuples);
  ASSERT_TRUE(epochs.ok()) << epochs.status().ToString();
  for (const auto& e : *epochs) {
    ASSERT_TRUE(sp->IngestEpoch(e).ok());
  }
  CleartextDb oracle(config.time_quantum);
  oracle.Insert(tuples);

  // Random queries over random methods/modes.
  std::set<uint64_t> point_volumes;
  for (int i = 0; i < 10; ++i) {
    Query q;
    const int kind = static_cast<int>(rng.Uniform(5));
    q.agg = kind == 0   ? Aggregate::kCount
            : kind == 1 ? Aggregate::kTopK
            : kind == 2 ? Aggregate::kThresholdKeys
            : kind == 3 ? Aggregate::kKeysWithObservation
                        : Aggregate::kCount;
    if (q.agg == Aggregate::kCount) {
      q.key_values = {{rng.Uniform(domain)}};
    }
    if (kind == 4) {  // Q5-style: count of one device at one location.
      const PlainTuple& probe = tuples[rng.Uniform(tuples.size())];
      q.key_values = {probe.keys};
      q.observation = probe.observation;
    }
    if (q.agg == Aggregate::kKeysWithObservation) {
      q.observation = tuples[rng.Uniform(tuples.size())].observation;
    }
    const uint64_t t0 = rng.Uniform(wifi.duration_seconds);
    const bool is_point = rng.Uniform(3) == 0;
    q.time_lo = t0;
    q.time_hi = is_point ? t0 : t0 + rng.Uniform(6 * 3600);
    q.method = static_cast<RangeMethod>(rng.Uniform(3));
    q.oblivious = rng.Uniform(4) == 0;  // Oblivious mode is slow; sample it.
    q.verify = rng.Uniform(3) == 0;
    q.k = 1 + static_cast<uint32_t>(rng.Uniform(5));
    q.threshold = 1 + static_cast<uint32_t>(rng.Uniform(10));

    // Serially and with each unit as one task on a 4-thread pool: both
    // answers must match the oracle, byte for byte alike.
    auto want = oracle.Execute(q);
    ASSERT_TRUE(want.ok());
    Bytes serial;
    StatusOr<QueryResult> got = Status::Internal("unset");
    for (uint32_t threads : {1u, 4u}) {
      sp->set_pool(threads == 1 ? nullptr : &pool);
      got = sp->Execute(q);
      ASSERT_TRUE(got.ok()) << "seed " << GetParam() << " query " << i
                            << " threads " << threads << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->count, want->count)
          << "seed " << GetParam() << " query " << i << " threads " << threads;
      EXPECT_EQ(got->keyed_counts, want->keyed_counts)
          << "seed " << GetParam() << " query " << i << " threads " << threads;
      if (threads == 1) {
        serial = SerializeQueryResult(*got);
      } else {
        EXPECT_EQ(SerializeQueryResult(*got), serial)
            << "seed " << GetParam() << " query " << i;
      }
    }

    // Volume hiding: single-key point BPB queries within one epoch must
    // always fetch the same number of rows (one bin). Whole-domain queries
    // are a different query shape (they fetch one bin per covered column),
    // and multi-epoch plans have per-epoch bin sizes — both excluded.
    if (is_point && q.method == RangeMethod::kBPB &&
        q.key_values.size() == 1 &&
        wifi.duration_seconds == config.epoch_seconds) {
      point_volumes.insert(got->rows_fetched);
    }
  }
  EXPECT_LE(point_volumes.size(), 1u) << "volume hiding violated";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<uint64_t>(1, 13));

// Transport-frame fuzzing: random mutations (bit flips, truncations,
// extensions) of a serialized epoch must always come back as a clean error
// or an untouched round-trip — never a crash or a silently different
// epoch. The same frame guards segment records, epoch metas and the index
// node file, so this corpus covers the persistent engine's on-disk parsing
// too.
class EpochBlobFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EpochBlobFuzz, MutatedBlobsNeverCrash) {
  Rng rng(GetParam() * 7919 + 13);

  ConcealerConfig config;
  config.key_buckets = {4};
  config.key_domains = {8};
  config.time_buckets = 6;
  config.epoch_seconds = 8640;
  config.num_cell_ids = 8;
  config.time_quantum = 60;

  WifiConfig wifi;
  wifi.num_access_points = 8;
  wifi.num_devices = 10;
  wifi.start_time = 0;
  wifi.duration_seconds = config.epoch_seconds;
  wifi.total_rows = 120;
  wifi.seed = GetParam();
  const auto tuples = WifiGenerator(wifi).Generate();

  DataProvider dp(config, Bytes(32, uint8_t(GetParam())));
  auto epoch = dp.EncryptEpoch(0, 0, tuples);
  ASSERT_TRUE(epoch.ok());
  const Bytes blob = SerializeEpoch(*epoch);

  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = blob;
    const int kind = static_cast<int>(rng.Uniform(4));
    if (kind == 0) {  // Bit flips.
      const int flips = 1 + static_cast<int>(rng.Uniform(8));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.Uniform(mutated.size())] ^=
            uint8_t(1u << rng.Uniform(8));
      }
    } else if (kind == 1) {  // Truncation.
      mutated.resize(rng.Uniform(mutated.size()));
    } else if (kind == 2) {  // Extension with junk.
      const int extra = 1 + static_cast<int>(rng.Uniform(64));
      for (int e = 0; e < extra; ++e) {
        mutated.push_back(uint8_t(rng.Next()));
      }
    } else {  // Zero a window (mimics an unwritten mmap tail).
      const size_t start = rng.Uniform(mutated.size());
      const size_t len =
          std::min<size_t>(mutated.size() - start, 1 + rng.Uniform(256));
      std::fill(mutated.begin() + start, mutated.begin() + start + len, 0);
    }
    auto result = DeserializeEpoch(mutated);
    if (result.ok()) {
      // The FNV checksum spared it only if the mutation was a no-op (or
      // collided on identical bytes): the round trip must be exact.
      EXPECT_EQ(SerializeEpoch(*result), blob) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochBlobFuzz,
                         ::testing::Range<uint64_t>(1, 5));

// Dynamic-WAL record fuzzing: the log drives ServiceProvider::Open's
// replay, so a mangled record must always fail closed (no partial
// key-version application) — the only tolerated damage is the tear a
// mid-append crash leaves at the END of the file, which DynamicWal
// truncates away. Mirrors the epoch-blob corpus above.
class WalRecordFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalRecordFuzz, MutatedRecordsFailClosedOrRoundTrip) {
  Rng rng(GetParam() * 6311 + 29);

  // A representative record: several rewrites with multi-column rows and
  // an encrypted tag update, framed exactly as DynamicWal stores it.
  WalRecord record;
  record.epoch_id = GetParam();
  record.bin_index = static_cast<uint32_t>(rng.Uniform(64));
  record.new_version = 1 + rng.Uniform(5);
  record.reenc_counter_after = 1 + rng.Uniform(50);
  for (int r = 0; r < 6; ++r) {
    Row row;
    const uint32_t cols = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t c = 0; c < cols; ++c) {
      Bytes col(1 + rng.Uniform(48));
      for (auto& b : col) b = uint8_t(rng.Next());
      row.columns.emplace_back(std::move(col));
    }
    record.rewrites.push_back({rng.Uniform(10000), std::move(row)});
  }
  record.enc_tag_update = Bytes(32 + rng.Uniform(200));
  for (auto& b : record.enc_tag_update) b = uint8_t(rng.Next());

  const Bytes body = SerializeWalRecord(record);
  Bytes framed;
  AppendFramedRecord(&framed, body);

  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = framed;
    const int kind = static_cast<int>(rng.Uniform(4));
    if (kind == 0) {  // Bit flips.
      const int flips = 1 + static_cast<int>(rng.Uniform(8));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.Uniform(mutated.size())] ^= uint8_t(1u << rng.Uniform(8));
      }
    } else if (kind == 1) {  // Truncation (a torn append).
      mutated.resize(rng.Uniform(mutated.size()));
    } else if (kind == 2) {  // Extension with junk.
      const int extra = 1 + static_cast<int>(rng.Uniform(64));
      for (int e = 0; e < extra; ++e) mutated.push_back(uint8_t(rng.Next()));
    } else {  // Zero a window (an unwritten page-cache tail).
      const size_t start = rng.Uniform(mutated.size());
      const size_t len =
          std::min<size_t>(mutated.size() - start, 1 + rng.Uniform(256));
      std::fill(mutated.begin() + start, mutated.begin() + start + len, 0);
    }

    // Parse as replay does: frame first, then the record body.
    size_t off = 0;
    auto parsed = ReadFramedRecord(mutated, &off);
    if (!parsed.ok()) continue;  // Clean rejection at the frame layer.
    auto back = DeserializeWalRecord(*parsed);
    if (!back.ok()) continue;  // Clean rejection at the record layer.
    // Both layers passed: the mutation must have been byte-neutral.
    EXPECT_EQ(SerializeWalRecord(*back), body) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalRecordFuzz,
                         ::testing::Range<uint64_t>(1, 5));

// Wire-frame fuzzing against a LIVE server (net/server.h): mutated frames
// — bad magic, bad version, hostile declared lengths, truncations, bit
// flips, raw garbage — may cost at most the connection that sent them.
// The server must never crash, never tear down another tenant's
// connection, and keep serving a well-behaved client throughout. (ASan CI
// runs this suite; the suite name intentionally does NOT match the Net*
// TSan filter — the single-connection victims here add nothing to the
// interleaving coverage net_test.cc already provides.)
class WireFrameFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFrameFuzz, MutatedFramesOnlyCostTheOffendingConnection) {
  Rng rng(GetParam() * 104729 + 7);

  ConcealerConfig config;
  config.key_buckets = {4};
  config.key_domains = {8};
  config.time_buckets = 6;
  config.epoch_seconds = 8640;
  config.num_cell_ids = 8;
  config.time_quantum = 60;

  DataProvider dp(config, Bytes(32, uint8_t(GetParam())));
  const Bytes user_secret{'p', 'w'};
  ASSERT_TRUE(dp.RegisterUser("alice", Slice(user_secret), "").ok());
  std::vector<PlainTuple> readings(120);
  for (size_t i = 0; i < readings.size(); ++i) {
    readings[i].keys = {i % 8};
    readings[i].time = (i * 60) % config.epoch_seconds;
  }
  auto epochs = dp.EncryptAll(readings);
  ASSERT_TRUE(epochs.ok());

  TenantRegistryOptions registry_options;
  registry_options.pool_threads = 2;
  TenantRegistry registry(registry_options);
  ASSERT_TRUE(registry.CreateTenant("acme", config, dp.shared_secret()).ok());
  ASSERT_TRUE(registry.LoadRegistry("acme", Slice(dp.EncryptedRegistry())).ok());
  for (const auto& e : *epochs) {
    ASSERT_TRUE(registry.IngestEpoch("acme", e).ok());
  }
  net::ServerOptions server_options;
  server_options.max_frame_bytes = 1 << 20;
  net::ConcealerServer server(&registry, server_options);
  ASSERT_TRUE(server.Start().ok());

  net::ConcealerClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", server.port()).ok());
  const Bytes proof = Registry::MakeProof(Slice(user_secret), "alice");
  auto token = good.OpenSession("acme", "alice", Slice(proof));
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  Query probe;
  probe.agg = Aggregate::kCount;
  probe.key_values = {{1}};
  probe.time_lo = 0;
  probe.time_hi = 4000;

  // The corpus seed: one well-formed query request frame.
  net::NetHeader header;
  header.type = net::MsgType::kQuery;
  header.request_id = 1;
  header.tenant_id = "acme";
  net::QueryReq req;
  req.token = *token;
  req.query = probe;
  const Bytes valid = net::EncodeRequest(header, Slice(net::EncodeQueryReq(req)));

  auto raw_dial = [&]() -> int {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr;
    ::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  };
  // Drains whatever the server does with the mutation. `must_close` kinds
  // (structurally hostile headers) REQUIRE a hang-up; for the rest a
  // clean error response, a hang-up, or silence (incomplete frame) are
  // all acceptable — a crash or a cross-connection casualty is not.
  auto run_trial = [&](const Bytes& bytes, bool must_close) {
    int fd = raw_dial();
    if (!bytes.empty()) {
      (void)!::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int timeout_ms = must_close ? 5'000 : 50;
    bool eof = false;
    if (::poll(&pfd, 1, timeout_ms) > 0) {
      char buf[4096];
      eof = ::recv(fd, buf, sizeof(buf), 0) == 0;
    }
    if (must_close) {
      EXPECT_TRUE(eof);
    }
    ::close(fd);
  };

  for (int trial = 0; trial < 25; ++trial) {
    Bytes mutated = valid;
    const int kind = static_cast<int>(rng.Uniform(7));
    bool must_close = false;
    if (kind == 0) {  // Bad magic.
      mutated[rng.Uniform(4)] ^= uint8_t(1u << rng.Uniform(8));
      must_close = true;
    } else if (kind == 1) {  // Bad frame version (bytes 4..7).
      mutated[4 + rng.Uniform(4)] ^= uint8_t(1u << rng.Uniform(8));
      must_close = true;
    } else if (kind == 2) {  // Hostile declared length (bytes 16..23).
      const uint64_t hostile =
          server_options.max_frame_bytes + 1 + rng.Uniform(1u << 20);
      for (int i = 0; i < 8; ++i) {
        mutated[16 + i] = uint8_t((hostile >> (8 * i)) & 0xff);
      }
      mutated.resize(24);  // Header alone must be enough to reject.
      must_close = true;
    } else if (kind == 3) {  // Truncation (mid-header or mid-body).
      mutated.resize(rng.Uniform(mutated.size()));
    } else if (kind == 4) {  // Body bit flips (checksum must catch).
      const int flips = 1 + static_cast<int>(rng.Uniform(8));
      for (int f = 0; f < flips; ++f) {
        mutated[24 + rng.Uniform(mutated.size() - 24)] ^=
            uint8_t(1u << rng.Uniform(8));
      }
      must_close = true;
    } else if (kind == 5) {  // Pure garbage.
      mutated.resize(8 + rng.Uniform(128));
      for (auto& b : mutated) b = uint8_t(rng.Next());
      // Random first 4 bytes are almost never "CONC", but when they are,
      // the version/length checks still apply — don't assert close.
    } else {  // Valid frame followed by garbage: first parses, tail kills.
      const int extra = 9 + static_cast<int>(rng.Uniform(64));
      for (int e = 0; e < extra; ++e) mutated.push_back(uint8_t(rng.Next()));
    }
    run_trial(mutated, must_close);
  }

  // The well-behaved connection lived through all of it.
  auto result = good.Query("acme", *token, probe);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(server.stats().malformed_closed, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFrameFuzz,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace concealer
