// Network front door tests: wire-format round trips and fail-closed
// parsing, the epoll server end to end over real sockets (byte-identity
// with the in-process registry, health, deadline shedding, per-connection
// fail-closed on garbage, admin gating, graceful drain semantics), the
// wire fault shim (torn writes, stalls), and the crash sweep: kill the
// server at every socket I/O point of a mixed static/dynamic workload,
// restart on the directory it left behind, and require byte-identical
// answers through a retrying client.
//
// Byte-identity follows durability_test.cc's rule: probes run in STATIC
// mode (dynamic-mode results are rng-shaped — the random-bin fill shows
// up in rows_fetched), and static answers are invariant under §6
// rewrites, so pre-crash and post-restart serialized results must match
// exactly.
//
// Every suite here matches the Net* TSan filter (CMakeLists
// CONCEALER_TSAN_SUITES): the server is one loop thread + pool workers +
// test threads, exactly the interleavings TSan is for.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "concealer/data_provider.h"
#include "concealer/epoch_io.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "net/client.h"
#include "net/net_fault.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "service/query_service.h"
#include "service/retry.h"
#include "service/tenant_registry.h"
#include "storage/fault_fs.h"

namespace concealer {
namespace {

using net::CallOptions;
using net::ConcealerClient;
using net::ConcealerServer;
using net::HealthInfo;
using net::MsgType;
using net::NetHeader;
using net::ServerOptions;
using net::WallMs;

std::string TempDir() {
  char tmpl[] = "/tmp/concealer-net-test-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void RemoveDirRecursive(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

ConcealerConfig NetTestConfig() {
  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {16};
  config.time_buckets = 24;
  config.num_cell_ids = 40;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;
  return config;
}

/// One tenant's DP side: secret, one user ("alice"), one day of readings
/// encrypted ONCE — every run (and every sweep iteration) ingests the
/// same ciphertexts, keeping static answers byte-reproducible.
struct TenantFixture {
  std::string id;
  ConcealerConfig config;
  std::unique_ptr<DataProvider> dp;
  std::vector<EncryptedEpoch> epochs;
  Bytes user_secret;
};

TenantFixture MakeTenant(const std::string& id, uint8_t seed) {
  TenantFixture t;
  t.id = id;
  t.config = NetTestConfig();
  t.dp = std::make_unique<DataProvider>(t.config, Bytes(32, seed));
  t.user_secret = Bytes{'p', 'w', seed};
  EXPECT_TRUE(t.dp->RegisterUser("alice", Slice(t.user_secret), "").ok());
  std::vector<PlainTuple> readings;
  for (uint64_t minute = 0; minute < 400; ++minute) {
    PlainTuple r;
    r.keys = {(minute * (seed % 5 + 1)) % 16};
    r.time = minute * 120;
    readings.push_back(std::move(r));
  }
  auto epochs = t.dp->EncryptAll(readings);
  EXPECT_TRUE(epochs.ok());
  t.epochs = std::move(*epochs);
  return t;
}

Bytes AliceProof(const TenantFixture& t) {
  return Registry::MakeProof(Slice(t.user_secret), "alice");
}

void Provision(TenantRegistry* registry, const TenantFixture& t) {
  ASSERT_TRUE(
      registry->CreateTenant(t.id, t.config, t.dp->shared_secret()).ok());
  ASSERT_TRUE(
      registry->LoadRegistry(t.id, Slice(t.dp->EncryptedRegistry())).ok());
  for (const auto& e : t.epochs) {
    ASSERT_TRUE(registry->IngestEpoch(t.id, e).ok());
  }
}

Query CountQuery(uint64_t key, uint64_t lo_h, uint64_t hi_h) {
  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{key}};
  q.time_lo = lo_h * 3600;
  q.time_hi = hi_h * 3600;
  return q;
}

// --- Wire format -----------------------------------------------------------

TEST(NetWireTest, StatusCodeWireMappingRoundTrips) {
  const Status::Code codes[] = {
      Status::Code::kOk,
      Status::Code::kInvalidArgument,
      Status::Code::kNotFound,
      Status::Code::kCorruption,
      Status::Code::kPermissionDenied,
      Status::Code::kFailedPrecondition,
      Status::Code::kInternal,
      Status::Code::kUnimplemented,
      Status::Code::kUnavailable,
      Status::Code::kDeadlineExceeded,
  };
  for (Status::Code code : codes) {
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code);
  }
  // Unknown wire values land on kInternal, never out-of-range enums.
  EXPECT_EQ(StatusCodeFromWire(999), Status::Code::kInternal);
}

TEST(NetWireTest, RequestRoundTrips) {
  NetHeader header;
  header.type = MsgType::kQuery;
  header.request_id = 0x1122334455667788ull;
  header.deadline_unix_ms = 987654321;
  header.tenant_id = "acme-east";
  const Bytes payload{1, 2, 3, 250};
  Bytes frame = net::EncodeRequest(header, Slice(payload));

  size_t off = 0;
  auto body = ReadFramedRecord(Slice(frame), &off);
  ASSERT_TRUE(body.ok());
  auto parsed = net::ParseRequest(*body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.type, MsgType::kQuery);
  EXPECT_EQ(parsed->header.request_id, header.request_id);
  EXPECT_EQ(parsed->header.deadline_unix_ms, header.deadline_unix_ms);
  EXPECT_EQ(parsed->header.tenant_id, header.tenant_id);
  EXPECT_EQ(parsed->payload.ToBytes(), payload);
}

TEST(NetWireTest, ResponseCarriesStatusAndRetryAfter) {
  Status status = Status::Unavailable("gate saturated").WithRetryAfterMs(42);
  const Bytes payload{9, 9};
  Bytes frame = net::EncodeResponse(7, status, Slice(payload));
  size_t off = 0;
  auto body = ReadFramedRecord(Slice(frame), &off);
  ASSERT_TRUE(body.ok());
  auto parsed = net::ParseResponse(*body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 7u);
  EXPECT_TRUE(parsed->status.IsUnavailable());
  EXPECT_EQ(parsed->status.retry_after_ms(), 42u);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(NetWireTest, QuerySerializationRoundTrips) {
  Query q;
  q.agg = Aggregate::kTopK;
  q.k = 5;
  q.key_values = {{3, 4}, {7}};
  q.time_lo = 123;
  q.time_hi = 456;
  q.observation = "dev-17";
  q.method = RangeMethod::kEBPB;
  q.oblivious = true;
  q.verify = true;
  Bytes data = net::SerializeQuery(q);
  auto back = net::DeserializeQuery(Slice(data));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->agg, q.agg);
  EXPECT_EQ(back->k, q.k);
  EXPECT_EQ(back->key_values, q.key_values);
  EXPECT_EQ(back->time_lo, q.time_lo);
  EXPECT_EQ(back->time_hi, q.time_hi);
  EXPECT_EQ(back->observation, q.observation);
  EXPECT_EQ(back->method, q.method);
  EXPECT_EQ(back->oblivious, q.oblivious);
  EXPECT_EQ(back->verify, q.verify);
}

TEST(NetWireTest, PayloadRoundTrips) {
  net::OpenSessionReq open;
  open.user_id = "alice";
  open.proof = Bytes{1, 2, 3};
  Bytes open_bytes = net::EncodeOpenSessionReq(open);
  auto open2 = net::ParseOpenSessionReq(Slice(open_bytes));
  ASSERT_TRUE(open2.ok());
  EXPECT_EQ(open2->user_id, "alice");
  EXPECT_EQ(open2->proof, open.proof);

  net::QueryReq qr;
  qr.token = "tok";
  qr.encrypted = true;
  qr.query = CountQuery(3, 1, 2);
  Bytes qr_bytes = net::EncodeQueryReq(qr);
  auto qr2 = net::ParseQueryReq(Slice(qr_bytes));
  ASSERT_TRUE(qr2.ok());
  EXPECT_EQ(qr2->token, "tok");
  EXPECT_TRUE(qr2->encrypted);
  EXPECT_EQ(qr2->query.key_values, qr.query.key_values);

  net::QueryBatchReq batch;
  batch.queries = {qr, qr};
  Bytes batch_bytes = net::EncodeQueryBatchReq(batch);
  auto batch2 = net::ParseQueryBatchReq(Slice(batch_bytes));
  ASSERT_TRUE(batch2.ok());
  EXPECT_EQ(batch2->queries.size(), 2u);

  std::vector<net::BatchItem> items(2);
  items[0].status = Status::OK();
  items[0].result = Bytes{5, 6};
  items[1].status = Status::PermissionDenied("nope");
  Bytes items_bytes = net::EncodeBatchItems(items);
  auto items2 = net::ParseBatchItems(Slice(items_bytes));
  ASSERT_TRUE(items2.ok());
  ASSERT_EQ(items2->size(), 2u);
  EXPECT_TRUE((*items2)[0].status.ok());
  EXPECT_EQ((*items2)[0].result, items[0].result);
  EXPECT_TRUE((*items2)[1].status.IsPermissionDenied());

  net::CreateTenantReq create;
  create.config = NetTestConfig();
  create.sk = Bytes(32, 0xab);
  create.qos_weight = 3;
  create.qos_max_inflight = 2;
  Bytes create_bytes = net::EncodeCreateTenantReq(create);
  auto create2 = net::ParseCreateTenantReq(Slice(create_bytes));
  ASSERT_TRUE(create2.ok());
  EXPECT_EQ(create2->sk, create.sk);
  EXPECT_EQ(create2->qos_weight, 3u);
  EXPECT_EQ(create2->config.num_cell_ids, create.config.num_cell_ids);
  EXPECT_EQ(create2->config.key_buckets, create.config.key_buckets);
  EXPECT_EQ(create2->config.key_domains, create.config.key_domains);

  HealthInfo health;
  health.draining = true;
  health.inflight = 4;
  health.open_connections = 2;
  HealthInfo::Tenant sick;
  sick.tenant_id = "acme";
  sick.recovery_code = StatusCodeToWire(Status::Code::kCorruption);
  sick.recovery_message = "bad epoch";
  health.tenants.push_back(sick);
  Bytes health_bytes = net::EncodeHealthInfo(health);
  auto health2 = net::ParseHealthInfo(Slice(health_bytes));
  ASSERT_TRUE(health2.ok());
  EXPECT_TRUE(health2->draining);
  EXPECT_EQ(health2->inflight, 4u);
  ASSERT_EQ(health2->tenants.size(), 1u);
  EXPECT_EQ(health2->tenants[0].tenant_id, "acme");
  EXPECT_EQ(StatusCodeFromWire(health2->tenants[0].recovery_code),
            Status::Code::kCorruption);
  EXPECT_EQ(health2->tenants[0].recovery_message, "bad epoch");
}

TEST(NetWireTest, MalformedPayloadsFailClosed) {
  // Truncations of a valid request body must all parse as errors, never
  // crash and never "succeed" with garbage fields.
  NetHeader header;
  header.type = MsgType::kOpenSession;
  header.request_id = 1;
  header.tenant_id = "t";
  net::OpenSessionReq open;
  open.user_id = "alice";
  open.proof = Bytes{1, 2, 3, 4};
  Bytes frame = net::EncodeRequest(header, Slice(net::EncodeOpenSessionReq(open)));
  size_t off = 0;
  auto body = ReadFramedRecord(Slice(frame), &off);
  ASSERT_TRUE(body.ok());
  for (size_t len = 0; len < body->size(); ++len) {
    auto truncated = net::ParseRequest(Slice(body->data(), len));
    if (!truncated.ok()) continue;  // Header did not fit: fine.
    // Header fit; the truncated payload must now be rejected.
    EXPECT_FALSE(net::ParseOpenSessionReq(truncated->payload).ok())
        << "truncation to " << len << " bytes parsed";
  }
  // A response body is not a request.
  Bytes resp = net::EncodeResponse(1, Status::OK(), Slice());
  off = 0;
  auto resp_body = ReadFramedRecord(Slice(resp), &off);
  ASSERT_TRUE(resp_body.ok());
  EXPECT_FALSE(net::ParseRequest(*resp_body).ok());
  // Out-of-range enums (here: a "bool" of 7) are rejected.
  net::SetDynamicModeReq mode;
  Bytes mode_bytes = net::EncodeSetDynamicModeReq(mode);
  mode_bytes.back() = 7;
  EXPECT_FALSE(net::ParseSetDynamicModeReq(Slice(mode_bytes)).ok());
}

// --- Server fixture --------------------------------------------------------

/// Test-gated execution hook (QueryServiceOptions::execute_fault_hook):
/// while enabled, queries BLOCK inside the service until released — how
/// the drain test holds a request in flight deterministically.
struct ExecuteGate {
  std::mutex mu;
  std::condition_variable cv;
  bool enabled = false;
  int entered = 0;
  bool released = false;

  void Hook() {
    std::unique_lock<std::mutex> lock(mu);
    if (!enabled) return;
    ++entered;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  void Enable(bool on) {
    std::lock_guard<std::mutex> lock(mu);
    enabled = on;
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered > 0; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

struct ServerHarness {
  std::string root;
  std::shared_ptr<ExecuteGate> gate = std::make_shared<ExecuteGate>();
  std::unique_ptr<TenantRegistry> registry;
  std::unique_ptr<ConcealerServer> server;

  explicit ServerHarness(ServerOptions server_options = {},
                         bool mmap_engine = false) {
    root = TempDir();
    TenantRegistryOptions options;
    options.root_dir = root;
    if (mmap_engine) options.storage.engine = StorageOptions::Engine::kMmap;
    options.pool_threads = 4;
    std::shared_ptr<ExecuteGate> gate_ref = gate;
    options.service.execute_fault_hook = [gate_ref] { gate_ref->Hook(); };
    registry = std::make_unique<TenantRegistry>(options);
    server = std::make_unique<ConcealerServer>(registry.get(),
                                               std::move(server_options));
    EXPECT_TRUE(server->Start().ok());
  }
  ~ServerHarness() {
    server.reset();
    registry.reset();
    RemoveDirRecursive(root);
  }

  ConcealerClient Dial() {
    ConcealerClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    return client;
  }

  /// A raw (non-protocol-speaking) TCP connection to the server.
  int RawDial() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr;
    ::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }
};

/// True if the peer half-closes (EOF) within `timeout_ms`.
bool WaitForEof(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
  char buf[64];
  return ::recv(fd, buf, sizeof(buf), 0) == 0;
}

// --- Server end to end -----------------------------------------------------

TEST(NetServerTest, QueriesMatchInProcessAnswersByteForByte) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x31);
  Provision(harness.registry.get(), acme);

  ConcealerClient client = harness.Dial();
  auto wire_token =
      client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(wire_token.ok()) << wire_token.status().ToString();
  auto direct_token =
      harness.registry->OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(direct_token.ok());

  for (uint64_t key = 0; key < 6; ++key) {
    Query q = CountQuery(key, key % 3, key % 3 + 4);
    auto over_wire = client.Query(acme.id, *wire_token, q);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    auto direct = harness.registry->Query(acme.id, *direct_token, q);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(SerializeQueryResult(*over_wire), SerializeQueryResult(*direct))
        << "key " << key;
  }
}

TEST(NetServerTest, EncryptedQueryDecryptsWithUserProof) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x32);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());

  Query q = CountQuery(4, 0, 12);
  auto ciphertext = client.QueryEncrypted(acme.id, *token, q);
  ASSERT_TRUE(ciphertext.ok()) << ciphertext.status().ToString();
  auto decrypted = QueryService::DecryptResult(Slice(AliceProof(acme)),
                                               "alice", Slice(*ciphertext));
  ASSERT_TRUE(decrypted.ok()) << decrypted.status().ToString();

  auto plain = client.Query(acme.id, *token, q);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(SerializeQueryResult(*decrypted), SerializeQueryResult(*plain));
}

TEST(NetServerTest, BatchKeepsPerQueryStatusesInTheirSlots) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x33);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());

  Query good = CountQuery(2, 0, 8);
  Query bad = good;
  bad.observation = "not-alices-device";  // Individualized-query violation.
  auto results = client.QueryBatch(acme.id, *token, {good, bad, good});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  EXPECT_TRUE((*results)[0].ok());
  EXPECT_TRUE((*results)[1].status().IsPermissionDenied())
      << (*results)[1].status().ToString();
  ASSERT_TRUE((*results)[2].ok());
  EXPECT_EQ(SerializeQueryResult(*(*results)[0]),
            SerializeQueryResult(*(*results)[2]));
}

TEST(NetServerTest, AdminPlaneProvisionsWireOnly) {
  ServerOptions options;
  options.allow_admin = true;
  ServerHarness harness(options);
  TenantFixture acme = MakeTenant("acme", 0x34);
  ConcealerClient client = harness.Dial();

  // Whole lifecycle over the wire: create, load registry, ingest, query.
  ASSERT_TRUE(client
                  .CreateTenant(acme.id, acme.config,
                                Slice(acme.dp->shared_secret()))
                  .ok());
  ASSERT_TRUE(
      client.LoadRegistry(acme.id, Slice(acme.dp->EncryptedRegistry())).ok());
  for (const auto& e : acme.epochs) {
    ASSERT_TRUE(client.IngestEpoch(acme.id, e).ok());
  }
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  auto result = client.Query(acme.id, *token, CountQuery(0, 0, 13));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->count, 0u);
  EXPECT_TRUE(client.SetDynamicMode(acme.id, true).ok());
  EXPECT_TRUE(client.SetDynamicMode(acme.id, false).ok());
}

TEST(NetServerTest, AdminPlaneDisabledByDefault) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x35);
  ConcealerClient client = harness.Dial();
  Status created = client.CreateTenant(acme.id, acme.config,
                                       Slice(acme.dp->shared_secret()));
  EXPECT_TRUE(created.IsPermissionDenied()) << created.ToString();
  EXPECT_TRUE(client.connected());  // Policy refusal, not a wire failure.
}

TEST(NetServerTest, HealthReportsTenantRecoveryState) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x36);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_FALSE(health->draining);
  ASSERT_EQ(health->tenants.size(), 1u);
  EXPECT_EQ(health->tenants[0].tenant_id, "acme");
  EXPECT_EQ(StatusCodeFromWire(health->tenants[0].recovery_code),
            Status::Code::kOk);
}

TEST(NetServerTest, ExpiredDeadlineShedBeforeEnclaveWork) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x37);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());

  CallOptions expired;
  expired.deadline_unix_ms = WallMs() - 10'000;
  auto result = client.Query(acme.id, *token, CountQuery(1, 0, 4), expired);
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_GE(harness.server->stats().shed_deadline, 1u);
  // The connection survives: shedding is per request, not per peer.
  EXPECT_TRUE(client.Query(acme.id, *token, CountQuery(1, 0, 4)).ok());
}

TEST(NetServerTest, GarbageFrameClosesOnlyThatConnection) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x38);
  Provision(harness.registry.get(), acme);
  ConcealerClient good = harness.Dial();
  auto token = good.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());

  // A raw peer speaking garbage gets cut off...
  int fd = harness.RawDial();
  const char garbage[] = "NOT A CONCEALER FRAME AT ALL................";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  EXPECT_TRUE(WaitForEof(fd, 5'000));
  ::close(fd);

  // ...while the well-behaved connection keeps being served.
  EXPECT_TRUE(good.Query(acme.id, *token, CountQuery(2, 0, 6)).ok());
  EXPECT_GE(harness.server->stats().malformed_closed, 1u);
}

TEST(NetServerTest, HostileDeclaredLengthClosesWithoutBuffering) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  ServerHarness harness(options);
  int fd = harness.RawDial();
  // A structurally valid frame header declaring an 8 GB body. The server
  // must hang up on the header alone — long before 8 GB could arrive.
  Bytes frame;
  AppendFramedRecord(&frame, Slice(Bytes(16, 0)));
  const uint64_t hostile = 8ull << 30;
  for (int i = 0; i < 8; ++i) {
    // Length field lives at bytes 16..23 of the epoch_io frame header.
    frame[16 + i] = static_cast<uint8_t>((hostile >> (8 * i)) & 0xff);
  }
  ASSERT_GT(::send(fd, frame.data(), 24, MSG_NOSIGNAL), 0);
  EXPECT_TRUE(WaitForEof(fd, 5'000));
  ::close(fd);
  EXPECT_GE(harness.server->stats().malformed_closed, 1u);
}

TEST(NetServerTest, IdleConnectionsAreSwept) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  ServerHarness harness(options);
  int fd = harness.RawDial();
  // Say nothing; the idle sweep must hang up on us.
  EXPECT_TRUE(WaitForEof(fd, 5'000));
  ::close(fd);
  EXPECT_GE(harness.server->stats().idle_closed, 1u);
}

TEST(NetServerTest, DrainFinishesInflightShedsNewAndReportsDraining) {
  ServerOptions options;
  options.drain_retry_after_ms = 777;  // Distinctive: identifies the shed.
  ServerHarness harness(options, /*mmap_engine=*/true);
  TenantFixture acme = MakeTenant("acme", 0x39);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  ConcealerClient prober = harness.Dial();
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());
  auto prober_token =
      prober.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(prober_token.ok());

  // Hold one query in flight inside the service...
  harness.gate->Enable(true);
  StatusOr<QueryResult> inflight = Status::Internal("not run");
  std::thread slow([&] {
    inflight = client.Query(acme.id, *token, CountQuery(3, 0, 9));
  });
  harness.gate->WaitEntered();
  harness.gate->Enable(false);  // Only the held query stays blocked.

  // ...start draining while it is stuck...
  Status drained = Status::Internal("not run");
  std::thread drainer([&] { drained = harness.server->Drain(); });
  while (!harness.server->stats().draining) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...new work is refused with Unavailable + the drain's retry-after,
  // while health still answers (it is what an orchestrator polls now).
  auto shed = prober.Query(acme.id, *prober_token, CountQuery(3, 0, 9));
  ASSERT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_EQ(shed.status().retry_after_ms(), 777u);
  auto health = prober.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->draining);

  // ...then the held query is released, completes, and its response is
  // still delivered: drain finishes in-flight work instead of dropping it.
  harness.gate->Release();
  slow.join();
  drainer.join();
  ASSERT_TRUE(inflight.ok()) << inflight.status().ToString();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_GE(harness.server->stats().shed_draining, 1u);
}

TEST(NetServerTest, RetryingClientRidesOutRestartByteIdentically) {
  const std::string root = TempDir();
  TenantFixture acme = MakeTenant("acme", 0x3a);
  TenantRegistryOptions registry_options;
  registry_options.root_dir = root;
  registry_options.storage.engine = StorageOptions::Engine::kMmap;

  uint16_t port = 0;
  Bytes want;
  const Query probe = CountQuery(5, 0, 10);
  ConcealerClient client;
  {
    auto registry = std::make_unique<TenantRegistry>(registry_options);
    Provision(registry.get(), acme);
    auto server = std::make_unique<ConcealerServer>(registry.get());
    ASSERT_TRUE(server->Start().ok());
    port = server->port();
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
    ASSERT_TRUE(token.ok());
    auto before = client.Query(acme.id, *token, probe);
    ASSERT_TRUE(before.ok());
    want = SerializeQueryResult(*before);
    server->Abort();  // kill -9 stand-in: no drain, no checkpoint.
    server.reset();
    registry.reset();
  }

  // The client is now talking to a dead server: fail-closed, retryable.
  {
    auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
    EXPECT_TRUE(token.status().IsUnavailable()) << token.status().ToString();
    EXPECT_FALSE(client.connected());
  }

  // Restart on the SAME directory and port; recover; serve again.
  auto registry = std::make_unique<TenantRegistry>(registry_options);
  ASSERT_TRUE(registry
                  ->OpenAll([&](const std::string& id)
                                -> StatusOr<TenantRegistry::TenantCredentials> {
                    if (id != acme.id) return Status::NotFound("unknown");
                    return TenantRegistry::TenantCredentials{
                        acme.config, acme.dp->shared_secret()};
                  })
                  .ok());
  // Sessions and the user registry are in-memory by design; restart means
  // re-loading the registry blob and re-opening sessions.
  ASSERT_TRUE(
      registry->LoadRegistry(acme.id, Slice(acme.dp->EncryptedRegistry()))
          .ok());
  ServerOptions same_port;
  same_port.port = port;
  auto server = std::make_unique<ConcealerServer>(registry.get(), same_port);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_EQ(server->port(), port);

  // The disconnected client redials and must read the exact answer bytes
  // the pre-crash server gave.
  RetryOptions retry;
  retry.max_attempts = 50;
  retry.initial_backoff_ms = 5;
  auto token = RetryOnUnavailable(
      [&]() -> StatusOr<std::string> {
        if (!client.connected() && !client.Reconnect().ok()) {
          return Status::Unavailable("still down");
        }
        return client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
      },
      retry);
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  auto after = client.RetryQuery(acme.id, *token, probe, retry);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(SerializeQueryResult(*after), want);

  server.reset();
  registry.reset();
  RemoveDirRecursive(root);
}

TEST(NetServerTest, DrainLeavesAnEmptyWalBehind) {
  // A few §6 queries log far less than the WAL's checkpoint threshold, so
  // only the drain's own checkpoint can empty the log.
  const std::string root = TempDir();
  TenantFixture acme = MakeTenant("acme", 0x3b);
  TenantRegistryOptions registry_options;
  registry_options.root_dir = root;
  registry_options.storage.engine = StorageOptions::Engine::kMmap;
  const std::string wal_path = root + "/" + acme.id + "/dynamic.wal";
  const auto wal_bytes = [&] {
    struct stat st;
    EXPECT_EQ(::stat(wal_path.c_str(), &st), 0) << wal_path;
    return static_cast<uint64_t>(st.st_size);
  };
  const Query probe = CountQuery(5, 0, 10);
  Bytes want;
  {
    TenantRegistry registry(registry_options);
    Provision(&registry, acme);
    ConcealerServer server(&registry);
    ASSERT_TRUE(server.Start().ok());
    ConcealerClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
    ASSERT_TRUE(token.ok());
    auto service = registry.tenant(acme.id);
    ASSERT_TRUE(service.ok());
    (*service)->set_dynamic_mode(true);
    for (uint64_t key = 1; key <= 3; ++key) {
      auto got = client.Query(acme.id, *token, CountQuery(key, 0, 9));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
    }
    (*service)->set_dynamic_mode(false);
    auto before = client.Query(acme.id, *token, probe);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    want = SerializeQueryResult(*before);
    ASSERT_GT(wal_bytes(), 0u);

    ASSERT_TRUE(server.Drain().ok());
    EXPECT_EQ(wal_bytes(), 0u);
  }

  // The reopened tenant replays nothing and answers byte-identically from
  // the checkpointed metas.
  TenantRegistry registry(registry_options);
  ASSERT_TRUE(registry
                  .OpenAll([&](const std::string& id)
                               -> StatusOr<TenantRegistry::TenantCredentials> {
                    if (id != acme.id) return Status::NotFound("unknown");
                    return TenantRegistry::TenantCredentials{
                        acme.config, acme.dp->shared_secret()};
                  })
                  .ok());
  ASSERT_TRUE(
      registry.LoadRegistry(acme.id, Slice(acme.dp->EncryptedRegistry()))
          .ok());
  auto token =
      registry.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());
  auto after = registry.Query(acme.id, *token, probe);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(SerializeQueryResult(*after), want);
  RemoveDirRecursive(root);
}

// --- Wire fault shim -------------------------------------------------------

TEST(NetFaultTest, CountModePassesThrough) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x41);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());

  net_fault::Arm(0);
  EXPECT_TRUE(client.Query(acme.id, *token, CountQuery(1, 0, 5)).ok());
  const uint64_t ops = net_fault::OpsIssued();
  EXPECT_FALSE(net_fault::Triggered());
  net_fault::Disarm();
  // One query = client send + server recv + server send + client recv at
  // minimum; EAGAIN re-reads may add a few more.
  EXPECT_GE(ops, 4u);
}

TEST(NetFaultTest, TornWireSurfacesAsUnavailableAndReconnectHeals) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x42);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());

  // Tear the exchange's 2nd socket op (whether that lands on the client's
  // send/recv or the server's — both must surface the same way).
  net_fault::Arm(2, net_fault::Mode::kTorn);
  CallOptions brief;
  brief.timeout_ms = 5'000;
  auto torn = client.Query(acme.id, *token, CountQuery(2, 0, 5), brief);
  EXPECT_TRUE(torn.status().IsUnavailable()) << torn.status().ToString();
  EXPECT_TRUE(net_fault::Triggered());
  EXPECT_FALSE(client.connected());  // Fail-closed: state unknowable.
  net_fault::Disarm();

  ASSERT_TRUE(client.Reconnect().ok());
  auto again = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(client.Query(acme.id, *again, CountQuery(2, 0, 5)).ok());
}

TEST(NetFaultTest, StalledWireTimesOutInsteadOfHanging) {
  ServerHarness harness;
  TenantFixture acme = MakeTenant("acme", 0x43);
  Provision(harness.registry.get(), acme);
  ConcealerClient client = harness.Dial();
  auto token = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(token.ok());

  net_fault::Arm(2, net_fault::Mode::kStall);
  CallOptions brief;
  brief.timeout_ms = 300;
  auto stalled = client.Query(acme.id, *token, CountQuery(3, 0, 5), brief);
  EXPECT_TRUE(stalled.status().IsUnavailable()) << stalled.status().ToString();
  net_fault::Disarm();

  ASSERT_TRUE(client.Reconnect().ok());
  auto again = client.OpenSession(acme.id, "alice", Slice(AliceProof(acme)));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(client.Query(acme.id, *again, CountQuery(3, 0, 5)).ok());
}

// --- Crash sweep over the wire --------------------------------------------

/// The mixed workload the sweep kills: static-tenant reads plus
/// dynamic-tenant queries (whose §6 rewrites hit the WAL). Every one is
/// answer-preserving, so a crash at ANY point leaves the same static
/// probe answers recoverable.
Status RunWireWorkload(ConcealerClient* client, const std::string& static_id,
                       const std::string& static_token,
                       const std::string& dynamic_id,
                       const std::string& dynamic_token) {
  for (int i = 0; i < 3; ++i) {
    CallOptions brief;
    brief.timeout_ms = 5'000;  // Stall-free shim; bound the failure modes.
    auto r1 = client->Query(static_id, static_token,
                            CountQuery(i % 4, 0, 6 + i), brief);
    if (!r1.ok()) return r1.status();
    auto r2 = client->Query(dynamic_id, dynamic_token,
                            CountQuery((i + 1) % 4, i, i + 5), brief);
    if (!r2.ok()) return r2.status();
  }
  return Status::OK();
}

TEST(NetCrashSweepTest, KillAtEveryWireIoPointRecoversByteIdentically) {
  TenantFixture statics = MakeTenant("statics", 0x51);
  TenantFixture dynamics = MakeTenant("dynamics", 0x52);

  TenantRegistryOptions base_options;
  base_options.storage.engine = StorageOptions::Engine::kMmap;
  base_options.pool_threads = 2;

  struct RunState {
    std::unique_ptr<TenantRegistry> registry;
    std::unique_ptr<ConcealerServer> server;
    ConcealerClient client;
    std::string static_token, dynamic_token;

    void SetDynamic(bool on) {
      auto svc = registry->tenant("dynamics");
      ASSERT_TRUE(svc.ok());
      (*svc)->set_dynamic_mode(on);
    }
    /// Static-mode probes, serialized — the byte-identity currency.
    std::vector<Bytes> Probes(const std::string& tenant_id,
                              const std::string& token) {
      SetDynamic(false);
      std::vector<Bytes> out;
      RetryOptions retry;
      retry.max_attempts = 20;
      retry.initial_backoff_ms = 2;
      for (uint64_t key = 0; key < 4; ++key) {
        auto result =
            client.RetryQuery(tenant_id, token, CountQuery(key, 0, 12), retry);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) return {};
        out.push_back(SerializeQueryResult(*result));
      }
      return out;
    }
  };

  auto start = [&](const std::string& root, bool fresh) -> RunState {
    RunState run;
    TenantRegistryOptions options = base_options;
    options.root_dir = root;
    run.registry = std::make_unique<TenantRegistry>(options);
    if (fresh) {
      Provision(run.registry.get(), statics);
      Provision(run.registry.get(), dynamics);
    } else {
      EXPECT_TRUE(
          run.registry
              ->OpenAll([&](const std::string& id)
                            -> StatusOr<TenantRegistry::TenantCredentials> {
                const TenantFixture& t = id == "statics" ? statics : dynamics;
                return TenantRegistry::TenantCredentials{
                    t.config, t.dp->shared_secret()};
              })
              .ok());
      EXPECT_TRUE(run.registry
                      ->LoadRegistry("statics",
                                     Slice(statics.dp->EncryptedRegistry()))
                      .ok());
      EXPECT_TRUE(run.registry
                      ->LoadRegistry("dynamics",
                                     Slice(dynamics.dp->EncryptedRegistry()))
                      .ok());
    }
    run.SetDynamic(true);
    run.server = std::make_unique<ConcealerServer>(run.registry.get());
    EXPECT_TRUE(run.server->Start().ok());
    EXPECT_TRUE(run.client.Connect("127.0.0.1", run.server->port()).ok());
    auto st =
        run.client.OpenSession("statics", "alice", Slice(AliceProof(statics)));
    auto dt = run.client.OpenSession("dynamics", "alice",
                                     Slice(AliceProof(dynamics)));
    EXPECT_TRUE(st.ok() && dt.ok());
    if (st.ok()) run.static_token = *st;
    if (dt.ok()) run.dynamic_token = *dt;
    return run;
  };

  // Reference run: count the workload's wire ops and capture the answers
  // every sweep iteration must reproduce.
  uint64_t num_ops = 0;
  std::vector<Bytes> want_static, want_dynamic;
  {
    const std::string root = TempDir();
    {
      RunState run = start(root, /*fresh=*/true);
      net_fault::Arm(0);  // Count mode.
      ASSERT_TRUE(RunWireWorkload(&run.client, "statics", run.static_token,
                                  "dynamics", run.dynamic_token)
                      .ok());
      num_ops = net_fault::OpsIssued();
      net_fault::Disarm();
      want_static = run.Probes("statics", run.static_token);
      want_dynamic = run.Probes("dynamics", run.dynamic_token);
      run.server->Abort();
    }
    RemoveDirRecursive(root);
  }
  ASSERT_FALSE(want_static.empty());
  ASSERT_FALSE(want_dynamic.empty());
  ASSERT_GE(num_ops, 10u) << "workload too small to sweep";
  ASSERT_LE(num_ops, 400u) << "workload too large to sweep";

  for (uint64_t k = 1; k <= num_ops; ++k) {
    SCOPED_TRACE("wire crash at op " + std::to_string(k) + " of " +
                 std::to_string(num_ops));
    const std::string root = TempDir();
    {
      RunState run = start(root, /*fresh=*/true);
      // Tear on even k, clean reset on odd — both shapes of a dying peer.
      net_fault::Arm(k, (k % 2) == 0 ? net_fault::Mode::kTorn
                                     : net_fault::Mode::kClean);
      Status workload =
          RunWireWorkload(&run.client, "statics", run.static_token,
                          "dynamics", run.dynamic_token);
      // The op count is timing-sensitive (EAGAIN re-reads), so op k may
      // not recur in this run; an untriggered sweep point degenerates to
      // a clean kill, which is still a valid crash to survive.
      if (net_fault::Triggered()) {
        EXPECT_FALSE(workload.ok()) << "op " << k << " failure swallowed";
      }
      // Crash: the dying process issues no further durable I/O either.
      fault_fs::Arm(1);
      run.server->Abort();
      run.server.reset();
      run.registry.reset();
      fault_fs::Disarm();
      net_fault::Disarm();
    }

    // Restart on the directory the crash left behind; a retrying client
    // must read byte-identical static answers for both tenants.
    {
      RunState run = start(root, /*fresh=*/false);
      EXPECT_EQ(run.Probes("statics", run.static_token), want_static);
      EXPECT_EQ(run.Probes("dynamics", run.dynamic_token), want_dynamic);
      // And the recovered tenants stay fully live in dynamic mode.
      run.SetDynamic(true);
      auto again =
          run.client.Query("dynamics", run.dynamic_token, CountQuery(1, 2, 9));
      EXPECT_TRUE(again.ok()) << again.status().ToString();
      ASSERT_TRUE(run.server->Drain().ok());
    }
    RemoveDirRecursive(root);
  }
}

}  // namespace
}  // namespace concealer
