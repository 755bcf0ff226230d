// Network quickstart: talking to Concealer over the framed-TCP front door
// (src/net/) instead of linking the enclave in-process.
//
// Two modes:
//
//   ./examples/network_quickstart
//       Self-contained demo. Spins up a TenantRegistry + ConcealerServer
//       inside this process, provisions a tenant OVER THE WIRE via the
//       admin plane, opens a session, runs queries, reads the health
//       endpoint, and drains. Shows every call an external client would
//       make against a real concealer_server.
//
//   ./examples/network_quickstart --connect=HOST:PORT [--provision]
//       [--tenant=NAME] [--answers=PATH]
//       Driver for an external `concealer_server --demo-keys`. Uses the
//       deterministic demo credentials (net/demo_keys.h) so it agrees
//       with the server about tenant/user secrets without key exchange.
//       --provision creates the tenant (default "demo") and ingests a
//       fixed dataset (admin plane; server must also run --allow-admin).
//       --answers writes each query's serialized result as a hex line —
//       the CI e2e runs this before a kill -9 and after the restart and
//       diffs the two files byte-for-byte, per tenant.
//
// Build: cmake --build build && ./build/examples/network_quickstart

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "concealer/data_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "net/client.h"
#include "net/demo_keys.h"
#include "net/server.h"
#include "service/tenant_registry.h"

using namespace concealer;  // Example code; library code never does this.

namespace {

std::string g_tenant = "demo";  // --tenant flag; demo keys derive from it.
constexpr char kUser[] = "demo";
const char* kTenant() { return g_tenant.c_str(); }

// A fixed per-tenant dataset both driver runs (and any restarted server)
// agree on: 600 readings, one every 2 minutes, keys offset by the tenant
// name so different tenants hold genuinely different data.
std::vector<PlainTuple> DemoReadings() {
  uint64_t offset = 0;
  for (char c : g_tenant) offset += static_cast<unsigned char>(c);
  std::vector<PlainTuple> readings;
  for (uint64_t minute = 0; minute < 600; ++minute) {
    PlainTuple r;
    r.keys = {(minute * 3 + offset) % 10};
    r.time = minute * 120;
    readings.push_back(std::move(r));
  }
  return readings;
}

// The fixed probe set; answers must be byte-identical across restarts.
std::vector<Query> DemoQueries() {
  std::vector<Query> queries;
  for (uint64_t i = 0; i < 8; ++i) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{i % 10}};
    q.time_lo = (i % 4) * 3600;
    q.time_hi = q.time_lo + 6 * 3600;
    queries.push_back(q);
  }
  return queries;
}

std::string ToHex(const Bytes& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

int Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

// Provisions the tenant over the admin plane with the demo-key
// derivation. "already exists" means a previous run provisioned it (or a
// restarted --demo-keys server recovered it from disk); the material is
// deterministic, so there is nothing left to do.
int Provision(net::ConcealerClient& client) {
  DataProvider dp(net::DemoConfig(), net::DemoTenantSecret(kTenant()));
  Status st = dp.RegisterUser(kUser, net::DemoUserSecret(kTenant(), kUser), "");
  if (!st.ok()) return Die("register user", st);

  st = client.CreateTenant(kTenant(), net::DemoConfig(),
                           net::DemoTenantSecret(kTenant()));
  if (!st.ok()) {
    if (st.code() == Status::Code::kInvalidArgument &&
        st.message().find("already exists") != std::string::npos) {
      std::printf("provision: tenant '%s' already provisioned, reusing\n",
                  kTenant());
      return 0;
    }
    return Die("create tenant", st);
  }
  std::printf("provision: created tenant '%s'\n", kTenant());

  st = client.LoadRegistry(kTenant(), Slice(dp.EncryptedRegistry()));
  if (!st.ok()) return Die("load registry", st);

  auto epochs = dp.EncryptAll(DemoReadings());
  if (!epochs.ok()) return Die("encrypt", epochs.status());
  for (const auto& e : *epochs) {
    st = client.IngestEpoch(kTenant(), e);
    if (!st.ok()) return Die("ingest epoch", st);
  }
  std::printf("provision: %zu epoch(s) ingested\n", epochs->size());
  return 0;
}

// Opens a session and runs the probe set; with answers_path, dumps each
// serialized result as one hex line for the CI byte-identity diff.
int RunQueries(net::ConcealerClient& client, const std::string& answers_path) {
  const Bytes proof = Registry::MakeProof(
      Slice(net::DemoUserSecret(kTenant(), kUser)), kUser);
  auto token = client.OpenSession(kTenant(), kUser, Slice(proof));
  if (!token.ok()) return Die("open session", token.status());

  FILE* answers = nullptr;
  if (!answers_path.empty()) {
    answers = std::fopen(answers_path.c_str(), "w");
    if (answers == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", answers_path.c_str());
      return 1;
    }
  }

  RetryOptions retry;  // Rides out backpressure, drain shed, reconnects.
  retry.max_attempts = 20;
  const auto queries = DemoQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = client.RetryQuery(kTenant(), *token, queries[i], retry);
    if (!result.ok()) {
      if (answers != nullptr) std::fclose(answers);
      return Die("query", result.status());
    }
    std::printf("query %zu: key=%llu window=[%lluh,%lluh] -> count %llu\n", i,
                static_cast<unsigned long long>(queries[i].key_values[0][0]),
                static_cast<unsigned long long>(queries[i].time_lo / 3600),
                static_cast<unsigned long long>(queries[i].time_hi / 3600),
                static_cast<unsigned long long>(result->count));
    if (answers != nullptr) {
      std::fprintf(answers, "%s\n",
                   ToHex(SerializeQueryResult(*result)).c_str());
    }
  }
  if (answers != nullptr) {
    std::fclose(answers);
    std::printf("answers written to %s\n", answers_path.c_str());
  }

  auto health = client.Health();
  if (!health.ok()) return Die("health", health.status());
  std::printf("health: draining=%d inflight=%llu connections=%llu tenants=%zu\n",
              health->draining ? 1 : 0,
              static_cast<unsigned long long>(health->inflight),
              static_cast<unsigned long long>(health->open_connections),
              health->tenants.size());
  return 0;
}

// --connect mode: drive an external concealer_server.
int RunDriver(const std::string& host, uint16_t port, bool provision,
              const std::string& answers_path) {
  net::ConcealerClient client;
  Status st = client.Connect(host, port);
  if (!st.ok()) return Die("connect", st);
  std::printf("connected to %s:%u\n", host.c_str(), port);
  if (provision) {
    const int rc = Provision(client);
    if (rc != 0) return rc;
  }
  return RunQueries(client, answers_path);
}

// Default mode: everything in one process, but all through the wire.
int RunDemo() {
  TenantRegistryOptions registry_options;
  registry_options.pool_threads = 2;
  TenantRegistry registry(registry_options);

  net::ServerOptions server_options;
  server_options.allow_admin = true;  // The demo provisions over the wire.
  net::ConcealerServer server(&registry, server_options);
  Status st = server.Start();
  if (!st.ok()) return Die("server start", st);
  std::printf("server listening on 127.0.0.1:%u\n", server.port());

  net::ConcealerClient client;
  st = client.Connect("127.0.0.1", server.port());
  if (!st.ok()) return Die("connect", st);

  int rc = Provision(client);
  if (rc == 0) rc = RunQueries(client, "");
  if (rc != 0) return rc;

  // Graceful shutdown: stop accepting, flush in-flight, checkpoint.
  st = server.Drain();
  if (!st.ok()) return Die("drain", st);
  std::printf("server drained cleanly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  std::string answers_path;
  bool provision = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg.rfind("--answers=", 0) == 0) {
      answers_path = arg.substr(10);
    } else if (arg.rfind("--tenant=", 0) == 0) {
      g_tenant = arg.substr(9);
    } else if (arg == "--provision") {
      provision = true;
    } else {
      std::fprintf(stderr,
                   "usage: network_quickstart [--connect=HOST:PORT"
                   " [--provision] [--tenant=NAME] [--answers=PATH]]\n");
      return 2;
    }
  }

  if (connect.empty()) return RunDemo();

  const size_t colon = connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants HOST:PORT\n");
    return 2;
  }
  const std::string host = connect.substr(0, colon);
  const int port = std::atoi(connect.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad port in --connect\n");
    return 2;
  }
  return RunDriver(host, static_cast<uint16_t>(port), provision, answers_path);
}
