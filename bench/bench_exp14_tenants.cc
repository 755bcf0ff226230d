// Exp 14 (implementation extension, no paper counterpart): the TenantRegistry
// front door under multi-tenant load. The paper's deployment is one service
// provider for one client population; the ROADMAP's north star is many
// tenants — each with their own table, key material and epoch set — behind
// one process. This bench sweeps 1/4/16 tenants, each hit by concurrent
// clients, with each tenant's segment directory under one root and the
// registry arbitrating one shared worker pool.
//
// Isolation gate: every answer produced through the registry is
// byte-compared against a DEDICATED single-tenant service over the same key
// material and data. Any divergence — cross-tenant cache bleed, wrong
// routing — fails the run with a nonzero exit. A throughput floor (CONCEALER_EXP14_MIN_QPS, default 1 query/s
// aggregate) guards against the registry collapsing under fan-out.
//
// A Zipf-skew QoS sweep follows the main sweep (see RunSkewSweep below):
// one tenant floods the registry and the LIGHT tenants' p99 is measured
// against an even-load baseline, gated by CONCEALER_EXP14_MAX_LIGHT_P99_MS.
//
// JSON: pass an output path as argv[1] (or set CONCEALER_BENCH_JSON); CI
// uploads this as an artifact and re-checks gate.isolation_identical. The
// skew sweep writes its own JSON to argv[2] (or CONCEALER_BENCH_SKEW_JSON).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "concealer/data_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "service/tenant_registry.h"
#include "workload/wifi_generator.h"

using namespace concealer;

namespace {

constexpr int kMaxTenants = 16;
constexpr int kClientsPerTenant = 2;
constexpr int kQueriesPerClient = 8;
constexpr uint64_t kDays = 2;

struct TenantData {
  std::string id;
  ConcealerConfig config;
  std::unique_ptr<DataProvider> dp;
  std::vector<EncryptedEpoch> epochs;
  Bytes proof;
};

ConcealerConfig TenantConfig() {
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

StatusOr<TenantData> MakeTenantData(int index) {
  TenantData t;
  char name[32];
  std::snprintf(name, sizeof(name), "tenant-%02d", index);
  t.id = name;
  t.config = TenantConfig();
  // Per-tenant enclave secret, user base and data: nothing shared.
  t.dp = std::make_unique<DataProvider>(t.config,
                                        Bytes(32, static_cast<uint8_t>(0x40 + index)));
  const std::string secret = "secret-" + t.id;
  CONCEALER_RETURN_IF_ERROR(
      t.dp->RegisterUser("alice", Slice(secret.data(), secret.size()), ""));
  t.proof = Registry::MakeProof(Slice(secret.data(), secret.size()), "alice");

  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 50;
  wifi.start_time = 0;
  wifi.duration_seconds = kDays * 86400;
  const uint64_t rows = 4000000 / bench::Scale();
  wifi.total_rows = rows < 400 ? 400 : rows;
  wifi.seed = 1000 + index;
  StatusOr<std::vector<EncryptedEpoch>> epochs =
      t.dp->EncryptAll(WifiGenerator(wifi).Generate());
  if (!epochs.ok()) return epochs.status();
  t.epochs = std::move(*epochs);
  return t;
}

std::vector<Query> TenantQueries() {
  std::vector<Query> queries;
  for (uint64_t i = 0; i < 4; ++i) {
    Query point;
    point.agg = Aggregate::kCount;
    point.key_values = {{(i * 5) % 20}};
    point.time_lo = point.time_hi = (i * 9 + 2) * 3600;
    queries.push_back(point);
  }
  Query range;
  range.agg = Aggregate::kCount;
  range.key_values = {{6}};
  range.time_lo = 8 * 3600;
  range.time_hi = 11 * 3600;
  queries.push_back(range);
  range.method = RangeMethod::kEBPB;
  range.time_lo = 86400 + 7 * 3600;
  range.time_hi = 86400 + 9 * 3600;
  queries.push_back(range);
  Query verified;
  verified.agg = Aggregate::kCount;
  verified.key_values = {{3}};
  verified.time_lo = 10 * 3600;
  verified.time_hi = 12 * 3600;
  verified.verify = true;
  queries.push_back(verified);
  Query topk;
  topk.agg = Aggregate::kTopK;
  topk.k = 3;
  topk.time_lo = 9 * 3600;
  topk.time_hi = 12 * 3600;
  queries.push_back(topk);
  return queries;
}

/// Reference bytes from a dedicated single-tenant service over an ephemeral
/// directory — no registry and no shared pool.
StatusOr<std::vector<Bytes>> DedicatedAnswers(const TenantData& t,
                                              const std::vector<Query>& queries) {
  StatusOr<std::unique_ptr<ServiceProvider>> provider =
      ServiceProvider::Open(t.config, t.dp->shared_secret());
  if (!provider.ok()) return provider.status();
  QueryService service(std::move(*provider), QueryServiceOptions{});
  CONCEALER_RETURN_IF_ERROR(service.LoadRegistry(t.dp->EncryptedRegistry()));
  for (const auto& e : t.epochs) {
    CONCEALER_RETURN_IF_ERROR(service.IngestEpoch(e));
  }
  StatusOr<std::string> token = service.OpenSession("alice", t.proof);
  if (!token.ok()) return token.status();
  std::vector<Bytes> out;
  out.reserve(queries.size());
  for (const Query& q : queries) {
    StatusOr<QueryResult> got = service.Execute(*token, q);
    if (!got.ok()) return got.status();
    out.push_back(SerializeQueryResult(*got));
  }
  return out;
}

struct SweepRow {
  int tenants = 0;
  int clients = 0;
  uint64_t queries = 0;
  double seconds = 0;
  double qps = 0;
  bool identical = true;
};

// --- Zipf-skew QoS sweep ---------------------------------------------------
//
// The isolation gate above proves answers stay correct under contention; this
// sweep proves LATENCY isolation: one tenant flooding the registry must not
// drag the other tenants' tail out, because each tenant's work runs in its
// own DRR scheduling class on the shared pool (see common/thread_pool.h).
//
// Two phases over the same 4-tenant registry (ephemeral tenant directories):
//   even: every tenant gets the same client count — the baseline tail.
//   zipf: client counts follow a Zipf(1) law, so tenant-00 is hit with ~8x
//         the load of tenant-03 and saturates the pool on its own.
// Both phases record per-query wall latency; the light tenants (everyone but
// tenant-00) are merged into one sample set and summarized at p50/p99. Every
// answer is still byte-compared against the dedicated single-tenant run.
//
// Gate: CONCEALER_EXP14_MAX_LIGHT_P99_MS, when set, caps the skewed-phase
// light-tenant p99 (CI sets it). The even/zipf p99 ratio is always reported
// and recorded in the JSON so regressions show up even below the cap.
// JSON: argv[2] or CONCEALER_BENCH_SKEW_JSON.

constexpr int kSkewTenants = 4;
constexpr int kSkewTotalClients = 16;
constexpr int kSkewQueriesPerClient = 24;

double PercentileMs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(std::ceil(p * samples.size()));
  idx = idx == 0 ? 0 : idx - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

/// Client counts per tenant following a Zipf(1) law over `total` clients
/// (tenant i's share ~ 1/(i+1)), every tenant keeping at least one client.
std::vector<int> ZipfClients(int tenants, int total) {
  double h = 0;
  for (int i = 0; i < tenants; ++i) h += 1.0 / (i + 1);
  std::vector<int> clients(tenants);
  for (int i = 0; i < tenants; ++i) {
    clients[i] = std::max(
        1, static_cast<int>(std::lround(total * (1.0 / (i + 1)) / h)));
  }
  return clients;
}

struct SkewPhase {
  std::string name;
  std::vector<int> clients;     // Per tenant.
  double seconds = 0;
  uint64_t queries = 0;
  double light_p50_ms = 0;
  double light_p99_ms = 0;
  double heavy_p99_ms = 0;
  bool identical = true;
};

SkewPhase RunSkewPhase(const std::string& name, TenantRegistry& registry,
                       const std::vector<TenantData>& tenants,
                       const std::vector<std::string>& tokens,
                       const std::vector<Query>& queries,
                       const std::vector<std::vector<Bytes>>& expected,
                       const std::vector<int>& clients_per_tenant) {
  SkewPhase phase;
  phase.name = name;
  phase.clients = clients_per_tenant;

  struct ClientRun {
    int tenant = 0;
    std::vector<double> latencies_ms;
    int mismatches = 0;
  };
  std::vector<ClientRun> runs;
  for (int t = 0; t < static_cast<int>(clients_per_tenant.size()); ++t) {
    for (int c = 0; c < clients_per_tenant[t]; ++c) {
      runs.push_back(ClientRun{t, {}, 0});
    }
  }

  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    threads.emplace_back([&, r] {
      ClientRun& run = runs[r];
      run.latencies_ms.reserve(kSkewQueriesPerClient);
      for (int i = 0; i < kSkewQueriesPerClient; ++i) {
        const size_t qi = (r + i) % queries.size();
        Timer timer;
        auto got = registry.Query(tenants[run.tenant].id, tokens[run.tenant],
                                  queries[qi]);
        run.latencies_ms.push_back(timer.ElapsedMillis());
        if (!got.ok() ||
            SerializeQueryResult(*got) != expected[run.tenant][qi]) {
          ++run.mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.seconds = wall.ElapsedSeconds();

  std::vector<double> light, heavy;
  for (const ClientRun& run : runs) {
    phase.queries += run.latencies_ms.size();
    phase.identical = phase.identical && run.mismatches == 0;
    auto& sink = run.tenant == 0 ? heavy : light;
    sink.insert(sink.end(), run.latencies_ms.begin(), run.latencies_ms.end());
  }
  phase.light_p50_ms = PercentileMs(light, 0.50);
  phase.light_p99_ms = PercentileMs(light, 0.99);
  phase.heavy_p99_ms = PercentileMs(heavy, 0.99);
  return phase;
}

const char* SkewJsonPath(int argc, char** argv) {
  if (argc > 2) return argv[2];
  return std::getenv("CONCEALER_BENCH_SKEW_JSON");
}

/// Runs the skew sweep end to end; returns true iff the byte-identity check
/// and the (optional) light-p99 cap both hold.
bool RunSkewSweep(const std::vector<TenantData>& tenants,
                  const std::vector<Query>& queries, int argc, char** argv) {
  std::printf("\n--- zipf skew sweep: light-tenant tail under a flooder ---\n");

  // Dedicated single-tenant references.
  std::vector<std::vector<Bytes>> expected(kSkewTenants);
  for (int i = 0; i < kSkewTenants; ++i) {
    auto want = DedicatedAnswers(tenants[i], queries);
    if (!want.ok()) {
      std::fprintf(stderr, "dedicated run failed: %s\n",
                   want.status().ToString().c_str());
      return false;
    }
    expected[i] = std::move(*want);
  }

  // A deliberately small pool (fewer workers than skewed clients) so the
  // flooder actually saturates it; equal DRR weights — fairness must come
  // from the per-tenant queues, not from privileging the light tenants.
  TenantRegistryOptions options;
  options.pool_threads = 4;
  options.service.max_inflight = 64;
  TenantRegistry registry(options);
  std::vector<std::string> tokens;
  for (int i = 0; i < kSkewTenants; ++i) {
    const TenantData& t = tenants[i];
    Status st = registry.CreateTenant(t.id, t.config, t.dp->shared_secret(),
                                      TenantQoS{/*weight=*/1,
                                                /*max_inflight=*/0});
    if (st.ok()) st = registry.LoadRegistry(t.id, t.dp->EncryptedRegistry());
    for (const auto& e : t.epochs) {
      if (st.ok()) st = registry.IngestEpoch(t.id, e);
    }
    StatusOr<std::string> token = registry.OpenSession(t.id, "alice", t.proof);
    if (st.ok() && !token.ok()) st = token.status();
    if (!st.ok()) {
      std::fprintf(stderr, "tenant %s provisioning failed: %s\n", t.id.c_str(),
                   st.ToString().c_str());
      return false;
    }
    tokens.push_back(*token);
  }

  const std::vector<int> even(kSkewTenants, kSkewTotalClients / kSkewTenants);
  const std::vector<int> zipf = ZipfClients(kSkewTenants, kSkewTotalClients);
  std::vector<SkewPhase> phases;
  phases.push_back(
      RunSkewPhase("even", registry, tenants, tokens, queries, expected, even));
  phases.push_back(
      RunSkewPhase("zipf", registry, tenants, tokens, queries, expected, zipf));

  std::printf("%6s %18s %8s %10s %12s %12s %12s %10s\n", "phase", "clients/tenant",
              "queries", "wall(s)", "light-p50", "light-p99", "heavy-p99",
              "identical");
  for (const SkewPhase& p : phases) {
    std::string clients;
    for (size_t i = 0; i < p.clients.size(); ++i) {
      clients += (i != 0 ? "/" : "") + std::to_string(p.clients[i]);
    }
    std::printf("%6s %18s %8llu %10.3f %10.2fms %10.2fms %10.2fms %10s\n",
                p.name.c_str(), clients.c_str(),
                (unsigned long long)p.queries, p.seconds, p.light_p50_ms,
                p.light_p99_ms, p.heavy_p99_ms, p.identical ? "yes" : "NO");
  }

  const SkewPhase& even_phase = phases[0];
  const SkewPhase& zipf_phase = phases[1];
  const double ratio = even_phase.light_p99_ms > 0
                           ? zipf_phase.light_p99_ms / even_phase.light_p99_ms
                           : 0;
  const char* cap_env = std::getenv("CONCEALER_EXP14_MAX_LIGHT_P99_MS");
  const double cap_ms = cap_env != nullptr ? std::atof(cap_env) : 0;
  const bool cap_pass = cap_ms <= 0 || zipf_phase.light_p99_ms <= cap_ms;
  const bool identical = even_phase.identical && zipf_phase.identical;
  std::printf(
      "light-tenant p99 skewed/even ratio: %.2fx | p99 cap: %s: %s | "
      "byte-identity: %s\n",
      ratio,
      cap_ms > 0 ? (std::to_string(cap_ms) + "ms").c_str() : "unset (report only)",
      cap_pass ? "PASS" : "FAIL", identical ? "PASS" : "FAIL");

  const char* json_path = SkewJsonPath(argc, argv);
  if (json_path != nullptr) {
    bench::JsonWriter j;
    j.BeginObject();
    j.Key("bench");
    j.String("exp14_tenants_skew");
    j.Key("scale");
    j.Number(static_cast<uint64_t>(bench::Scale()));
    j.Key("tenants");
    j.Number(static_cast<uint64_t>(kSkewTenants));
    j.Key("pool_threads");
    j.Number(static_cast<uint64_t>(4));
    j.Key("queries_per_client");
    j.Number(static_cast<uint64_t>(kSkewQueriesPerClient));
    j.Key("phases");
    j.BeginArray();
    for (const SkewPhase& p : phases) {
      j.BeginObject();
      j.Key("phase");
      j.String(p.name);
      j.Key("clients_per_tenant");
      j.BeginArray();
      for (int c : p.clients) j.Number(static_cast<uint64_t>(c));
      j.EndArray();
      j.Key("queries");
      j.Number(p.queries);
      j.Key("seconds");
      j.Number(p.seconds);
      j.Key("light_p50_ms");
      j.Number(p.light_p50_ms);
      j.Key("light_p99_ms");
      j.Number(p.light_p99_ms);
      j.Key("heavy_p99_ms");
      j.Number(p.heavy_p99_ms);
      j.Key("identical");
      j.Bool(p.identical);
      j.EndObject();
    }
    j.EndArray();
    j.Key("gate");
    j.BeginObject();
    j.Key("light_p99_ratio");
    j.Number(ratio);
    j.Key("max_light_p99_ms");
    j.Number(cap_ms);
    j.Key("cap_pass");
    j.Bool(cap_pass);
    j.Key("identical");
    j.Bool(identical);
    j.EndObject();
    j.EndObject();
    bench::WriteFileOrDie(json_path, j.str());
  }
  return cap_pass && identical;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Exp 14: TenantRegistry, 1/4/16 tenants x concurrent clients",
      "extension beyond the paper (single-tenant deployment model)");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  const std::vector<Query> queries = TenantQueries();
  const double min_qps =
      std::getenv("CONCEALER_EXP14_MIN_QPS") != nullptr
          ? std::atof(std::getenv("CONCEALER_EXP14_MIN_QPS"))
          : 1.0;

  // --- Per-tenant pipelines (encrypted once, shared by both sweeps) -----
  std::fprintf(stderr, "[bench] encrypting %d tenants...\n", kMaxTenants);
  std::vector<TenantData> tenants;
  for (int i = 0; i < kMaxTenants; ++i) {
    auto t = MakeTenantData(i);
    if (!t.ok()) {
      std::fprintf(stderr, "tenant setup failed: %s\n",
                   t.status().ToString().c_str());
      return 1;
    }
    tenants.push_back(std::move(*t));
  }

  // Dedicated single-tenant references.
  std::vector<std::vector<Bytes>> expected(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    auto want = DedicatedAnswers(tenants[i], queries);
    if (!want.ok()) {
      std::fprintf(stderr, "dedicated run failed: %s\n",
                   want.status().ToString().c_str());
      return 1;
    }
    expected[i] = std::move(*want);
  }

  // One registry holding all 16 tenants; sweeps target prefixes of it.
  const std::string root = bench::MakeTempDir("concealer-exp14");
  if (root.empty()) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  std::vector<SweepRow> rows;
  bool all_identical = true;
  double worst_qps = -1;
  {
    TenantRegistryOptions options;
    options.root_dir = root;
    options.pool_threads = 8;
    options.service.max_inflight = 64;
    TenantRegistry registry(options);
    std::vector<std::string> tokens;
    for (const TenantData& t : tenants) {
      Status st = registry.CreateTenant(t.id, t.config, t.dp->shared_secret());
      if (st.ok()) st = registry.LoadRegistry(t.id, t.dp->EncryptedRegistry());
      for (const auto& e : t.epochs) {
        if (st.ok()) st = registry.IngestEpoch(t.id, e);
      }
      StatusOr<std::string> token = registry.OpenSession(t.id, "alice", t.proof);
      if (st.ok() && !token.ok()) st = token.status();
      if (!st.ok()) {
        std::fprintf(stderr, "tenant %s provisioning failed: %s\n",
                     t.id.c_str(), st.ToString().c_str());
        return 1;
      }
      tokens.push_back(*token);
    }

    std::printf("%8s %8s %10s %10s %10s %10s\n", "tenants", "clients",
                "queries", "wall(s)", "agg-qps", "identical");
    for (int num_tenants : {1, 4, 16}) {
      const int clients = num_tenants * kClientsPerTenant;
      std::vector<int> mismatches(clients, 0);
      Timer timer;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const int tenant = c % num_tenants;
          for (int i = 0; i < kQueriesPerClient; ++i) {
            const size_t qi = (c + i) % queries.size();
            auto got = registry.Query(tenants[tenant].id, tokens[tenant],
                                      queries[qi]);
            if (!got.ok() ||
                SerializeQueryResult(*got) != expected[tenant][qi]) {
              ++mismatches[c];
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();

      SweepRow row;
      row.tenants = num_tenants;
      row.clients = clients;
      row.queries = static_cast<uint64_t>(clients) * kQueriesPerClient;
      row.seconds = timer.ElapsedSeconds();
      row.qps = row.seconds > 0 ? row.queries / row.seconds : 0;
      for (int m : mismatches) row.identical = row.identical && m == 0;
      all_identical = all_identical && row.identical;
      if (worst_qps < 0 || row.qps < worst_qps) worst_qps = row.qps;
      rows.push_back(row);
      std::printf("%8d %8d %10llu %10.3f %10.1f %10s\n", row.tenants,
                  row.clients, (unsigned long long)row.queries, row.seconds,
                  row.qps, row.identical ? "yes" : "NO");
    }
  }
  const std::string cmd = "rm -rf '" + root + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "cleanup of %s failed\n", root.c_str());
  }

  const bool skew_pass = RunSkewSweep(tenants, queries, argc, argv);

  const bool throughput_pass = worst_qps >= min_qps;
  std::printf(
      "\nisolation gate: every multi-tenant answer byte-identical to its "
      "dedicated\nsingle-tenant run: %s | aggregate throughput floor "
      "(>= %.1f q/s): %s (worst %.1f)\n",
      all_identical ? "PASS" : "FAIL", min_qps,
      throughput_pass ? "PASS" : "FAIL", worst_qps);

  // --- JSON artifact ----------------------------------------------------
  const char* json_path = bench::BenchJsonPath(argc, argv);
  if (json_path != nullptr) {
    bench::JsonWriter j;
    j.BeginObject();
    j.Key("bench");
    j.String("exp14_tenants");
    j.Key("scale");
    j.Number(static_cast<uint64_t>(bench::Scale()));
    j.Key("queries_per_client");
    j.Number(static_cast<uint64_t>(kQueriesPerClient));
    j.Key("sweep");
    j.BeginArray();
    for (const SweepRow& r : rows) {
      j.BeginObject();
      j.Key("tenants");
      j.Number(static_cast<uint64_t>(r.tenants));
      j.Key("clients");
      j.Number(static_cast<uint64_t>(r.clients));
      j.Key("queries");
      j.Number(r.queries);
      j.Key("seconds");
      j.Number(r.seconds);
      j.Key("qps");
      j.Number(r.qps);
      j.Key("identical");
      j.Bool(r.identical);
      j.EndObject();
    }
    j.EndArray();
    j.Key("gate");
    j.BeginObject();
    j.Key("isolation_identical");
    j.Bool(all_identical);
    j.Key("min_qps");
    j.Number(min_qps);
    j.Key("worst_qps");
    j.Number(worst_qps);
    j.Key("throughput_pass");
    j.Bool(throughput_pass);
    j.EndObject();
    j.EndObject();
    bench::WriteFileOrDie(json_path, j.str());
  }

  bench::PrintFooter();
  return all_identical && throughput_pass && skew_pass ? 0 : 1;
}
