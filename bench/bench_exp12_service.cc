// Exp 12 (implementation extension, no paper counterpart): the multi-tenant
// QueryService under concurrent clients. The paper evaluates one query at a
// time; the ROADMAP's north star is heavy traffic from many users, so this
// bench sweeps 1/4/16/64 simulated clients, each holding an authenticated
// session and firing a mixed point/range/aggregate workload at the shared
// service (sessions + cross-query enclave-work cache + admission gate).
//
// Correctness gate: every concurrent answer is byte-compared against a
// serial replay of the same query — the sweep aborts with a nonzero exit if
// any byte differs.
//
// Shape to hold: aggregate throughput (queries/s) grows with clients up to
// the hardware parallelism, then flattens (admission gate + lock
// contention); the trapdoor cache hit rate climbs as overlapping clients
// reuse trapdoor work. On a 1-core container throughput stays ~flat — the
// interesting columns there are correctness and the hit rate.
//
// JSON: pass an output path as argv[1] (or set CONCEALER_BENCH_JSON) to
// write machine-readable results; CI uploads this as an artifact.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "service/query_service.h"

using namespace concealer;

namespace {

constexpr int kMaxClients = 64;
constexpr int kQueriesPerClient = 8;

std::string UserName(int i) { return "user-" + std::to_string(i); }
Bytes UserSecret(int i) {
  const std::string s = "secret-" + std::to_string(i);
  return Bytes(s.begin(), s.end());
}

struct SweepRow {
  int clients = 0;
  uint64_t queries = 0;
  double seconds = 0;
  double qps = 0;
  double cache_hit_rate = 0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Exp 12: multi-tenant QueryService, mixed workload, 1/4/16/64 "
      "concurrent clients",
      "extension beyond the paper (single-client evaluation)");

  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  // --- Pipeline with registered users ---------------------------------
  bench::WifiDataset ds = bench::MakeWifiDataset(/*large=*/false);
  DataProvider dp(ds.config, Bytes(32, 0x77));
  for (int i = 0; i < kMaxClients; ++i) {
    const Status st = dp.RegisterUser(UserName(i), UserSecret(i), "");
    if (!st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "[bench] encrypting %zu rows...\n", ds.tuples.size());
  auto epochs = dp.EncryptAll(ds.tuples);
  if (!epochs.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 epochs.status().ToString().c_str());
    return 1;
  }

  // One injected process-wide pool instead of a per-service scheduler plus
  // a per-provider fetch pool: the same wiring the TenantRegistry uses, so
  // the scheduler fan-out and the fetch fan-out share one pool and the
  // per-pool nesting guard (common/thread_pool.h) applies uniformly.
  ThreadPool pool(8);
  QueryServiceOptions options;
  options.shared_pool = &pool;
  options.max_inflight = kMaxClients;
  QueryService service(
      std::make_unique<ServiceProvider>(ds.config, dp.shared_secret()),
      options);
  if (!service.LoadRegistry(dp.EncryptedRegistry()).ok()) return 1;
  for (const auto& e : *epochs) {
    if (!service.IngestEpoch(e).ok()) return 1;
  }

  // --- Mixed workload ---------------------------------------------------
  // Point queries plus the paper's aggregate range queries, under BPB and
  // eBPB. Q4/Q5 are individualized (observation predicates) and the bench
  // users own no observation, so they are skipped — the authorization path
  // they exercise is covered by tests/service_test.cc.
  std::vector<Query> queries = bench::RandomPointQueries(ds, 24, /*seed=*/12);
  const uint64_t range_start = 10ull * 86400 + 9 * 3600;
  for (Query q : bench::PaperQueries(ds, range_start, 20,
                                     /*extra_locations=*/20)) {
    if (!q.observation.empty()) continue;
    queries.push_back(q);
    q.method = RangeMethod::kEBPB;
    queries.push_back(q);
  }

  // Serial replay: the reference bytes every concurrent run must match.
  auto ref_token = service.OpenSession(
      UserName(0), Registry::MakeProof(UserSecret(0), UserName(0)));
  if (!ref_token.ok()) {
    std::fprintf(stderr, "open session failed: %s\n",
                 ref_token.status().ToString().c_str());
    return 1;
  }
  std::vector<Bytes> expected;
  expected.reserve(queries.size());
  for (const Query& q : queries) {
    auto got = service.Execute(*ref_token, q);
    if (!got.ok()) {
      std::fprintf(stderr, "serial replay failed: %s\n",
                   got.status().ToString().c_str());
      return 1;
    }
    expected.push_back(SerializeQueryResult(*got));
  }

  // --- Client sweep -----------------------------------------------------
  const int client_counts[] = {1, 4, 16, 64};
  std::vector<SweepRow> rows;
  bool all_identical = true;

  std::printf("%8s %10s %10s %10s %12s %10s\n", "clients", "queries",
              "wall(s)", "qps", "cache-hit%", "identical");
  for (int clients : client_counts) {
    // Each row starts cold so its hit rate measures overlap WITHIN the
    // concurrent run (clients re-using each other's work), not warm-up
    // left behind by the serial replay or earlier rows.
    service.ClearWorkCache();
    std::vector<std::string> tokens;
    for (int c = 0; c < clients; ++c) {
      auto token = service.OpenSession(
          UserName(c), Registry::MakeProof(UserSecret(c), UserName(c)));
      if (!token.ok()) {
        std::fprintf(stderr, "open session failed: %s\n",
                     token.status().ToString().c_str());
        return 1;
      }
      tokens.push_back(*token);
    }

    const auto before = service.cache_stats();
    std::vector<int> mismatches(clients, 0);
    Timer timer;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < kQueriesPerClient; ++i) {
          const size_t qi = (c + i) % queries.size();
          auto got = service.Execute(tokens[c], queries[qi]);
          if (!got.ok() || SerializeQueryResult(*got) != expected[qi]) {
            ++mismatches[c];
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    SweepRow row;
    row.clients = clients;
    row.queries = static_cast<uint64_t>(clients) * kQueriesPerClient;
    row.seconds = timer.ElapsedSeconds();
    row.qps = row.seconds > 0 ? row.queries / row.seconds : 0;
    const auto after = service.cache_stats();
    const uint64_t hits = after.trapdoor_hits - before.trapdoor_hits;
    const uint64_t misses = after.trapdoor_misses - before.trapdoor_misses;
    row.cache_hit_rate =
        hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0;
    for (int m : mismatches) row.identical = row.identical && m == 0;
    all_identical = all_identical && row.identical;
    rows.push_back(row);

    std::printf("%8d %10llu %10.3f %10.1f %11.1f%% %10s\n", row.clients,
                (unsigned long long)row.queries, row.seconds, row.qps,
                row.cache_hit_rate, row.identical ? "yes" : "NO");
  }

  std::printf(
      "\nexpected shape: qps grows with clients up to hardware parallelism "
      "then flattens;\ntrapdoor cache hit rate climbs as overlapping clients "
      "reuse trapdoor work;\nevery answer byte-identical to the serial "
      "replay (identical=yes)\n");
  uint64_t total_queries = expected.size();  // Serial replay.
  for (const SweepRow& r : rows) total_queries += r.queries;
  std::printf("sessions opened: %llu (one proof check each; %llu queries "
              "rode them)\n",
              (unsigned long long)service.sessions().authentications(),
              (unsigned long long)total_queries);

  // --- JSON artifact ----------------------------------------------------
  const char* json_path = argc > 1 ? argv[1] : std::getenv("CONCEALER_BENCH_JSON");
  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exp12_service\",\n  \"scale\": %llu,\n"
                 "  \"queries_per_client\": %d,\n  \"sweep\": [\n",
                 (unsigned long long)bench::Scale(), kQueriesPerClient);
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      std::fprintf(f,
                   "    {\"clients\": %d, \"queries\": %llu, \"seconds\": "
                   "%.6f, \"qps\": %.2f, \"cache_hit_rate\": %.4f, "
                   "\"identical\": %s}%s\n",
                   r.clients, (unsigned long long)r.queries, r.seconds, r.qps,
                   r.cache_hit_rate / 100.0, r.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote JSON results to %s\n", json_path);
  }

  bench::PrintFooter();
  return all_identical ? 0 : 1;
}
