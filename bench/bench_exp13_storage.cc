// Exp 13 (beyond the paper): storage-engine comparison. The paper's SP
// stores encrypted epochs in MySQL on disk; this bench compares our two
// engines — the in-memory heap and the persistent mmap segment engine —
// on ingest, warm query latency, restart recovery, and cold-vs-warm
// first-touch cost after a restart. Gates:
//   - persistence: a provider re-opened from the segment directory alone
//     answers every query byte-identically to an in-memory provider that
//     never restarted (exit code 1 on violation);
//   - performance: warm mmap query latency stays within 1.5x of the
//     in-memory engine (recorded in the JSON gate; both engines serve
//     queries from resident memory, mmap adds only the borrow
//     indirection).
//
// The restart "cold" pass comes in two variants: as-is (the segment files
// were just written, so the OS page cache still holds them — this is the
// rolling-restart case) and with posix_fadvise(POSIX_FADV_DONTNEED)
// dropping every segment file from the page cache first (the cold-machine
// case, and the honest baseline for any future prefetch work). Both are
// recorded in the JSON.
//
// JSON artifact (BENCH_storage.json in CI): per-engine ingest/query
// timings, recovery time, cold/warm ratios and the gate booleans.

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "concealer/epoch_io.h"
#include "concealer/wire.h"

using namespace concealer;

namespace {

std::string MakeBenchDir() {
  char tmpl[] = "/tmp/concealer-exp13-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return dir;
}

double MedianWarmSeconds(ServiceProvider* sp, const std::vector<Query>& qs,
                         int reps) {
  double total = 0;
  for (const Query& q : qs) total += bench::TimeQuery(sp, q, reps);
  return total / qs.size();
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Exp 13: storage engines (memory vs mmap segments)",
                     "beyond the paper; SP-side DBMS persistence");

  const bench::WifiDataset dataset = bench::MakeWifiDataset(false);
  DataProvider dp(dataset.config, Bytes(32, 0x13));
  auto epochs = dp.EncryptAll(dataset.tuples);
  if (!epochs.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 epochs.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[exp13] %zu epochs, %zu tuples\n", epochs->size(),
               dataset.tuples.size());

  std::vector<Query> queries =
      bench::RandomPointQueries(dataset, 12, /*seed=*/0x13);
  {
    auto ranged = bench::PaperQueries(dataset, 6 * 3600, 20, 2);
    queries.push_back(ranged[0]);  // Q1 range count.
  }
  const int reps = bench::Reps();

  // --- In-memory engine ---------------------------------------------------
  auto memory_sp =
      std::make_unique<ServiceProvider>(dataset.config, dp.shared_secret());
  Timer t;
  for (const auto& e : *epochs) {
    if (!memory_sp->IngestEpoch(e).ok()) return 1;
  }
  const double mem_ingest = t.ElapsedSeconds();
  const double mem_warm = MedianWarmSeconds(memory_sp.get(), queries, reps);
  std::vector<Bytes> want;
  for (const Query& q : queries) {
    auto result = memory_sp->Execute(q);
    if (!result.ok()) return 1;
    want.push_back(SerializeQueryResult(*result));
  }

  // --- Mmap segment engine ------------------------------------------------
  const std::string dir = MakeBenchDir();
  StorageOptions mmap_options;
  mmap_options.engine = StorageOptions::Engine::kMmap;
  mmap_options.dir = dir;

  double mmap_ingest = 0, mmap_warm_prerestart = 0;
  {
    auto sp = ServiceProvider::Open(dataset.config, dp.shared_secret(),
                                    mmap_options);
    if (!sp.ok()) {
      std::fprintf(stderr, "mmap open failed: %s\n",
                   sp.status().ToString().c_str());
      return 1;
    }
    t.Reset();
    for (const auto& e : *epochs) {
      if (!(*sp)->IngestEpoch(e).ok()) return 1;
    }
    mmap_ingest = t.ElapsedSeconds();
    mmap_warm_prerestart = MedianWarmSeconds(sp->get(), queries, reps);
  }  // Destroy: the restart boundary.

  // --- Restart: recovery + cold first pass + warm steady state ------------
  double recovery_seconds = 0, cold_first_pass = 0, mmap_warm = 0;
  bool persist_identical = true;
  uint64_t recovered_rows = 0;
  {
    t.Reset();
    auto sp = ServiceProvider::Open(dataset.config, dp.shared_secret(),
                                    mmap_options);
    recovery_seconds = t.ElapsedSeconds();
    if (!sp.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   sp.status().ToString().c_str());
      return 1;
    }
    recovered_rows = (*sp)->table().num_rows();

    t.Reset();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = (*sp)->Execute(queries[i]);
      if (!result.ok()) {
        std::fprintf(stderr, "query %zu failed after restart: %s\n", i,
                     result.status().ToString().c_str());
        return 1;
      }
      if (SerializeQueryResult(*result) != want[i]) {
        std::fprintf(stderr,
                     "PERSISTENCE GATE VIOLATION: query %zu diverged after "
                     "restart\n",
                     i);
        persist_identical = false;
      }
    }
    cold_first_pass = t.ElapsedSeconds() / queries.size();
    mmap_warm = MedianWarmSeconds(sp->get(), queries, reps);
  }

  // --- Restart again with the page cache dropped (true cold machine) ------
  double recovery_dropped = 0, cold_dropped_first_pass = 0;
  {
    bench::DropPageCache(dir);
    t.Reset();
    auto sp = ServiceProvider::Open(dataset.config, dp.shared_secret(),
                                    mmap_options);
    recovery_dropped = t.ElapsedSeconds();
    if (!sp.ok()) {
      std::fprintf(stderr, "cold recovery failed: %s\n",
                   sp.status().ToString().c_str());
      return 1;
    }
    t.Reset();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = (*sp)->Execute(queries[i]);
      if (!result.ok()) return 1;
      if (SerializeQueryResult(*result) != want[i]) {
        std::fprintf(stderr,
                     "PERSISTENCE GATE VIOLATION: query %zu diverged on "
                     "dropped-cache restart\n",
                     i);
        persist_identical = false;
      }
    }
    cold_dropped_first_pass = t.ElapsedSeconds() / queries.size();
  }
  std::system(("rm -rf '" + dir + "'").c_str());

  const double warm_ratio = mmap_warm / mem_warm;
  const bool warm_pass = warm_ratio <= 1.5;

  std::printf("%-22s %14s %16s %16s\n", "engine", "ingest (s)",
              "warm query (ms)", "vs memory");
  std::printf("%-22s %14.3f %16.3f %16s\n", "memory", mem_ingest,
              mem_warm * 1e3, "1.00x");
  std::printf("%-22s %14.3f %16.3f %15.2fx\n", "mmap", mmap_ingest,
              mmap_warm * 1e3, warm_ratio);
  std::printf("\nrestart: recovery %.3f s (%llu rows), cold first pass "
              "%.3f ms/query, warm %.3f ms/query (cold/warm %.2fx)\n",
              recovery_seconds,
              static_cast<unsigned long long>(recovered_rows),
              cold_first_pass * 1e3, mmap_warm * 1e3,
              mmap_warm > 0 ? cold_first_pass / mmap_warm : 0.0);
  std::printf("restart (page cache dropped): recovery %.3f s, cold first "
              "pass %.3f ms/query (vs cached-cold %.2fx)\n",
              recovery_dropped, cold_dropped_first_pass * 1e3,
              cold_first_pass > 0 ? cold_dropped_first_pass / cold_first_pass
                                  : 0.0);
  std::printf("persistence gate: %s | warm-latency gate (<=1.5x): %s\n",
              persist_identical ? "PASS (byte-identical answers)" : "FAIL",
              warm_pass ? "PASS" : "FAIL");

  if (const char* path = bench::BenchJsonPath(argc, argv)) {
    bench::JsonWriter j;
    j.BeginObject();
    j.Key("bench");
    j.String("exp13_storage");
    j.Key("scale");
    j.Number(static_cast<uint64_t>(bench::Scale()));
    j.Key("tuples");
    j.Number(static_cast<uint64_t>(dataset.tuples.size()));
    j.Key("epochs");
    j.Number(static_cast<uint64_t>(epochs->size()));
    j.Key("queries");
    j.Number(static_cast<uint64_t>(queries.size()));
    j.Key("engines");
    j.BeginArray();
    j.BeginObject();
    j.Key("name");
    j.String("memory");
    j.Key("ingest_seconds");
    j.Number(mem_ingest);
    j.Key("warm_query_ms");
    j.Number(mem_warm * 1e3);
    j.EndObject();
    j.BeginObject();
    j.Key("name");
    j.String("mmap");
    j.Key("ingest_seconds");
    j.Number(mmap_ingest);
    j.Key("warm_query_ms_prerestart");
    j.Number(mmap_warm_prerestart * 1e3);
    j.Key("recovery_seconds");
    j.Number(recovery_seconds);
    j.Key("recovered_rows");
    j.Number(recovered_rows);
    j.Key("cold_first_pass_ms");
    j.Number(cold_first_pass * 1e3);
    j.Key("recovery_dropped_cache_seconds");
    j.Number(recovery_dropped);
    j.Key("cold_dropped_cache_first_pass_ms");
    j.Number(cold_dropped_first_pass * 1e3);
    j.Key("warm_query_ms");
    j.Number(mmap_warm * 1e3);
    j.EndObject();
    j.EndArray();
    j.Key("gate");
    j.BeginObject();
    j.Key("persist_identical");
    j.Bool(persist_identical);
    j.Key("warm_ratio_vs_memory");
    j.Number(warm_ratio);
    j.Key("warm_pass");
    j.Bool(warm_pass);
    j.EndObject();
    j.EndObject();
    bench::WriteFileOrDie(path, j.str());
    std::fprintf(stderr, "[exp13] wrote %s\n", path);
  }

  bench::PrintFooter();
  return persist_identical ? 0 : 1;
}
