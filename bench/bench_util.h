#ifndef CONCEALER_BENCH_BENCH_UTIL_H_
#define CONCEALER_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/cleartext_db.h"
#include "concealer/data_provider.h"
#include "concealer/service_provider.h"
#include "concealer/types.h"
#include "workload/tpch_generator.h"
#include "workload/wifi_generator.h"

namespace concealer {
namespace bench {

/// Paper row counts are divided by CONCEALER_SCALE (default 100). All
/// other parameters (grid cell duration ≈18 min, cid density, query mixes,
/// winSecRange interval lengths) track the paper, so shapes — who wins, by
/// roughly what factor — are preserved at reduced absolute size.
uint64_t Scale();

/// Reps per timed query (default 5; CONCEALER_REPS env overrides).
int Reps();

/// Creates a fresh, empty directory `<prefix>-XXXXXX` under
/// std::filesystem::temp_directory_path(), which honours TMPDIR as the
/// library's ephemeral segment directories do. Returns "" on failure.
std::string MakeTempDir(const std::string& prefix);

/// A provider over an ephemeral segment directory, removed with it. An
/// engine that cannot be opened aborts the bench.
std::unique_ptr<ServiceProvider> MakeProvider(const ConcealerConfig& config,
                                              Bytes sk);

struct WifiDataset {
  ConcealerConfig config;
  WifiConfig wifi;
  std::vector<PlainTuple> tuples;
  std::string name;
};

/// The paper's two WiFi datasets: small = 26M rows / 44 days,
/// large = 136M rows / 202 days (row counts divided by Scale()).
WifiDataset MakeWifiDataset(bool large);

struct Pipeline {
  ConcealerConfig config;
  std::unique_ptr<DataProvider> dp;
  std::unique_ptr<ServiceProvider> sp;
  std::unique_ptr<CleartextDb> oracle;  // Indexed; null if !build_oracle.
  double encrypt_seconds = 0;
  double ingest_seconds = 0;
  uint64_t encrypted_rows = 0;
};

/// Encrypts + ingests a dataset end to end. Prints progress to stderr.
Pipeline BuildPipeline(const WifiDataset& dataset, bool build_oracle);

/// TPC-H pipeline for Exp 8 (2D or 4D index over LineItem).
struct TpchPipeline {
  ConcealerConfig config;
  std::vector<LineItem> items;
  std::unique_ptr<DataProvider> dp;
  std::unique_ptr<ServiceProvider> sp;
};
TpchPipeline BuildTpch(bool four_d);

/// Average wall-clock seconds of `reps` executions of `query`.
double TimeQuery(ServiceProvider* sp, const Query& query, int reps);
double TimeCleartext(const CleartextDb* db, const Query& query, int reps);

/// The paper's Q1-Q5 (Table 4) with the default 20-minute range starting
/// at `range_start`. Q2-Q5 "use more locations" (paper Exp 2): they take
/// `extra_locations` explicit key values.
std::vector<Query> PaperQueries(const WifiDataset& dataset,
                                uint64_t range_start, uint64_t range_minutes,
                                size_t extra_locations);

/// Deterministic point-query timestamps/locations spread over a dataset.
std::vector<Query> RandomPointQueries(const WifiDataset& dataset, int count,
                                      uint64_t seed);

void PrintHeader(const std::string& title, const std::string& paper_ref);
void PrintFooter();

/// Evicts `path` from the OS page cache: fsync first so dirty pages become
/// droppable, then posix_fadvise(POSIX_FADV_DONTNEED). The exp16 paged leg
/// drops just the index-nodes file so its cold-pass reads hit disk and its
/// timing isolates index I/O from segment faults. Best-effort: an
/// unreadable file is skipped silently.
void DropFileCache(const std::string& path);

/// Minimal JSON emitter for the bench artifacts CI uploads. Structural
/// correctness is on the caller (balanced Begin/End, keys only inside
/// objects); values are escaped. Usage:
///
///   JsonWriter j;
///   j.BeginObject();
///   j.Key("bench"); j.String("crypto_micro");
///   j.Key("results"); j.BeginArray();
///     j.BeginObject(); ... j.EndObject();
///   j.EndArray();
///   j.EndObject();
///   WriteFileOrDie(path, j.str());
class JsonWriter {
 public:
  void BeginObject() { Sep(); out_ += '{'; first_ = true; }
  void EndObject() { out_ += '}'; first_ = false; }
  void BeginArray() { Sep(); out_ += '['; first_ = true; }
  void EndArray() { out_ += ']'; first_ = false; }
  void Key(const std::string& k);
  void String(const std::string& v);
  void Number(double v);
  void Number(uint64_t v);
  void Bool(bool v);
  void Null();
  const std::string& str() const { return out_; }

 private:
  void Sep();
  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

/// Standard JSON output location for a bench binary: argv[1] if present,
/// else the CONCEALER_BENCH_JSON environment variable, else null (no JSON).
const char* BenchJsonPath(int argc, char** argv);

/// Writes `content` to `path`; aborts with a message on failure.
void WriteFileOrDie(const std::string& path, const std::string& content);

}  // namespace bench
}  // namespace concealer

#endif  // CONCEALER_BENCH_BENCH_UTIL_H_
