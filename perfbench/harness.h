// The benchmark harness's pure logic: workload specs, the seeded query and
// arrival generators, the percentile rule and the volume gate. Everything
// here is deterministic and free of I/O, so harness_test.cc can pin it.
#ifndef CONCEALER_PERFBENCH_HARNESS_H_
#define CONCEALER_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "concealer/types.h"

namespace perfbench {

using concealer::Aggregate;
using concealer::Query;
using concealer::RangeMethod;

// ---------------------------------------------------------------------------
// Dataset and workload shapes.
// ---------------------------------------------------------------------------

/// 2020-09-01 00:00 UTC: day-aligned, so epoch ids are calendar days.
inline constexpr uint64_t kDatasetStart = 1598918400;
inline constexpr uint64_t kDaySeconds = 86400;
/// Collection starts at noon, so the first and the last epoch are partial
/// days and every doubling threshold of the index persistence schedule falls
/// well inside a day (README: "Collection starts at noon").
inline constexpr uint64_t kDataStart = kDatasetStart + kDaySeconds / 2;
inline constexpr uint32_t kAccessPoints = 2000;
inline constexpr uint32_t kDevices = 4000;
/// Real tuples per day (~200K over 7 days, ~800K over 28).
inline constexpr uint64_t kRowsPerDay = 28600;

/// The grid every workload shares: daily epochs, 80 time buckets per day
/// (the paper's ≈18-minute cells), 200 cell-ids per epoch, and the 49 key
/// buckets the repository's WiFi benches use. winSecRange's λ is set
/// explicitly (4 buckets, the planner's default for 80) because ShapeKey
/// groups winSecRange plans by it.
inline concealer::ConcealerConfig DatasetConfig() {
  concealer::ConcealerConfig config;
  config.key_buckets = {49};
  config.key_domains = {kAccessPoints};
  config.time_buckets = 80;
  config.num_cell_ids = 200;
  config.epoch_seconds = kDaySeconds;
  config.time_quantum = 60;
  config.make_hash_chains = true;
  config.winsec_lambda_buckets = 4;
  return config;
}

/// One entry of a query mix.
enum class QueryKind {
  kBpbPoint,        // BPB point count at one AP and minute.
  kEbpbQ1,          // Q1: count at one AP over 20 min (eBPB).
  kOwnDevice,       // Q5: the session user's device at one AP over 1 h.
  kObliviousPoint,  // Concealer+ BPB point count.
  kTopK,            // Q2: top-5 of 10 APs over 2 h (eBPB).
  kSum,             // SUM of the payload at 4 APs over 8 h (eBPB).
  kObliviousTopK,   // Concealer+ top-3 of 5 APs over 1 h (eBPB).
  kMax,             // MAX of the payload at one AP over 20 min (winSecRange).
};
const char* KindName(QueryKind kind);

struct MixEntry {
  QueryKind kind;
  uint32_t weight;  // Percent.
};

struct WorkloadSpec {
  std::string name;
  /// Days of collection from kDataStart.
  uint32_t days = 7;
  bool verify = false;
  /// Client connections of the closed loop (one thread and one session
  /// each).
  uint32_t connections = 4;
  /// Untimed closed-loop traffic before the measurement. The service's
  /// cell-trapdoor cache fills by query count, and interactive's one-cell
  /// queries need thousands to cover the 1,600 (epoch, cell-id) pairs.
  double warmup_seconds = 2;
  std::vector<MixEntry> mix;
  /// True for the ingest-and-restart workload.
  bool ingest_restart = false;
};

/// The kinds of the post-restart read-back sweep: one per plan method
/// (BPB, eBPB, winSecRange) and the Concealer+ point, each anchored on a
/// real tuple (QueryGenerator::MakeAround).
inline constexpr QueryKind kSweepKinds[] = {
    QueryKind::kBpbPoint, QueryKind::kEbpbQ1, QueryKind::kObliviousPoint,
    QueryKind::kMax};

/// End of the collection period (exclusive).
inline uint64_t DataEnd(const WorkloadSpec& spec) {
  return kDataStart + uint64_t{spec.days} * kDaySeconds;
}

/// False if `name` is not a workload.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 1]: the
/// smallest sample with at least p*n samples at or below it.
double Percentile(const std::vector<double>& sorted, double p);

/// Nearest-rank median of `v` (any order); 0 when empty.
double Median(std::vector<double> v);

/// Samples strictly above the nearest-rank p-th percentile.
uint64_t SamplesBeyond(uint64_t n, double p);

/// The highest of p50, p90, p99, p99.9 with at least ten samples beyond
/// it, or 0 when even the median has fewer.
double HighestReportablePercentile(uint64_t n);

/// Time windows for `n` samples: as many as keep at least `min_per_window`
/// samples each on average, between 1 and `max_windows`.
uint32_t WindowCount(uint64_t n, uint64_t min_per_window,
                     uint32_t max_windows);

/// One timed sample: when it happened (seconds into the phase) and its
/// value.
struct TimedSample {
  double at = 0;
  double value = 0;
};

/// Splits [0, duration) into `windows` equal windows and returns each
/// non-empty window's nearest-rank p-th percentile, in time order. Samples
/// at or past `duration` count in the last window.
std::vector<double> WindowFigures(const std::vector<TimedSample>& samples,
                                  double duration, uint32_t windows, double p);

/// The median of WindowFigures: a stall confined to one window moves one
/// window's figure, not the result.
double WindowedPercentile(const std::vector<TimedSample>& samples,
                          double duration, uint32_t windows, double p);

/// Median over `windows` equal windows of [0, duration) of completions per
/// second; completions at or past `duration` are not counted.
double WindowedRate(const std::vector<double>& completions, double duration,
                    uint32_t windows);

// ---------------------------------------------------------------------------
// Seeded generators.
// ---------------------------------------------------------------------------

/// The plaintext facts a query generator draws from: which devices were
/// seen where and when, so individualized queries hit real data.
struct Sighting {
  uint64_t ap = 0;
  uint64_t time = 0;
};

struct GeneratorContext {
  /// The collection period [data_start, data_end) queries draw times from.
  uint64_t data_start = kDataStart;
  uint64_t data_end = kDataStart;
  /// Grid key column of each AP (the DP's keyed hash, ColumnsOfAccessPoints
  /// in driver.cc): multi-AP queries draw APs from distinct columns, so the
  /// number of key values is the number of columns a plan fetches.
  std::vector<uint32_t> column_of_ap;
  /// Per connection: the device its session user owns and where it was.
  std::vector<std::string> own_device;
  std::vector<std::vector<Sighting>> own_sightings;
};

/// Draws the workload's query mix for one connection and phase. The same
/// (seed, connection, phase) always yields the same sequence. Kinds come
/// from a shuffled deck that holds the mix's exact shares, so every 20
/// queries carry them exactly; the query parameters are random. With iid
/// kinds, 160 queries of the analytic mix drew 21% SUM against its 30%.
class QueryGenerator {
 public:
  QueryGenerator(const WorkloadSpec& spec, const GeneratorContext* context,
                 uint64_t seed, uint32_t connection, uint32_t phase);

  struct Planned {
    QueryKind kind;
    Query query;
  };
  Planned Next();
  /// A query of `kind` with random parameters.
  Planned Make(QueryKind kind);
  /// A query of single-AP `kind` (kBpbPoint, kEbpbQ1, kObliviousPoint or
  /// kMax) at `at.ap` whose window covers `at.time`, so a real tuple
  /// anchors a non-empty answer.
  Planned MakeAround(QueryKind kind, const Sighting& at);

 private:
  Planned Build(QueryKind kind, const Sighting* at);
  uint64_t DrawStart(uint64_t length_seconds);
  /// Sets a `seconds`-long window on `q` that starts on a minute, covers
  /// `time` and stays inside the collection period.
  void WindowAround(uint64_t time, uint64_t seconds, Query* q);
  std::vector<std::vector<uint64_t>> DistinctColumnKeys(size_t n);
  void ShuffleDeck();

  const WorkloadSpec* spec_;
  const GeneratorContext* context_;
  uint32_t connection_;
  concealer::Rng rng_;
  std::vector<QueryKind> deck_;
  size_t deck_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Volume gate.
// ---------------------------------------------------------------------------

/// The public plan shape of a query: method, Concealer+ flag, number of
/// key values, and per touched epoch its id and window — the bucket count
/// for BPB/eBPB, the λ-interval count for winSecRange. Within one shape
/// the adversary must see the same volume. `config.winsec_lambda_buckets`
/// must be set (DatasetConfig does): with 0 the planner applies a default
/// this function does not repeat.
std::string ShapeKey(const Query& query,
                     const concealer::ConcealerConfig& config);

/// False if `result` misreports verification: a query that asked for it
/// and fetched rows must come back verified, and one that did not ask must
/// not. Counts and volumes alone cannot tell a run that skipped Verify.
bool VerifiedAsAsked(const Query& query, const concealer::QueryResult& result);

/// Records one observed volume per shape and flags any shape whose
/// volumes differ. Not thread-safe; callers merge per thread.
class VolumeGate {
 public:
  /// Returns false (and remembers the violation) if `shape` was seen
  /// before with a different `volume`.
  bool Observe(const std::string& shape, uint64_t volume);
  size_t shapes() const { return volume_.size(); }
  uint64_t observations() const { return observations_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  std::map<std::string, uint64_t> volume_;
  uint64_t observations_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace perfbench

#endif  // CONCEALER_PERFBENCH_HARNESS_H_
