#ifndef CONCEALER_CONCEALER_TYPES_H_
#define CONCEALER_CONCEALER_TYPES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/slice.h"
#include "storage/row.h"

namespace concealer {

/// Cell-id value reserved for fake tuples: the paper's identifier `f`
/// (Algorithm 1 line 14), "known to only DP" — here it is simply a value no
/// real cell is ever assigned. Fake Index entries are E_k(f ‖ j).
inline constexpr uint32_t kFakeCellId = 0xffffffffu;

/// One cleartext spatial time-series tuple ⟨l, t, o⟩ generalized to multiple
/// key attributes so the same pipeline serves the WiFi schema (keys = {l})
/// and TPC-H (keys = {OK, LN} or {OK, PK, SK, LN}); paper §3 notes the grid
/// "can be used for more than two columns trivially".
struct PlainTuple {
  /// Index-attribute values other than time (location id; TPC-H key attrs).
  std::vector<uint64_t> keys;
  /// Event timestamp in seconds. For non-time-series data (TPC-H), 0 —
  /// the grid then has no time axis.
  uint64_t time = 0;
  /// Observation value (device id for WiFi). Participates in the Eo filter
  /// column; may be empty.
  std::string observation;
  /// Remaining payload attributes, carried inside Er only.
  std::string payload;
};

/// Grid/epoch parameters fixed between DP and the enclave at setup time.
struct ConcealerConfig {
  /// Grid extent per key attribute: key i hashes into [0, key_buckets[i])
  /// — the x axis of Algorithm 1's x-by-y grid (Stage 1, line 8).
  std::vector<uint32_t> key_buckets;
  /// Domain size per key attribute (values are 0..domain-1). The adversary
  /// model assumes attribute domains are public (§2.1); the enclave uses
  /// them to enumerate filters for whole-domain queries (Q2-Q4).
  std::vector<uint64_t> key_domains;
  /// Number of time subintervals per epoch (the grid's y axis, Algorithm 1
  /// Stage 1). 0 for non-time-series data (no time axis).
  uint32_t time_buckets = 0;
  /// Number of distinct cell-ids u allocated over the grid (paper §3 /
  /// Exp 7's tuning knob); must satisfy 0 < u <= total cells.
  uint32_t num_cell_ids = 0;
  /// Epoch length in seconds — the paper's data-collection period T
  /// (§2.2 Phase 1; a day in Exp 1-4, an hour in §6's dynamic rounds).
  /// Ignored when time_buckets == 0.
  uint64_t epoch_seconds = 3600;
  /// Timestamps are quantized to this granularity inside the El/Eo filter
  /// columns so the enclave can enumerate filter values for a time range
  /// (Table 4's `E_k(l‖t_1) ... E_k(l‖t_x)`); the exact timestamp is
  /// preserved inside Er. Must divide epoch_seconds evenly into
  /// time_buckets-aligned steps.
  uint64_t time_quantum = 60;
  /// If true, Algorithm 1 adds one fake tuple per real tuple (fake method
  /// (i)); otherwise DP simulates bin creation and sends only the fakes the
  /// bins need (method (ii)). Both bounded by Theorem 4.1.
  bool equal_fake_tuples = false;
  /// Emit per-cell-id hash chains + encrypted verifiable tags (optional
  /// integrity step of Algorithm 1).
  bool make_hash_chains = true;
  /// winSecRange interval length in time buckets (paper §5.3's λ expressed
  /// in grid subintervals). 0 = max(1, time_buckets / 20).
  uint32_t winsec_lambda_buckets = 0;
  /// Use best-fit-decreasing instead of the paper's first-fit-decreasing
  /// bin packing (§4.1 uses FFD for its half-full guarantee; BFD is the
  /// ablation in bench_ablation).
  bool use_bfd = false;
};

/// The two vectors DP shares per epoch (paper Table 2b):
///  - cell_id[x*y]: cell-id assigned to each grid cell, and
///  - per-cell tuple counts (eBPB needs per-cell counts; BPB aggregates
///    them into c_tuple[u] per cell-id).
struct GridLayout {
  std::vector<uint32_t> cell_of_cell_index;  // cell index -> cell-id.
  std::vector<uint32_t> count_per_cell;      // cell index -> #tuples.
  std::vector<uint32_t> count_per_cell_id;   // cell-id    -> #tuples (c_tuple).
};

/// Everything DP ships to SP for one epoch (Algorithm 1 output, line 25):
/// permuted real+fake rows, the two encrypted vectors, and encrypted
/// verifiable tags (one chain per cell-id and chained column).
///
/// Adding a field? Wire it through SerializeEpoch/DeserializeEpoch AND
/// StripRows in epoch_io.cc (a static_assert there trips otherwise) so it
/// survives the epoch-meta sidecar and restart recovery.
struct EncryptedEpoch {
  uint64_t epoch_id = 0;
  uint64_t epoch_start = 0;  // Seconds; epoch covers [start, start+len).
  std::vector<Row> rows;
  Bytes enc_grid_layout;     // End(serialized GridLayout).
  /// End(serialized map cell_id -> final chain digests for El/Eo/Er).
  Bytes enc_verification_tags;
  uint64_t num_real_tuples = 0;
  uint64_t num_fake_tuples = 0;
};

/// Row column ordinals of the encrypted relation (paper Table 2c).
enum RowColumn : size_t {
  kColEl = 0,    // E_k(l ‖ t)      — location/key filter.
  kColEo = 1,    // E_k(o ‖ t)      — observation filter.
  kColEr = 2,    // E_k(l ‖ t ‖ o ‖ payload) — full tuple.
  kColIndex = 3, // E_k(cid ‖ ctr)  — DBMS-indexed column.
  kNumRowColumns = 4,
};

/// Aggregations supported by the query surface (paper §2.2 Phase 2 and
/// Table 4).
enum class Aggregate {
  kCount,          // Q1/Q5: number of matching tuples.
  kTopK,           // Q2: keys with the k highest counts.
  kThresholdKeys,  // Q3: keys with count >= threshold.
  kKeysWithObservation,  // Q4: keys where `observation` appears.
  kSum,            // TPC-H: sum of the numeric payload value.
  kMin,            // TPC-H.
  kMax,            // TPC-H.
};

/// Range execution strategies (paper §4.2, §5.2, §5.3).
enum class RangeMethod {
  kBPB,          // Bin-packing-based; ranges become many point queries.
  kEBPB,         // Enhanced BPB: fetch the range's cells, padded to top-l.
  kWinSecRange,  // Fixed-length intervals; sliding-window attack immune.
};

/// A user query (paper §2.2, Phase 2).
struct Query {
  Aggregate agg = Aggregate::kCount;
  /// Key-attribute predicate. Empty = all keys in the domain (Q2-Q4 iterate
  /// the location domain). For multi-key schemas each entry is a full key
  /// coordinate vector.
  std::vector<std::vector<uint64_t>> key_values;
  /// Time predicate [time_lo, time_hi], inclusive, in seconds. For a point
  /// query set both to the same quantized timestamp. Ignored when the grid
  /// has no time axis.
  uint64_t time_lo = 0;
  uint64_t time_hi = 0;
  /// Observation predicate for Q4/Q5; empty = no observation constraint.
  std::string observation;
  uint32_t k = 3;           // kTopK.
  uint32_t threshold = 10;  // kThresholdKeys.
  RangeMethod method = RangeMethod::kBPB;
  /// Concealer+ (oblivious trapdoors + oblivious filtering, §4.3).
  bool oblivious = false;
  /// Verify hash chains before answering (§4.2 Step 4, optional).
  bool verify = false;
};

/// Row-id span one ingested epoch occupies in the service provider's table
/// (setup metadata the adversary model treats as public; the Opaque
/// baseline scans it).
struct EpochRowRange {
  uint64_t epoch_id = 0;
  uint64_t epoch_start = 0;
  uint64_t first_row_id = 0;
  uint64_t num_rows = 0;
};

/// Query answer produced inside the enclave and returned (encrypted) to the
/// user.
struct QueryResult {
  uint64_t count = 0;                  // kCount / kSum / kMin / kMax value.
  /// Grouped per-key results for Q2-Q4: key coordinates -> count.
  std::vector<std::pair<std::vector<uint64_t>, uint64_t>> keyed_counts;
  /// Execution telemetry (rows the enclave pulled from the DBMS, rows that
  /// actually matched) — used by benches; *not* visible to SP in the model.
  uint64_t rows_fetched = 0;
  uint64_t rows_matched = 0;
  bool verified = false;
};

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_TYPES_H_
