#ifndef CONCEALER_CONCEALER_QUERY_EXECUTOR_H_
#define CONCEALER_CONCEALER_QUERY_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/striped_map.h"
#include "common/thread_pool.h"
#include "concealer/epoch_state.h"
#include "concealer/types.h"
#include "enclave/enclave.h"
#include "storage/encrypted_table.h"

namespace concealer {

/// One volume-constant retrieval unit: a set of cell-ids plus a fake-id
/// range that pads the fetch to a fixed row count. BPB bins, eBPB cell
/// covers and winSecRange intervals all reduce to this shape before hitting
/// the DBMS.
struct FetchUnit {
  std::vector<uint32_t> cell_ids;
  uint64_t fake_lo = 1;      // First fake id (1-based, matches E_k(f‖j)).
  uint64_t fake_count = 0;   // Number of fake trapdoors to issue.
  /// eBPB/winSecRange reuse the epoch's global fake pool; ids wrap modulo
  /// the pool size (BPB keeps disjoint ranges per Example 4.1 and never
  /// wraps).
  bool cycle_fakes = false;
  /// Re-encryption key version of this unit's rows (paper §6 footnote 7).
  uint64_t key_version = 0;
  /// Oblivious trapdoor-slot shape (§4.3): the planner derives it from
  /// epoch-level values, so every unit of a plan uses the same slot counts
  /// and trapdoor generation is unit-independent. It must cover the unit.
  uint32_t slots_cids = 0;      // #C_max.
  uint32_t slots_counters = 0;  // #max.
  uint32_t slots_fakes = 0;     // #f_max.
};

/// Result of fetching one unit, with enclave-side alignment of rows back to
/// cell-ids for hash-chain verification: a row aligns to the trapdoor at
/// its probe position only if its Index column equals that trapdoor.
///
/// Rows are borrowed from the table's row store (zero-copy fetch): valid
/// while the table is not ingesting or rewriting, which the epoch-level
/// locking guarantees for the lifetime of a query — static queries hold the
/// shared lock across fetch/verify/filter, and the dynamic path finishes
/// reading a unit before it rewrites that unit's rows.
struct FetchedUnit {
  std::vector<const Row*> rows;
  /// Row ids, parallel to `rows` (the §6 rewrite path writes them back).
  std::vector<uint64_t> row_ids;
  /// Real rows grouped per cell-id in counter order (chain order), with an
  /// entry for every cell-id the unit lists, empty ones included.
  std::map<uint32_t, std::vector<size_t>> real_row_of_cid;  // Index into rows.
  uint64_t trapdoors_issued = 0;
  uint64_t key_version = 0;
};

/// Cross-query enclave-work cache shared by every session of the service
/// layer: per-cell trapdoor lists, the deterministic DET ciphertexts that
/// would otherwise be recomputed by each overlapping query. The map is
/// mutex-striped, so concurrent queries from different users fill and hit
/// it safely. (Filter ciphertexts are not cached: a query derives its
/// whole filter set in one batched DET call, and caching them cost memory
/// in proportion to the queries served while saving no visible time.)
///
/// Leakage: caching changes *when* the enclave computes a ciphertext, never
/// *which* bytes leave the enclave. A trapdoor cache hit issues the exact
/// trapdoors a miss would (DET encryption is deterministic), so the DBMS —
/// the adversary's observation point — sees an access pattern independent
/// of cache state. Cache hits therefore reveal nothing beyond the paper's
/// §7 access-pattern leakage (which already exposes repeated retrieval of
/// the same bin). Oblivious (§4.3) queries bypass the cache so their
/// constant per-slot work trace is preserved. See docs/QUERY_LIFECYCLE.md.
struct EnclaveWorkCache {
  /// Lock stripes of the map.
  static constexpr size_t kShards = 64;
  /// Entry cap: long-lived services accrue epochs indefinitely, so without
  /// a cap the cache would grow monotonically; a full shard is flushed and
  /// repopulated on demand.
  static constexpr size_t kMaxEntries = 1 << 20;

  /// (epoch, key version, cell-id) -> the cell's real trapdoors
  /// E_k(cid‖1..c_tuple[cid]), in counter order. Keyed by key version, so
  /// dynamic-mode re-encryption (which bumps the version) never hits stale
  /// entries; the provider detaches the cache entirely while dynamic mode
  /// is on (ServiceProvider::set_dynamic_mode), since version bumps would
  /// otherwise pile up dead entries without bound.
  StripedMap<std::string, std::vector<Bytes>> cell_trapdoors{kShards,
                                                              kMaxEntries};

  void Clear() { cell_trapdoors.Clear(); }
};

/// Enclave-side query machinery shared by the point- and range-query paths:
/// trapdoor formulation (plain and oblivious), DBMS fetch, hash-chain
/// verification, and filtering/aggregation (plain and oblivious).
class QueryExecutor {
 public:
  /// DET filter values the enclave matches against fetched rows (Table 4):
  /// El filters map back to the key vector that produced them so grouped
  /// aggregates know each match's group. Built once per (query, epoch, key
  /// version). The lookups are views into `cts`, so a FilterSet moves but
  /// never copies.
  struct FilterSet {
    FilterSet() = default;
    FilterSet(FilterSet&&) = default;  // Deletes the copy operations.

    /// Every El then Eo filter ciphertext, stored once.
    std::vector<Bytes> cts;
    /// Distinct El filters in derivation order (the oblivious per-filter
    /// counters' order), each with its key vector.
    std::vector<std::pair<std::string_view, std::vector<uint64_t>>>
        el_ordered;
    /// El ciphertext -> its position in el_ordered.
    std::unordered_map<std::string_view, size_t> el_index;
    std::unordered_set<std::string_view> eo_set;
    bool use_el = false;
    bool use_eo = false;
  };
  /// Per-query filter cache, keyed by key version.
  using FilterCache = std::map<uint64_t, FilterSet>;

  /// Reusable per-worker scratch for the per-unit loop: one of these per
  /// ParallelFor worker slot (or one per serial loop) turns the per-row and
  /// per-trapdoor allocations into amortized reuse of the same buffers. Not
  /// thread-safe — each instance must be driven by one thread at a time,
  /// which the worker-slot ParallelFor guarantees.
  struct UnitScratch {
    /// Batched-decrypt staging: ciphertext views and plaintext buffers.
    std::vector<Slice> ct_views;
    std::vector<Bytes> pt_bufs;
    /// Batched trapdoor staging: plaintext buffers + views fed to
    /// DetCipher::EncryptBatch.
    std::vector<Bytes> plain_bufs;
    std::vector<Slice> plain_views;
    /// One unit's trapdoors in issue order (real ones cell-major in counter
    /// order, then fakes), the ones derived here, and the work-cache cell
    /// lists the rest borrow from.
    std::vector<Slice> trapdoors;
    std::vector<Bytes> derived;
    std::vector<std::shared_ptr<const std::vector<Bytes>>> borrowed;
    std::vector<RowRef> refs;
    /// Per-row flag, parallel to FetchedUnit::rows: 1 if this unit counts
    /// the row, 0 if an earlier unit of the query owns its cell.
    std::vector<uint64_t> fresh;
  };

  /// Aggregation state of one fetch unit, or merged across units/epochs.
  struct AggState {
    uint64_t count = 0;
    std::map<std::vector<uint64_t>, uint64_t> group_counts;
    uint64_t sum = 0;
    uint64_t min = std::numeric_limits<uint64_t>::max();
    uint64_t max = 0;
    uint64_t rows_fetched = 0;
    uint64_t rows_matched = 0;
    bool any_verified = false;

    /// Folds in another unit's state (sums, min, max: order-free).
    void Merge(const AggState& other);
  };

  QueryExecutor(const Enclave* enclave, const EncryptedTable* table,
                const ConcealerConfig& config)
      : enclave_(enclave), table_(table), config_(config) {}

  /// Alg. 2 Step 3 (+ §4.3 oblivious variant): formulates trapdoors for a
  /// unit, fetches its rows and row ids from the DBMS and aligns them to
  /// cell-ids. `scratch` (optional) reuses one worker's buffers across
  /// units.
  StatusOr<FetchedUnit> Fetch(const EpochState& state, const FetchUnit& unit,
                              bool oblivious,
                              UnitScratch* scratch = nullptr) const;

  /// Step 4 verification: recomputes the hash chains of every *complete*
  /// cell-id in the fetched unit and compares against the epoch's tags.
  Status Verify(const EpochState& state, const FetchedUnit& fetched) const;

  /// Step 4 filtering + aggregation into `agg`. Oblivious mode performs the
  /// §4.3 constant-trace matching and an oblivious partition before any
  /// decryption. `seen_cells` (optional) counts once the rows that several
  /// units of one query fetch (winSecRange intervals and eBPB columns share
  /// cell-ids): called in unit order, the first unit to list a (cell-id,
  /// key version) owns its rows, and later units count none of the rows
  /// they align to it (oblivious mode zeroes their flags, same work).
  Status FilterInto(const EpochState& state, const Query& query,
                    const FetchedUnit& fetched, bool oblivious,
                    AggState* agg,
                    std::unordered_set<std::string>* seen_cells = nullptr,
                    FilterCache* filter_cache = nullptr,
                    UnitScratch* scratch = nullptr) const;

  /// Runs a plan's units (Fetch, optional Verify, filter/aggregate) into
  /// `agg`, each as one task on `pool` with its own AggState. The
  /// FilterSets and each (cell-id, key version)'s owner, the first unit
  /// listing it, are settled before the fan-out; the merge folds the unit
  /// states in unit order. Answers and errors (the first failing unit's
  /// fetch, verify, filter-set build or match) are those of the serial
  /// FilterInto loop. A null pool or a single unit runs inline.
  Status ExecuteUnitsParallel(const EpochState& state, const Query& query,
                              const std::vector<FetchUnit>& units,
                              ThreadPool* pool, AggState* agg) const;

  /// Produces the final answer from merged aggregation state.
  static QueryResult Finalize(const Query& query, const AggState& agg);

  /// Attaches the cross-query work cache (null disables). Set once at
  /// service setup, before queries run concurrently; the cache itself is
  /// internally synchronized. Answers are byte-identical with or without a
  /// cache because DET encryption is deterministic.
  void set_work_cache(EnclaveWorkCache* cache) { work_cache_ = cache; }

  const ConcealerConfig& config() const { return config_; }

 private:
  /// Fills scratch->trapdoors with the unit's Step 3 trapdoors.
  Status MakeTrapdoors(const EpochState& state, const FetchUnit& unit,
                       bool oblivious, UnitScratch* scratch) const;

  StatusOr<FilterSet> BuildFilterSet(const EpochState& state,
                                     const Query& query,
                                     uint64_t key_version) const;

  /// Matches the rows flagged in scratch->fresh against `filters` and
  /// aggregates the matches into `agg`.
  Status MatchInto(const EpochState& state, const Query& query,
                   const FetchedUnit& fetched, const FilterSet& filters,
                   bool oblivious, AggState* agg, UnitScratch* scratch) const;

  const Enclave* enclave_;
  const EncryptedTable* table_;
  ConcealerConfig config_;
  EnclaveWorkCache* work_cache_ = nullptr;
};

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_QUERY_EXECUTOR_H_
