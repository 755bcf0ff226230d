#ifndef CONCEALER_CONCEALER_QUERY_EXECUTOR_H_
#define CONCEALER_CONCEALER_QUERY_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
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
  /// Oblivious trapdoor-slot shape (§4.3): the same slot counts must be
  /// used for every unit of a plan so trapdoor generation is
  /// unit-independent. 0 = derive from this unit alone.
  uint32_t slots_cids = 0;      // #C_max.
  uint32_t slots_counters = 0;  // #max.
  uint32_t slots_fakes = 0;     // #f_max.
};

/// Result of fetching one unit, with enclave-side alignment of rows back to
/// cell-ids (by matching the Index column against the issued trapdoors) for
/// hash-chain verification.
///
/// Rows are borrowed from the table's row store (zero-copy fetch): valid
/// while the table is not ingesting or rewriting, which the epoch-level
/// locking guarantees for the lifetime of a query — static queries hold the
/// shared lock across fetch/verify/filter, and the dynamic path finishes
/// reading a unit before it rewrites that unit's rows.
struct FetchedUnit {
  std::vector<const Row*> rows;
  /// Real rows grouped per cell-id in counter order (chain order).
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
  /// `max_entries` bounds the map (0 = unbounded): long-lived services
  /// accrue epochs indefinitely, so without a cap the cache would grow
  /// monotonically; a full shard is flushed and repopulated on demand.
  /// The map accounts its resident bytes (see bytes()/ReleaseBytes) so a
  /// registry can budget cache memory globally across tenants
  /// (service/cache_budget.h).
  explicit EnclaveWorkCache(size_t shards = 16, size_t max_entries = 0)
      : cell_trapdoors(shards, max_entries,
                       [](const std::vector<Bytes>& trapdoors) {
                         size_t n = trapdoors.size() * sizeof(Bytes);
                         for (const Bytes& t : trapdoors) n += t.capacity();
                         return n;
                       }) {}

  /// (epoch, key version, cell-id) -> the cell's real trapdoors
  /// E_k(cid‖1..c_tuple[cid]), in counter order. Keyed by key version, so
  /// dynamic-mode re-encryption (which bumps the version) never hits stale
  /// entries; the provider detaches the cache entirely while dynamic mode
  /// is on (ServiceProvider::set_dynamic_mode), since version bumps would
  /// otherwise pile up dead entries without bound.
  StripedMap<std::string, std::vector<Bytes>> cell_trapdoors;

  void Clear() { cell_trapdoors.Clear(); }

  /// Accounted bytes.
  size_t bytes() const { return cell_trapdoors.bytes(); }

  /// Releases at least `target` accounted bytes (or everything), coldest
  /// shards first. Safe concurrently with traffic — values handed out stay
  /// alive; future queries recompute, which is always correct (entries are
  /// keyed by epoch/key-version, so recomputation can never resurrect a
  /// stale ciphertext across key rotations). Returns the bytes released.
  size_t ReleaseBytes(size_t target) {
    return cell_trapdoors.ReleaseBytes(target);
  }
};

/// Enclave-side query machinery shared by the point- and range-query paths:
/// trapdoor formulation (plain and oblivious), DBMS fetch, hash-chain
/// verification, and filtering/aggregation (plain and oblivious).
class QueryExecutor {
 public:
  /// DET filter values the enclave string-matches against fetched rows
  /// (Table 4): El filters map back to the key vector that produced them so
  /// grouped aggregates know each match's group. Built once per
  /// (query, epoch, key version) and cached across fetch units.
  struct FilterSet {
    std::unordered_map<std::string, std::vector<uint64_t>> el_to_key;
    std::unordered_set<std::string> eo_set;
    bool use_el = false;
    bool use_eo = false;
    /// Stable filter order for the oblivious per-filter counters.
    std::vector<std::pair<std::string, std::vector<uint64_t>>> el_ordered;
  };
  /// Per-query filter cache, keyed by key version.
  using FilterCache = std::map<uint64_t, FilterSet>;

  /// Reusable per-worker scratch for the fetch/decrypt loop: one of these
  /// per ParallelFor worker slot (or one per serial loop) turns the
  /// per-row/per-trapdoor allocations into amortized reuse of the same
  /// buffers. Not thread-safe — each instance must be driven by one thread
  /// at a time, which the worker-slot ParallelFor guarantees.
  struct UnitScratch {
    /// Index-column -> row position map built per fetched unit.
    std::unordered_map<std::string, size_t> by_index;
    /// Batched-decrypt staging: ciphertext views and plaintext buffers.
    std::vector<Slice> ct_views;
    std::vector<Bytes> pt_bufs;
    /// Batched trapdoor staging: plaintext buffers + views fed to
    /// DetCipher::EncryptBatch, and ciphertext outputs for the alignment
    /// re-derivation (the cell-major trapdoor paths write straight into
    /// their result vectors instead).
    std::vector<Bytes> plain_bufs;
    std::vector<Slice> plain_views;
    std::vector<Bytes> td_bufs;
  };

  /// Running aggregation state, merged across fetch units and epochs.
  struct AggState {
    uint64_t count = 0;
    std::map<std::vector<uint64_t>, uint64_t> group_counts;
    uint64_t sum = 0;
    uint64_t min = std::numeric_limits<uint64_t>::max();
    uint64_t max = 0;
    uint64_t rows_fetched = 0;
    uint64_t rows_matched = 0;
    bool any_verified = false;
  };

  QueryExecutor(const Enclave* enclave, const EncryptedTable* table,
                const ConcealerConfig& config)
      : enclave_(enclave), table_(table), config_(config) {}

  /// Alg. 2 Step 3 (+ §4.3 oblivious variant): formulates trapdoors for a
  /// unit and fetches its rows from the DBMS. `scratch` (optional) reuses
  /// one worker's buffers across units.
  StatusOr<FetchedUnit> Fetch(const EpochState& state, const FetchUnit& unit,
                              bool oblivious,
                              UnitScratch* scratch = nullptr) const;

  /// Like Fetch but also returns row ids (dynamic-insertion rewrite path).
  StatusOr<FetchedUnit> FetchWithIds(const EpochState& state,
                                     const FetchUnit& unit, bool oblivious,
                                     std::vector<uint64_t>* row_ids,
                                     UnitScratch* scratch = nullptr) const;

  /// Step 4 verification: recomputes the hash chains of every *complete*
  /// cell-id in the fetched unit and compares against the epoch's tags.
  Status Verify(const EpochState& state, const FetchedUnit& fetched) const;

  /// Step 4 filtering + aggregation into `agg`. Oblivious mode performs the
  /// §4.3 constant-trace matching and an oblivious partition before any
  /// decryption. `seen_rows` (optional) deduplicates rows fetched by more
  /// than one unit of the same query — winSecRange intervals and eBPB
  /// columns may share cell-ids, so the same row can arrive twice; it must
  /// count once.
  Status FilterInto(const EpochState& state, const Query& query,
                    const FetchedUnit& fetched, bool oblivious,
                    AggState* agg,
                    std::unordered_set<std::string>* seen_rows = nullptr,
                    FilterCache* filter_cache = nullptr,
                    UnitScratch* scratch = nullptr) const;

  /// Runs the full per-unit loop (Fetch, optional Verify, FilterInto) for a
  /// plan's units, fanning the fetch+verify stage out across `pool`. Units
  /// are independent volume-constant retrievals, so they fetch concurrently;
  /// filtering/aggregation then merges serially in unit order so the
  /// cross-unit row dedup and the aggregation state are built exactly as the
  /// serial loop builds them — answers are byte-identical by construction.
  /// The per-key-version FilterSets are prebuilt on the pool alongside the
  /// fetches. With a null pool (or a single unit) this degenerates to the
  /// serial loop.
  Status ExecuteUnitsParallel(const EpochState& state, const Query& query,
                              const std::vector<FetchUnit>& units,
                              ThreadPool* pool, AggState* agg,
                              std::unordered_set<std::string>* seen_rows,
                              FilterCache* filter_cache) const;

  /// Produces the final answer from merged aggregation state.
  static QueryResult Finalize(const Query& query, const AggState& agg);

  /// Attaches the cross-query work cache (null disables). Set once at
  /// service setup, before queries run concurrently; the cache itself is
  /// internally synchronized. Answers are byte-identical with or without a
  /// cache because DET encryption is deterministic.
  void set_work_cache(EnclaveWorkCache* cache) { work_cache_ = cache; }

  const ConcealerConfig& config() const { return config_; }

 private:
  StatusOr<std::vector<Bytes>> MakeTrapdoors(const EpochState& state,
                                             const FetchUnit& unit,
                                             bool oblivious, uint64_t* issued,
                                             UnitScratch* scratch) const;

  StatusOr<FilterSet> BuildFilterSet(const EpochState& state,
                                     const Query& query,
                                     uint64_t key_version) const;

  const Enclave* enclave_;
  const EncryptedTable* table_;
  ConcealerConfig config_;
  EnclaveWorkCache* work_cache_ = nullptr;
};

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_QUERY_EXECUTOR_H_
