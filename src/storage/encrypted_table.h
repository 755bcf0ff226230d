#ifndef CONCEALER_STORAGE_ENCRYPTED_TABLE_H_
#define CONCEALER_STORAGE_ENCRYPTED_TABLE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/bplus_tree.h"
#include "storage/storage_engine.h"

namespace concealer {

/// Cumulative access statistics observable by the (untrusted) service
/// provider — exactly the adversary's view the paper reasons about: which
/// index keys were probed and how many rows came back. Benches and security
/// tests read these to check volume-hiding claims.
struct TableStats {
  uint64_t index_probes = 0;    // Trapdoor lookups issued.
  uint64_t index_hits = 0;      // Probes that matched a row.
  uint64_t rows_fetched = 0;    // Rows returned to the enclave.
  uint64_t bytes_fetched = 0;   // Ciphertext bytes across fetched rows.
  uint64_t rows_scanned = 0;    // Rows touched by full scans (Opaque path).
  uint64_t rows_inserted = 0;
};

/// A fetched row borrowed from the table's storage engine: the id, a
/// non-owning pointer, and the engine generation at fetch time. Valid until
/// the engine's generation moves — Insert/InsertBatch (the store may
/// reallocate), Replace/Reindex of that id, and segment compaction all bump
/// it; the query path reads under the epoch-level shared lock, where none
/// of these happen.
///
/// Read through `get()`: in debug builds it asserts the borrow is still
/// valid (`stale()` is the always-available check tests use).
struct RowRef {
  uint64_t row_id = 0;
  const Row* row = nullptr;
  const StorageEngine* engine = nullptr;
  uint64_t generation = 0;
  /// Position in the FetchRefs probe batch of the key that matched this
  /// row.
  size_t probe = 0;

  /// True iff the engine has invalidated this borrow since it was handed
  /// out.
  bool stale() const {
    return engine != nullptr && generation != engine->generation();
  }
  /// Checked access: asserts freshness in debug builds.
  const Row* get() const {
    assert(!stale() && "RowRef read after invalidation");
    return row;
  }
};

/// The untrusted DBMS at the service provider: a row heap (StorageEngine,
/// the mmap-backed segment files) plus a B+-tree over the designated
/// `Index` column. Mirrors how the paper uses MySQL — the engine never
/// sees plaintext and supports only (a) bulk insertion of encrypted
/// epochs, (b) exact-match fetch by a batch of trapdoors, and (c) full
/// scans (used by the Opaque baseline).
class EncryptedTable {
 public:
  /// `num_columns` includes the index column; `index_column` is its
  /// ordinal. `engine` must not be null.
  EncryptedTable(std::string name, size_t num_columns, size_t index_column,
                 std::unique_ptr<StorageEngine> engine);

  EncryptedTable(const EncryptedTable&) = delete;
  EncryptedTable& operator=(const EncryptedTable&) = delete;

  /// Inserts one encrypted row; indexes its `index_column` value.
  Status Insert(Row row);

  /// Bulk-inserts an epoch of rows (paper Phase 1: "SP inserts the data into
  /// DBMS that creates/modifies the index").
  Status InsertBatch(std::vector<Row> rows);

  /// Zero-copy fetch: appends a RowRef for every matched index key to
  /// `out` (the enclave's trapdoors; missing keys are skipped silently — a
  /// fake-tuple trapdoor beyond the stored range simply matches nothing,
  /// and reporting which trapdoors missed would be a leak the enclave does
  /// not rely on). This is the query path's primitive: one capacity
  /// reservation, no row copies — the decrypt/verify loop reads the stored
  /// ciphertext bytes in place, straight out of the mapped segment. See
  /// RowRef for the borrow rules.
  ///
  /// The whole probe set resolves through one BPlusTree::BulkFind (a
  /// single probe is a batch of one); refs come back in `keys` order, each
  /// tagged with the position of the key that matched it (RowRef::probe).
  /// It fails closed (no refs kept, stats untouched) rather than answer
  /// short: with Corruption when an index hit names a row the engine does
  /// not hold, or with the page's error when a paged-index probe fails.
  Status FetchRefs(const Slice* keys, size_t n,
                   std::vector<RowRef>* out) const;
  Status FetchRefs(const std::vector<Bytes>& keys,
                   std::vector<RowRef>* out) const {
    const std::vector<Slice> views(keys.begin(), keys.end());
    return FetchRefs(views.data(), views.size(), out);
  }

  /// Full scan in row-id order (Opaque baseline). Visitor returns false to
  /// stop. Fails with Corruption, moving no counter, on a row id the
  /// engine does not hold (as the fetch path does): a partial scan silently
  /// answering for the whole table would be worse than no answer.
  Status Scan(const std::function<bool(const Row&)>& visitor) const;

  /// Overwrites rows in place without touching the index (the new rows must
  /// keep their index-column values).
  Status ReplaceRows(const std::vector<std::pair<uint64_t, Row>>& rows);

  /// Overwrites rows whose index-column values changed (dynamic-insertion
  /// re-encryption, paper §6 step iii): deletes the old index entries and
  /// inserts the new ones.
  Status ReindexRows(const std::vector<std::pair<uint64_t, Row>>& rows);

  // --- Index persistence ---------------------------------------------

  /// Rebuilds the B+-tree after the engine was re-opened from disk. If the
  /// engine's node file carries a fresh durable-generation stamp, the
  /// index ATTACHES instead of loading: internal levels come from the
  /// directory, leaves stay on disk, so an index larger than RAM reopens
  /// in two small reads. In every other case — an absent, stale, torn or
  /// corrupt node file — the index is rebuilt from the engine's rows by
  /// one sort of their Index values and a bottom-up BPlusTree::BulkLoad;
  /// never a wrong index. Two rows with the same Index value fail the rebuild with
  /// kInvalidArgument. Call once, before serving queries.
  Status RecoverIndex();

  /// Serializes the B+-tree's leaves into the engine's node file
  /// (crash-safe tmp+rename, stamped with durable_generation), then
  /// re-attaches the index to the new file — resident leaf memory drops to
  /// page stubs, read in place from the mapped file. The persist schedule
  /// is the service layer's (geometric in the table size).
  Status PersistPagedIndex();

  /// True when the index is currently serving leaves from the node file.
  bool paged_index() const { return index_.paged(); }

  /// Read-only view of the B+-tree (benches and tests compare it with a
  /// reference tree).
  const BPlusTree& index() const { return index_; }

  const std::string& name() const { return name_; }
  size_t num_columns() const { return num_columns_; }
  size_t index_column() const { return index_column_; }
  uint64_t num_rows() const { return store_->size(); }
  uint64_t TotalBytes() const { return store_->TotalBytes(); }

  /// The underlying row heap. Mutating through it bypasses the index —
  /// reserved for the storage-lifecycle paths (seal/compact/sync).
  StorageEngine* engine() { return store_.get(); }
  const StorageEngine& engine() const { return *store_; }

  /// Snapshot of the cumulative counters. Fetches run concurrently in the
  /// parallel query path, so reads go through the same lock the fetch paths
  /// batch their updates under.
  TableStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = TableStats();
  }

 private:
  std::string name_;
  size_t num_columns_;
  size_t index_column_;
  std::unique_ptr<StorageEngine> store_;
  BPlusTree index_;
  mutable std::mutex stats_mu_;
  mutable TableStats stats_;
};

}  // namespace concealer

#endif  // CONCEALER_STORAGE_ENCRYPTED_TABLE_H_
