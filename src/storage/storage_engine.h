#ifndef CONCEALER_STORAGE_STORAGE_ENGINE_H_
#define CONCEALER_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/row.h"

namespace concealer {

class NodeStore;
class ThreadPool;

/// The row heap underneath EncryptedTable — the part of the untrusted DBMS
/// that stores the encrypted tuples. SegmentEngine (segment_engine.h) is
/// the one implementation: persistent, append-only mmap'd segment files
/// with the paged index's node file beside them; GetRef borrows point
/// straight into the mapped region. The interface stays so that a test
/// fake can wrap the engine and hide rows from the table.
///
/// Contract:
///  - Rows are addressed by dense 64-bit ids assigned by Append.
///  - GetRef borrows are invalidated by any generation() bump — Append,
///    Replace and Compact all bump it. The query path reads under the
///    epoch-level shared lock, where none of these run (RowRef carries the
///    generation for a debug-checked borrow).
///  - Mutators, SealSegment and Compact require external exclusive
///    synchronization; const reads may run concurrently with each other.
class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  /// Appends a row; returns its dense row id.
  virtual StatusOr<uint64_t> Append(Row row) = 0;

  /// Borrowed access (no copy). Returns nullptr for an out-of-range id.
  virtual const Row* GetRef(uint64_t row_id) const = 0;

  /// Overwrites an existing row (dynamic insertion re-encryption).
  virtual Status Replace(uint64_t row_id, Row row) = 0;

  virtual uint64_t size() const = 0;

  /// Total bytes across all live rows' columns (storage-size accounting for
  /// the setup-leakage experiments).
  virtual uint64_t TotalBytes() const = 0;

  /// Borrow-invalidation counter: bumped by every operation that may move
  /// or drop row memory (Append/Replace/Compact).
  virtual uint64_t generation() const = 0;

  /// Durable mutation counter: one per record written (Append, Replace,
  /// compaction rewrites) — the record count the engine recomputes from
  /// its log on restart, so it is stable across reopen and serves as the
  /// node file's freshness stamp. (generation() counts a compaction as one
  /// bump per compacted segment, not one per record it rewrites, so after
  /// a compaction it differs from the count a restart replays.)
  virtual uint64_t durable_generation() const = 0;

  /// Engine name for stats/bench output ("mmap").
  virtual const char* name() const = 0;

  /// Durability barrier (msync).
  virtual Status Sync() = 0;

  /// True when rows survive destruction of this object (false for an
  /// ephemeral directory, which is removed with the engine).
  virtual bool persistent() const = 0;

  /// The paged-index node store (the mapped B+-tree leaf-page file beside
  /// the segments). Never null. Owned by the engine and
  /// destroyed with it; EncryptedTable declares its engine before its
  /// index, so tree-held pointers never dangle.
  virtual NodeStore* node_store() = 0;

  // --- Segments ------------------------------------------------------------
  // The provider seals after each ingested epoch, so one epoch maps to a
  // contiguous segment range, which it records in the epoch's meta file
  // and checks at recovery.

  /// Number of segment files.
  virtual uint32_t NumSegments() const = 0;

  /// Seals the active segment: subsequent appends start a new segment.
  virtual Status SealSegment() = 0;

  // --- Compaction ----------------------------------------------------------
  // A Replace appends a new version of the row, so the superseded record
  // becomes dead weight in its (sealed) segment. Sustained dynamic-mode
  // churn would grow disk without bound; Compact rewrites the live records
  // of mostly-dead segments into the active segment and reclaims the rest.

  /// Record bytes superseded by later Replaces, summed over sealed
  /// segments.
  virtual uint64_t DeadBytes() const = 0;

  /// Bytes of record data currently on disk across all segments (live +
  /// dead).
  virtual uint64_t DiskBytes() const = 0;

  /// Rewrites the live records of every sealed segment whose dead-byte
  /// ratio is >= `min_dead_ratio` into the active segment, then reclaims
  /// the victim's file. Bumps generation() (outstanding borrows go stale —
  /// callers hold the exclusive epoch lock, like Replace). Returns the
  /// record bytes reclaimed.
  virtual StatusOr<uint64_t> Compact(double min_dead_ratio) = 0;
};

/// Engine settings for a ServiceProvider's table (ServiceProvider::Open)
/// or a tenant registry.
struct StorageOptions {
  /// Always kMmap: the segment engine is the only one. The field stays
  /// because the benchmark (perfbench/driver.cc) still assigns it.
  enum class Engine { kMmap };
  Engine engine = Engine::kMmap;
  /// Segment directory. Empty = an ephemeral directory the engine creates
  /// under std::filesystem::temp_directory_path() and removes on
  /// destruction. Persistence across process restarts requires an
  /// explicit dir.
  std::string dir;
  /// Capacity of one segment file. Oversized rows get a dedicated segment.
  uint64_t segment_bytes = 8ull << 20;
};

/// Opens (and, if present, recovers) the segment directory `options`
/// names, running the recovery checksum pass on `pool` (borrowed; null
/// runs it inline — see SegmentEngine::Open).
StatusOr<std::unique_ptr<StorageEngine>> MakeStorageEngine(
    const StorageOptions& options, ThreadPool* pool = nullptr);

}  // namespace concealer

#endif  // CONCEALER_STORAGE_STORAGE_ENGINE_H_
