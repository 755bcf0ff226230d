#ifndef CONCEALER_STORAGE_SEGMENT_ENGINE_H_
#define CONCEALER_STORAGE_SEGMENT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/node_store.h"
#include "storage/storage_engine.h"

namespace concealer {

/// Persistent StorageEngine: append-only segment files under one directory,
/// each mmap'd into the process, holding the serialized encrypted rows in
/// the same magic/version/FNV frame the epoch shipment uses (epoch_io.h) —
/// one framed record per row version.
///
///   <dir>/seg-000000.seg   sealed (read-only map, truncated to its tail)
///   <dir>/seg-000001.seg   ...
///   <dir>/seg-00000N.seg   active (read-write map, preallocated, appended
///                          in place; the zero-filled tail marks the end)
///
/// Record body: row_id (8) | num_cols (4) | { len (4) | bytes }* — a
/// Replace appends a new version of the row id to the active segment; the
/// latest record for an id wins, which is also exactly what the recovery
/// scan replays after a restart.
///
/// Zero-copy: the per-row Row kept in memory holds *borrowed* Columns
/// pointing straight into the mapped region, so GetRef hands the
/// decrypt/verify loop the stored ciphertext in place, with no heap copies
/// of row data.
///
/// Epoch alignment: the provider calls SealSegment() after each ingested
/// epoch, so an epoch occupies a contiguous segment range (recorded in its
/// meta file). Residency is the kernel's: sealed segments stay mapped
/// read-only and page in and out like any file-backed mapping.
///
/// Thread safety: concurrent const reads are safe; Append/Replace/Seal/
/// Compact/Sync require external exclusive synchronization (the service
/// layer's epoch-level lock).
class SegmentEngine : public StorageEngine {
 public:
  struct Options {
    std::string dir;  // Created if absent. Required.
    /// Preallocated capacity of one segment file; a row larger than this
    /// gets a dedicated oversized segment.
    uint64_t segment_bytes = 8ull << 20;
    /// Ephemeral mode: unlink every file and remove the directory on
    /// destruction (a StorageOptions with an empty dir).
    bool remove_on_close = false;
  };

  /// Opens (and, if the directory already holds segments, recovers) an
  /// engine. Recovery runs in two passes. A read-only checksum pass walks
  /// every segment's frames (magic, version, length, FNV), one task per
  /// segment on `pool` (borrowed; null runs it inline). Then a serial parse
  /// pass replays the verified records in segment order without hashing
  /// them again: appends build the row table, replaces overwrite — ending
  /// with exactly the pre-crash live rows and generation(). The first
  /// failure in segment order decides the outcome: a bad frame in the
  /// final segment is a torn tail and is cut; anywhere else Open fails
  /// before any file is truncated.
  static StatusOr<std::unique_ptr<SegmentEngine>> Open(
      Options options, ThreadPool* pool = nullptr);

  ~SegmentEngine() override;

  SegmentEngine(const SegmentEngine&) = delete;
  SegmentEngine& operator=(const SegmentEngine&) = delete;

  StatusOr<uint64_t> Append(Row row) override;
  const Row* GetRef(uint64_t row_id) const override;
  Status Replace(uint64_t row_id, Row row) override;

  uint64_t size() const override { return rows_.size(); }
  uint64_t TotalBytes() const override { return total_bytes_; }
  uint64_t generation() const override { return generation_; }
  uint64_t durable_generation() const override { return records_; }
  const char* name() const override { return "mmap"; }
  bool persistent() const override { return !options_.remove_on_close; }

  uint64_t DeadBytes() const override;
  uint64_t DiskBytes() const override;

  /// Rewrites live records out of sealed segments whose dead-byte
  /// ratio is >= `min_dead_ratio`, then truncates the victim down to a
  /// small purge marker. The marker (a) keeps the segment file present so
  /// recovery's dense-numbering check still detects a genuinely missing
  /// segment as data loss, and (b) carries the purged-record count so
  /// durable_generation() — the node file's freshness stamp — replays to
  /// the same value after a restart even though the purged records are
  /// gone. Exclusive access required (bumps generation(): borrows go
  /// stale).
  StatusOr<uint64_t> Compact(double min_dead_ratio) override;

  Status Sync() override;
  uint32_t NumSegments() const override {
    return static_cast<uint32_t>(segments_.size());
  }
  Status SealSegment() override;

  /// True iff `p` points into a currently mapped segment — the test hook
  /// asserting that borrowed columns really live in the mapped region.
  bool IsMapped(const uint8_t* p) const;

  const std::string& dir() const { return options_.dir; }

  /// The paged-index node store over "<dir>/index-nodes", where the
  /// table's B+-tree pages its leaves.
  NodeStore* node_store() override { return node_store_.get(); }

 private:
  struct Segment {
    std::string path;
    int fd = -1;            // Open only while active.
    uint8_t* map = nullptr;
    size_t map_len = 0;     // Length of the mapping (file capacity).
    size_t tail = 0;        // End of the last record.
    bool sealed = false;
    /// Framed bytes of records in this segment superseded by a later
    /// Replace (the compactor's victim-selection signal).
    uint64_t dead_bytes = 0;
    /// Row ids that ever had a record written to this segment (a Replace
    /// may have moved some elsewhere since; Compact re-checks locs_).
    std::vector<uint64_t> row_ids;
  };

  /// Current record location of a live row.
  struct RowLoc {
    uint32_t seg = 0;
    uint64_t off = 0;  // Frame start within the segment.
  };

  explicit SegmentEngine(Options options) : options_(std::move(options)) {}

  /// Ensures the active segment can take `framed` more bytes; rolls to a
  /// new segment if needed.
  Status EnsureActiveCapacity(size_t framed);
  Status NewSegment(size_t min_capacity);
  /// Writes one framed row record into the active segment and parses it
  /// back into a borrowed Row. Returns the record's location.
  Status WriteRecord(uint64_t row_id, const Row& row, RowLoc* loc,
                     Row* borrowed);
  /// What the checksum pass found in one segment: the end of its last
  /// intact frame, the number of frames before that, and the status the
  /// walk stopped on (NotFound for a clean end).
  struct SegmentScan {
    size_t end = 0;
    uint64_t records = 0;
    Status stop;
  };

  /// Parses the record at (seg, *off) into (row_id, borrowed row). The
  /// frame was already checked (VerifySegment) or just written, so its
  /// body is not hashed again.
  Status ParseRecordAt(const Segment& seg, size_t* off, uint64_t* row_id,
                       Row* borrowed) const;
  /// Checksum pass over segment `index`'s frames. Reads only the mapping,
  /// so Open runs it for every segment concurrently.
  SegmentScan VerifySegment(uint32_t index) const;
  /// Replays segment `index`'s records inside `scan.end` without hashing
  /// them again, then acts on the status the scan stopped on.
  Status ReplaySegment(uint32_t index, const SegmentScan& scan);
  Status SealActiveLocked();
  /// Replaces segment `index`'s file with a purge marker recording that
  /// `purged_records` records were compacted away. Remaps the segment over
  /// the marker-only file.
  Status TombstoneSegment(uint32_t index, uint64_t purged_records);

  Options options_;
  /// Paged-index leaf pages live beside the segments.
  std::unique_ptr<NodeStore> node_store_;
  std::vector<Segment> segments_;
  std::vector<Row> rows_;      // Borrowed views into the mappings.
  std::vector<RowLoc> locs_;   // Parallel to rows_.
  std::vector<uint32_t> row_bytes_;  // Column-byte size per row.
  std::vector<uint32_t> rec_bytes_;  // Framed record size per row.
  uint64_t total_bytes_ = 0;
  uint64_t generation_ = 0;  // Borrow invalidations (see base).
  uint64_t records_ = 0;     // Records written only (durable, see base).
  /// Recovery-only: purged records announced by tombstone markers, and the
  /// row-id holes they opened that later records have not yet filled. Open
  /// fails Corruption if any hole survives the full replay.
  uint64_t replay_purged_ = 0;
  std::set<uint64_t> replay_holes_;
};

}  // namespace concealer

#endif  // CONCEALER_STORAGE_SEGMENT_ENGINE_H_
