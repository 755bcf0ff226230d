#include "storage/segment_engine.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/coding.h"
#include "common/thread_pool.h"
#include "concealer/epoch_io.h"
#include "storage/fault_fs.h"

namespace concealer {

namespace {

constexpr char kSegPrefix[] = "seg-";
constexpr char kSegSuffix[] = ".seg";

/// Sentinel row id of a compaction purge marker: the only record left in a
/// compacted segment's file. Its single 8-byte column holds the number of
/// records the compaction removed, so the restart replay can keep
/// durable_generation() — the node file's freshness stamp — identical to
/// the pre-restart value even though the purged records are gone. Real row
/// ids are dense-from-zero, so the sentinel can never collide.
constexpr uint64_t kPurgeMarkerRowId = ~0ull;

std::string SegmentPath(const std::string& dir, uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06u.seg", index);
  return dir + "/" + name;
}

size_t PageRoundUp(size_t n) {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return (n + page - 1) / page * page;
}

Status MkdirRecursive(const std::string& dir) {
  std::string path;
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    path = dir.substr(0, i == dir.size() ? i : i + 1);
    if (path.empty() || path == "/") continue;
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir failed: " + path + ": " +
                              std::strerror(errno));
    }
  }
  return Status::OK();
}

// Serialized record body for one row version.
void SerializeRowBody(uint64_t row_id, const Row& row, Bytes* body) {
  body->clear();
  size_t need = 8 + 4;
  for (const Column& col : row.columns) need += 4 + col.size();
  body->reserve(need);
  PutFixed64(body, row_id);
  PutFixed32(body, static_cast<uint32_t>(row.columns.size()));
  for (const Column& col : row.columns) PutLengthPrefixed(body, col);
}

}  // namespace

StatusOr<std::unique_ptr<SegmentEngine>> SegmentEngine::Open(
    Options options, ThreadPool* pool) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("segment engine needs a directory");
  }
  if (options.segment_bytes == 0) options.segment_bytes = 8ull << 20;
  CONCEALER_RETURN_IF_ERROR(MkdirRecursive(options.dir));

  std::unique_ptr<SegmentEngine> engine(new SegmentEngine(std::move(options)));
  engine->node_store_ =
      std::make_unique<NodeStore>(engine->options_.dir + "/index-nodes");

  // Collect existing segment files and recover them in index order.
  std::vector<uint32_t> indexes;
  DIR* d = ::opendir(engine->options_.dir.c_str());
  if (d == nullptr) {
    return Status::Internal("cannot open segment dir: " + engine->options_.dir);
  }
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() != 14 || name.compare(0, 4, kSegPrefix) != 0 ||
        name.compare(10, 4, kSegSuffix) != 0) {
      continue;
    }
    indexes.push_back(
        static_cast<uint32_t>(std::strtoul(name.c_str() + 4, nullptr, 10)));
  }
  ::closedir(d);
  std::sort(indexes.begin(), indexes.end());
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (indexes[i] != i) {
      return Status::Corruption("segment files not dense: missing seg " +
                                std::to_string(i));
    }
  }

  // Map every recovered segment BEFORE replaying any: the torn-tail
  // allowance in ReplaySegment keys off "is this the final segment", which
  // is only meaningful once segments_ holds the full recovered set.
  // (Mapping and replaying one segment per loop iteration would make every
  // segment look final in turn, so corruption anywhere would be mistaken
  // for a torn tail.) It also lets the checksum pass below see them all.
  for (uint32_t index = 0; index < indexes.size(); ++index) {
    Segment seg;
    seg.path = SegmentPath(engine->options_.dir, index);
    const int fd = ::open(seg.path.c_str(), O_RDONLY);
    if (fd < 0) return Status::Internal("cannot open " + seg.path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Internal("cannot stat " + seg.path);
    }
    seg.map_len = static_cast<size_t>(st.st_size);
    if (seg.map_len > 0) {
      void* map =
          ::mmap(nullptr, seg.map_len, PROT_READ, MAP_SHARED, fd, 0);
      if (map == MAP_FAILED) {
        ::close(fd);
        return Status::Internal("mmap failed for " + seg.path);
      }
      seg.map = static_cast<uint8_t*>(map);
    }
    ::close(fd);
    // Every recovered segment is treated as sealed: new appends start a
    // fresh segment, so the next epoch starts a fresh segment range after
    // a restart too.
    seg.sealed = true;
    engine->segments_.push_back(std::move(seg));
  }
  // Checksum pass on the pool, then the parse pass in segment order. Only
  // hashing fans out: building rows on several threads at once makes them
  // contend on heap growth, which costs more than it saves.
  std::vector<SegmentScan> scans(indexes.size());
  const auto verify = [&](size_t i) {
    scans[i] = engine->VerifySegment(static_cast<uint32_t>(i));
  };
  if (pool != nullptr) {
    pool->ParallelFor(scans.size(), verify);
  } else {
    for (size_t i = 0; i < scans.size(); ++i) verify(i);
  }
  uint64_t records = 0;
  for (const SegmentScan& scan : scans) records += scan.records;
  engine->rows_.reserve(records);
  engine->locs_.reserve(records);
  engine->row_bytes_.reserve(records);
  engine->rec_bytes_.reserve(records);
  for (uint32_t index = 0; index < indexes.size(); ++index) {
    CONCEALER_RETURN_IF_ERROR(engine->ReplaySegment(index, scans[index]));
  }
  if (!engine->replay_holes_.empty()) {
    return Status::Corruption(
        "purged row never rewritten: row " +
        std::to_string(*engine->replay_holes_.begin()));
  }
  // Only now — with the whole log validated — normalize files to the
  // sealed-segment invariant (file size == tail): a crash before
  // SealActiveLocked leaves the preallocated zero tail behind, and a torn
  // final record is cut here too. Deferring this ftruncate until every
  // segment replayed cleanly means corruption anywhere aborts Open above
  // without destroying a single committed (msync'd) byte.
  for (Segment& recovered : engine->segments_) {
    if (recovered.map_len <= recovered.tail) continue;
    const int wfd = ::open(recovered.path.c_str(), O_RDWR);
    if (wfd < 0 ||
        ::ftruncate(wfd, static_cast<off_t>(recovered.tail)) != 0) {
      if (wfd >= 0) ::close(wfd);
      return Status::Internal("cannot truncate recovered segment " +
                              recovered.path);
    }
    ::close(wfd);
    const size_t keep = PageRoundUp(recovered.tail);
    if (keep < recovered.map_len) {
      ::munmap(recovered.map + keep, recovered.map_len - keep);
      recovered.map_len = keep;
      if (keep == 0) recovered.map = nullptr;
    }
  }
  return engine;
}

SegmentEngine::~SegmentEngine() {
  (void)SealActiveLocked();  // Truncates the active file to its tail.
  for (Segment& seg : segments_) {
    if (seg.map != nullptr) ::munmap(seg.map, seg.map_len);
    if (seg.fd >= 0) ::close(seg.fd);
    if (options_.remove_on_close) ::unlink(seg.path.c_str());
  }
  if (options_.remove_on_close) {
    if (node_store_ != nullptr) {
      node_store_->Close();
      ::unlink(node_store_->path().c_str());
      ::unlink((node_store_->path() + ".tmp").c_str());
    }
    ::rmdir(options_.dir.c_str());
  }
}

Status SegmentEngine::NewSegment(size_t min_capacity) {
  const uint32_t index = static_cast<uint32_t>(segments_.size());
  Segment seg;
  seg.path = SegmentPath(options_.dir, index);
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (seg.fd < 0) {
    return Status::Internal("cannot create segment " + seg.path + ": " +
                            std::strerror(errno));
  }
  seg.map_len = PageRoundUp(std::max<size_t>(options_.segment_bytes,
                                             min_capacity));
  if (fault_fs::Ftruncate(seg.fd, static_cast<off_t>(seg.map_len)) != 0) {
    ::close(seg.fd);
    return Status::Internal("cannot preallocate " + seg.path);
  }
  void* map = ::mmap(nullptr, seg.map_len, PROT_READ | PROT_WRITE, MAP_SHARED,
                     seg.fd, 0);
  if (map == MAP_FAILED) {
    ::close(seg.fd);
    return Status::Internal("mmap failed for " + seg.path);
  }
  seg.map = static_cast<uint8_t*>(map);
  segments_.push_back(std::move(seg));
  return Status::OK();
}

Status SegmentEngine::EnsureActiveCapacity(size_t framed) {
  if (!segments_.empty() && !segments_.back().sealed) {
    Segment& active = segments_.back();
    if (active.tail + framed <= active.map_len) return Status::OK();
    CONCEALER_RETURN_IF_ERROR(SealActiveLocked());
  }
  return NewSegment(framed);
}

Status SegmentEngine::WriteRecord(uint64_t row_id, const Row& row, RowLoc* loc,
                                  Row* borrowed) {
  Bytes body;
  SerializeRowBody(row_id, row, &body);
  const size_t framed = FramedSize(body.size());
  CONCEALER_RETURN_IF_ERROR(EnsureActiveCapacity(framed));
  Segment& active = segments_.back();
  WriteFramedRecordTo(active.map + active.tail, body);
  loc->seg = static_cast<uint32_t>(segments_.size() - 1);
  loc->off = active.tail;
  size_t off = active.tail;
  uint64_t parsed_id = 0;
  CONCEALER_RETURN_IF_ERROR(ParseRecordAt(active, &off, &parsed_id, borrowed));
  active.tail = off;
  active.row_ids.push_back(row_id);
  return Status::OK();
}

Status SegmentEngine::ParseRecordAt(const Segment& seg, size_t* off,
                                    uint64_t* row_id, Row* borrowed) const {
  StatusOr<Slice> body =
      ReadVerifiedFramedRecord(Slice(seg.map, seg.map_len), off);
  if (!body.ok()) return body.status();
  if (body->size() < 12) return Status::Corruption("row record truncated");
  *row_id = DecodeFixed64(body->data());
  const uint32_t cols = DecodeFixed32(body->data() + 8);
  if (cols > 64) return Status::Corruption("implausible column count");
  size_t boff = 12;
  borrowed->columns.clear();
  borrowed->columns.reserve(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    Slice col;
    if (!GetLengthPrefixedView(*body, &boff, &col)) {
      return Status::Corruption("row record truncated in columns");
    }
    borrowed->columns.push_back(Column::Borrowed(col.data(), col.size()));
  }
  if (boff != body->size()) {
    return Status::Corruption("trailing bytes in row record");
  }
  return Status::OK();
}

SegmentEngine::SegmentScan SegmentEngine::VerifySegment(
    uint32_t index) const {
  const Segment& seg = segments_[index];
  const Slice data(seg.map, seg.map_len);
  SegmentScan scan;
  for (;;) {
    StatusOr<Slice> body = ReadFramedRecord(data, &scan.end);
    if (!body.ok()) {
      scan.stop = body.status();
      return scan;
    }
    ++scan.records;
  }
}

Status SegmentEngine::ReplaySegment(uint32_t index, const SegmentScan& scan) {
  Segment& seg = segments_[index];
  // What ends the replay: the scan's stop status (NotFound = a clean
  // zero-filled tail or the end of the file), unless a frame fails to
  // parse first.
  Status stop = scan.stop;
  size_t off = 0;
  while (off < scan.end) {
    const size_t record_off = off;
    uint64_t row_id = 0;
    Row borrowed;
    Status st = ParseRecordAt(seg, &off, &row_id, &borrowed);
    if (!st.ok()) {
      stop = st;
      off = record_off;
      break;
    }
    if (row_id == kPurgeMarkerRowId) {
      // Compaction purge marker: re-count the purged records into the
      // durable generation; there are no row bytes to restore.
      if (borrowed.columns.size() != 1 || borrowed.columns[0].size() != 8) {
        return Status::Corruption("malformed purge marker in " + seg.path);
      }
      const uint64_t purged = DecodeFixed64(borrowed.columns[0].data());
      records_ += purged;
      generation_ += purged;
      replay_purged_ += purged;
      continue;
    }
    const uint32_t bytes = static_cast<uint32_t>(RowByteSize(borrowed));
    const uint32_t framed = static_cast<uint32_t>(off - record_off);
    // A compacted (tombstoned) segment no longer carries the records that
    // first introduced its row ids — their latest copies live in LATER
    // segments (every Replace and every compaction rewrite lands in the
    // then-active segment, which has a higher index than any sealed
    // victim). Bridge the id gap with holes that the later copies MUST
    // fill; Open fails if any hole survives the full replay.
    while (row_id > rows_.size()) {
      if (replay_purged_ == 0) {
        return Status::Corruption("row record out of append order");
      }
      replay_holes_.insert(rows_.size());
      rows_.push_back(Row{});
      locs_.push_back(RowLoc{index, record_off});
      row_bytes_.push_back(0);
      rec_bytes_.push_back(0);
    }
    if (row_id == rows_.size()) {
      rows_.push_back(std::move(borrowed));
      locs_.push_back(RowLoc{index, record_off});
      row_bytes_.push_back(bytes);
      rec_bytes_.push_back(framed);
      total_bytes_ += bytes;
    } else if (row_id < rows_.size()) {
      if (!replay_holes_.empty()) replay_holes_.erase(row_id);
      // This record supersedes an earlier one — that one is dead weight in
      // its segment now (compaction victim-selection signal).
      segments_[locs_[row_id].seg].dead_bytes += rec_bytes_[row_id];
      total_bytes_ -= row_bytes_[row_id];
      total_bytes_ += bytes;
      row_bytes_[row_id] = bytes;
      rec_bytes_[row_id] = framed;
      rows_[row_id] = std::move(borrowed);
      locs_[row_id] = RowLoc{index, record_off};
    } else {
      return Status::Corruption("row record out of append order");
    }
    seg.row_ids.push_back(row_id);
    ++generation_;
    ++records_;
  }
  if (!stop.IsNotFound()) {
    if (index + 1 != segments_.size()) return stop;
    // A torn final write (crash mid-append) truncates the log here;
    // anything corrupt before the last segment is real damage. Open maps
    // the full recovered set before replaying any segment, so this
    // condition singles out the true final segment only.
    std::fprintf(stderr,
                 "[segment_engine] %s: truncating at torn record "
                 "(offset %zu): %s\n",
                 seg.path.c_str(), off, stop.ToString().c_str());
  }
  seg.tail = off;
  return Status::OK();
}

StatusOr<uint64_t> SegmentEngine::Append(Row row) {
  const uint64_t row_id = rows_.size();
  RowLoc loc;
  Row borrowed;
  CONCEALER_RETURN_IF_ERROR(WriteRecord(row_id, row, &loc, &borrowed));
  const uint32_t bytes = static_cast<uint32_t>(RowByteSize(borrowed));
  rows_.push_back(std::move(borrowed));
  locs_.push_back(loc);
  row_bytes_.push_back(bytes);
  rec_bytes_.push_back(
      static_cast<uint32_t>(segments_[loc.seg].tail - loc.off));
  total_bytes_ += bytes;
  ++generation_;
  ++records_;
  return row_id;
}

const Row* SegmentEngine::GetRef(uint64_t row_id) const {
  if (row_id >= rows_.size()) return nullptr;
  return &rows_[row_id];
}

Status SegmentEngine::Replace(uint64_t row_id, Row row) {
  if (row_id >= rows_.size()) {
    return Status::NotFound("row id out of range");
  }
  RowLoc loc;
  Row borrowed;
  CONCEALER_RETURN_IF_ERROR(WriteRecord(row_id, row, &loc, &borrowed));
  const uint32_t bytes = static_cast<uint32_t>(RowByteSize(borrowed));
  // The superseded record becomes dead weight in its segment.
  segments_[locs_[row_id].seg].dead_bytes += rec_bytes_[row_id];
  total_bytes_ -= row_bytes_[row_id];
  total_bytes_ += bytes;
  row_bytes_[row_id] = bytes;
  rec_bytes_[row_id] =
      static_cast<uint32_t>(segments_[loc.seg].tail - loc.off);
  rows_[row_id] = std::move(borrowed);
  locs_[row_id] = loc;
  ++generation_;
  ++records_;
  return Status::OK();
}

Status SegmentEngine::SealActiveLocked() {
  if (segments_.empty() || segments_.back().sealed) return Status::OK();
  Segment& seg = segments_.back();
  if (seg.tail > 0 &&
      fault_fs::Msync(seg.map, seg.tail, MS_SYNC) != 0) {
    return Status::Internal("msync failed for " + seg.path);
  }
  if (fault_fs::Ftruncate(seg.fd, static_cast<off_t>(seg.tail)) != 0) {
    return Status::Internal("cannot truncate " + seg.path);
  }
  // Release the unused preallocated address range; the mapped prefix (all
  // borrowed rows point below tail) stays exactly where it is.
  const size_t keep = PageRoundUp(seg.tail);
  if (keep < seg.map_len) {
    ::munmap(seg.map + keep, seg.map_len - keep);
    seg.map_len = keep;
    if (keep == 0) seg.map = nullptr;
  }
  ::close(seg.fd);
  seg.fd = -1;
  seg.sealed = true;
  return Status::OK();
}

Status SegmentEngine::SealSegment() { return SealActiveLocked(); }

Status SegmentEngine::Sync() {
  if (segments_.empty() || segments_.back().sealed) return Status::OK();
  Segment& seg = segments_.back();
  if (seg.tail > 0 && fault_fs::Msync(seg.map, seg.tail, MS_SYNC) != 0) {
    return Status::Internal("msync failed for " + seg.path);
  }
  return Status::OK();
}

uint64_t SegmentEngine::DeadBytes() const {
  uint64_t dead = 0;
  for (const Segment& seg : segments_) dead += seg.dead_bytes;
  return dead;
}

uint64_t SegmentEngine::DiskBytes() const {
  uint64_t bytes = 0;
  for (const Segment& seg : segments_) bytes += seg.tail;
  return bytes;
}

StatusOr<uint64_t> SegmentEngine::Compact(double min_dead_ratio) {
  uint64_t reclaimed = 0;
  // Snapshot the segment count: segments the rewrites roll open below are
  // freshly live and never victims of this pass.
  const uint32_t fixed = static_cast<uint32_t>(segments_.size());
  for (uint32_t i = 0; i < fixed; ++i) {
    // Re-index each iteration: WriteRecord below may grow segments_.
    if (!segments_[i].sealed) continue;
    if (segments_[i].tail == 0 || segments_[i].dead_bytes == 0) continue;
    if (static_cast<double>(segments_[i].dead_bytes) <
        min_dead_ratio * static_cast<double>(segments_[i].tail)) {
      continue;
    }
    // Rewrite the victim's live rows into the active segment. Serializing
    // reads the borrowed columns out of the victim's mapping; the borrow
    // stays valid until the tombstone below swaps the file out.
    std::vector<uint64_t> live;
    for (uint64_t id : segments_[i].row_ids) {
      if (locs_[id].seg == i) live.push_back(id);
    }
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    const uint64_t victim_records = segments_[i].row_ids.size();
    const uint64_t victim_tail = segments_[i].tail;
    for (uint64_t id : live) {
      RowLoc loc;
      Row borrowed;
      CONCEALER_RETURN_IF_ERROR(WriteRecord(id, rows_[id], &loc, &borrowed));
      rows_[id] = std::move(borrowed);
      locs_[id] = loc;
      rec_bytes_[id] =
          static_cast<uint32_t>(segments_[loc.seg].tail - loc.off);
      ++records_;
    }
    // A crash between the rewrites (already durable via the shared
    // mapping) and the tombstone rename is safe: recovery replays the
    // victim's records and then the newer copies in the active segment, so
    // the rows land on the rewritten versions and the victim simply shows
    // up all-dead for the next pass.
    CONCEALER_RETURN_IF_ERROR(TombstoneSegment(i, victim_records));
    reclaimed += victim_tail - segments_[i].tail;
    ++generation_;  // Outstanding borrows (any segment) go stale.
  }
  return reclaimed;
}

Status SegmentEngine::TombstoneSegment(uint32_t index,
                                       uint64_t purged_records) {
  Segment& seg = segments_[index];
  // The marker is an ordinary framed row record under the sentinel id,
  // with one 8-byte column carrying the purged-record count.
  Bytes payload;
  PutFixed64(&payload, purged_records);
  Row marker;
  marker.columns.emplace_back(std::move(payload));
  Bytes body;
  SerializeRowBody(kPurgeMarkerRowId, marker, &body);
  Bytes framed;
  AppendFramedRecord(&framed, body);
  // Atomic swap via write-then-rename: a crash leaves either the full old
  // segment (recovery replays it; the next pass re-tombstones) or the
  // marker-only file — never a torn segment.
  CONCEALER_RETURN_IF_ERROR(WriteFileBytes(seg.path, framed));
  if (seg.map != nullptr) ::munmap(seg.map, seg.map_len);
  seg.map = nullptr;
  const int fd = ::open(seg.path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot reopen tombstone " + seg.path);
  void* map = ::mmap(nullptr, framed.size(), PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal("mmap failed for tombstone " + seg.path);
  }
  seg.map = static_cast<uint8_t*>(map);
  seg.map_len = framed.size();
  seg.tail = framed.size();
  seg.dead_bytes = 0;
  seg.row_ids.clear();
  return Status::OK();
}

bool SegmentEngine::IsMapped(const uint8_t* p) const {
  for (const Segment& seg : segments_) {
    if (seg.map != nullptr && p >= seg.map && p < seg.map + seg.tail) {
      return true;
    }
  }
  return false;
}

// --- Engine construction --------------------------------------------------

StatusOr<std::unique_ptr<StorageEngine>> MakeStorageEngine(
    const StorageOptions& options, ThreadPool* pool) {
  SegmentEngine::Options seg_options;
  seg_options.segment_bytes = options.segment_bytes;
  if (options.dir.empty()) {
    std::error_code ec;
    const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) {
      return Status::Internal("no temp directory for ephemeral segments: " +
                              ec.message());
    }
    const std::string tmpl = (tmp / "concealer-seg-XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      return Status::Internal("mkdtemp failed for ephemeral segment dir");
    }
    seg_options.dir = buf.data();
    seg_options.remove_on_close = true;
  } else {
    seg_options.dir = options.dir;
  }
  StatusOr<std::unique_ptr<SegmentEngine>> engine =
      SegmentEngine::Open(std::move(seg_options), pool);
  if (!engine.ok()) return engine.status();
  return std::unique_ptr<StorageEngine>(std::move(*engine));
}

}  // namespace concealer
