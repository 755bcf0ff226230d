#ifndef CONCEALER_STORAGE_NODE_STORE_H_
#define CONCEALER_STORAGE_NODE_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace concealer {

/// On-disk home for B+-tree leaf pages — the piece that lets an index grow
/// past RAM. The tree's internal levels (~1/kFanout of the key bytes) stay
/// resident; leaves serialize into one generation-stamped `index-nodes`
/// file per storage directory, which Open() maps read-only and GetPage()
/// reads in place. Residency is the kernel's, as for the segments: leaf
/// pages page in and out like any file-backed mapping.
///
/// File layout (every region is a standard epoch_io frame, so the same
/// magic/version/FNV checks that guard segments and epoch metas guard node
/// pages):
///
///   [page 0][page 1]...[page N-1][page table][tree directory][footer]
///
///   page body      : num_keys(4) | { klen(4) | key | row_id(8) }*
///                    (keys ascending — one whole B+-tree leaf)
///   page table body: N x { offset(8) | framed_len(8) }
///   directory body : opaque to this class — the tree's internal-node
///                    skeleton (bplus_tree.cc defines it)
///   footer body    : stamp(8) | table_off(8) | table_len(8) |
///                    dir_off(8) | dir_len(8) | num_pages(8)
///
/// The footer is fixed-size and last, so Open() checks the footer, page
/// table and directory without touching leaf bytes — attaching a multi-GB
/// index at restart reads three small regions. `stamp` carries the
/// engine's durable_generation() at write time: a stale stamp means rows
/// changed after the dump, so recovery ignores the file and rebuilds the
/// index from the rows.
///
/// Read-ahead is Prefetch's alone: the mapping is MADV_RANDOM (no kernel
/// read-around on a fault), and callers that know which pages they will
/// read — BulkFind's batch, SavePaged's stream — prefetch them.
///
/// Corruption policy is fail-closed, and the segments' one: checked once
/// per Open(), then read in place. A mangled footer/table/directory or a
/// failed map fails Open(). A leaf page's frame checksum is checked on its
/// first read after each Open() (mismatch -> kCorruption, and the page
/// stays unchecked, so every later read fails too); later reads check only
/// the frame header. Damage that lands after a page's first read is caught
/// by the first read after the next Open(). A torn tail (crash mid-build)
/// has no valid footer and fails Open() the same way — the builder writes
/// `.tmp` + rename, so a half-built file never shadows a good one.
///
/// Views: a Page's `body` and `keys` point into the mapping and stay valid
/// until the store's next Open() or Close(). In the library only
/// EncryptedTable::PersistPagedIndex and RecoverIndex call them, under the
/// exclusive epoch lock — the RowRef rule, one level down.
///
/// Thread safety: GetPage/Prefetch take no lock and may race with each
/// other; each writes only a page's atomic first-read flag and relaxed
/// counters (two racing first reads both check the checksum, which is
/// harmless). Open/Close and the builder require external exclusive
/// access, like engine mutators.
class NodeStore {
 public:
  /// One leaf page, read in place. `body` is the page body and `keys` view
  /// into it; `values` are the decoded row ids, parallel to `keys`.
  /// GetPage refills a caller-owned Page, so a loop reuses its vectors.
  struct Page {
    Slice body;
    std::vector<Slice> keys;
    std::vector<uint64_t> values;
  };

  /// How Prefetch turns a batch of wanted pages into I/O.
  ///  - kOff:     no-op (the control leg benches compare against).
  ///  - kFadvise: one posix_fadvise(WILLNEED) per page not yet read since
  ///              Open() — the default; the kernel starts readahead for
  ///              every page before the first probe blocks on any of them.
  enum class PrefetchMode { kOff, kFadvise };

  /// `path` is the node file ("<dir>/index-nodes").
  explicit NodeStore(std::string path);
  ~NodeStore();

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  /// (Re)opens the node file: maps it read-only and verifies the footer,
  /// page table and directory, then drops the previous file's mapping.
  /// Fails NotFound if the file is absent, kCorruption on any framing/
  /// bounds damage (including a torn tail) and Internal if the map fails;
  /// on failure the previous file stays open.
  Status Open();

  /// True after a successful Open() (until Close()).
  bool is_open() const { return map_ != nullptr; }

  /// Unmaps the file and drops the page table and directory (e.g. the file
  /// went stale).
  void Close();

  /// durable_generation() stamp the file was written under.
  uint64_t stamp() const { return stamp_; }
  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  /// The tree-directory body (a view into the mapping; valid while open).
  Slice directory() const { return directory_; }
  const std::string& path() const { return path_; }

  /// Reads page `id` in place into `*out` (see the corruption policy
  /// above). kCorruption on checksum or parse failure — never a wrong
  /// page; `*out` is then unspecified.
  Status GetPage(uint32_t id, Page* out);

  /// Starts readahead for every page in `ids` not yet read since Open(),
  /// per the active PrefetchMode. Advisory: never fails, never blocks on
  /// page content.
  void Prefetch(const uint32_t* ids, size_t n);

  /// Not synchronized with Prefetch: set it before probes run.
  void set_prefetch_mode(PrefetchMode mode) { prefetch_mode_ = mode; }

  // --- Observability (tests, perfbench and the exp16 paged leg) ----------
  // Relaxed counters: each is read on its own, never as a consistent set.
  uint64_t loads() const {  // First reads since Open() (checksum checked).
    return loads_.load(std::memory_order_relaxed);
  }
  uint64_t cache_hits() const {  // Later reads (frame header only).
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t prefetched_pages() const {
    return prefetched_pages_.load(std::memory_order_relaxed);
  }

 private:
  struct PageLoc {
    uint64_t offset = 0;
    uint64_t framed_len = 0;
    /// Set once the page's frame checksum has passed since Open().
    std::atomic<bool> checked{false};
  };

  std::string path_;
  int fd_ = -1;  // Kept open for Prefetch's fadvise.
  const uint8_t* map_ = nullptr;
  size_t map_len_ = 0;
  uint64_t stamp_ = 0;
  std::vector<PageLoc> pages_;
  Slice directory_;

  PrefetchMode prefetch_mode_ = PrefetchMode::kFadvise;

  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> prefetched_pages_{0};
};

/// Crash-safe writer for a node file: pages and metadata stream into
/// `<path>.tmp` (every write through fault_fs, so the durability sweep
/// enumerates these as crash points), and Finish() fsyncs then renames
/// over the final path — a reader never sees a partial file under `path`.
class NodeFileBuilder {
 public:
  explicit NodeFileBuilder(std::string path);
  ~NodeFileBuilder();  // Abandons (unlinks the tmp) if not finished.

  NodeFileBuilder(const NodeFileBuilder&) = delete;
  NodeFileBuilder& operator=(const NodeFileBuilder&) = delete;

  Status Begin();
  /// Appends one framed leaf page; returns its page id (dense from 0).
  StatusOr<uint32_t> AppendPage(Slice body);
  /// Writes the page table, the tree directory and the stamped footer,
  /// fsyncs, and renames the tmp over the final path.
  Status Finish(Slice directory, uint64_t stamp);

 private:
  Status WriteAll(Slice data);

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  uint64_t offset_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> pages_;  // offset, framed_len
  bool finished_ = false;
};

}  // namespace concealer

#endif  // CONCEALER_STORAGE_NODE_STORE_H_
