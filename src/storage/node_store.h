#ifndef CONCEALER_STORAGE_NODE_STORE_H_
#define CONCEALER_STORAGE_NODE_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace concealer {

/// On-disk home for B+-tree leaf pages — the piece that lets an index grow
/// past RAM. The tree's internal levels (~1/kFanout of the key bytes) stay
/// resident; leaves serialize into one generation-stamped `index-nodes`
/// file per storage directory and load on demand through a bounded LRU
/// page cache.
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
/// The footer is fixed-size and last, so Open() reads it with one pread
/// and never touches leaf bytes — attaching a multi-GB index at restart
/// costs two small reads (footer + directory). `stamp` carries the
/// engine's durable_generation() at write time: a stale stamp means rows
/// changed after the dump, so recovery ignores the file and rebuilds the
/// index from the rows.
///
/// Corruption policy is fail-closed: a mangled footer/table/directory
/// fails Open(); a mangled leaf page fails the GetPage() that touches it
/// (checksum mismatch -> kCorruption), so a paged lookup returns an error
/// rather than a wrong answer. A torn tail (crash mid-build) has no valid
/// footer and is ignored the same way — the builder writes `.tmp` +
/// rename, so a half-built file never shadows a good one.
///
/// Pins and invalidation: GetPage() hands out shared_ptr pins, so an
/// evicted page stays readable until its last pin drops (memory-safe by
/// construction, unlike raw segment borrows). Staleness is still
/// observable the RowRef::stale() way: every successful Open() bumps
/// generation(), and each Page records the generation it was loaded
/// under — a pin whose generation lags the store's was read from a
/// replaced file.
///
/// Thread safety: GetPage/Prefetch/TrimCache may race with each other
/// (one internal mutex; page I/O runs outside it). Open/Close and the
/// builder require external exclusive access, like engine mutators.
class NodeStore {
 public:
  struct Options {
    std::string path;  // The node file ("<dir>/index-nodes").
    /// LRU cache budget over parsed pages (bytes, approximate): a hard
    /// target the cache trims down to after every insertion, not a
    /// reservation.
    uint64_t cache_bytes = 64ull << 20;
  };

  /// One parsed leaf page. `keys` are views into `body`; `values` are the
  /// decoded row ids, parallel to `keys`.
  struct Page {
    uint64_t generation = 0;  // NodeStore generation at load time.
    Bytes body;
    std::vector<Slice> keys;
    std::vector<uint64_t> values;
  };
  using PagePin = std::shared_ptr<const Page>;

  /// How Prefetch turns a batch of wanted pages into I/O.
  ///  - kOff:     no-op (the control leg benches compare against).
  ///  - kFadvise: one posix_fadvise(WILLNEED) per uncached page — the
  ///              default; the kernel starts readahead for every page
  ///              before the first probe blocks on any of them.
  enum class PrefetchMode { kOff, kFadvise };

  explicit NodeStore(Options options);
  ~NodeStore();

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  /// (Re)opens the node file: reads and verifies footer, page table and
  /// directory, drops any cached pages from a previous file and bumps
  /// generation(). Fails NotFound if the file is absent and kCorruption
  /// on any framing/bounds damage (including a torn tail).
  Status Open();

  /// True after a successful Open() (until Close()).
  bool is_open() const;

  /// Drops the fd, cache and directory (e.g. the file went stale).
  void Close();

  /// durable_generation() stamp the file was written under.
  uint64_t stamp() const { return stamp_; }
  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  /// The tree-directory body (valid while open).
  const Bytes& directory() const { return directory_; }
  /// Bumped by every successful Open(); see the staleness note above.
  uint64_t generation() const { return generation_; }
  const std::string& path() const { return options_.path; }

  /// Loads (or returns the cached) page `id`. kCorruption on checksum or
  /// parse failure — never a wrong page.
  StatusOr<PagePin> GetPage(uint32_t id);

  /// Starts readahead for every page in `ids` that is not already cached,
  /// per the active PrefetchMode. Advisory: never fails, never blocks on
  /// page content.
  void Prefetch(const uint32_t* ids, size_t n);

  /// Evicts least-recently-used pages until the cache holds at most
  /// `target_bytes` (0 = drop everything). Outstanding pins stay valid.
  void TrimCache(uint64_t target_bytes);
  void DropCache() { TrimCache(0); }

  uint64_t cache_bytes() const;

  /// Not synchronized with Prefetch: set it before probes run.
  void set_prefetch_mode(PrefetchMode mode) { prefetch_mode_ = mode; }

  // --- Observability (tests and the exp16 paged leg) ---------------------
  // Relaxed counters: each is read on its own, never as a consistent set.
  uint64_t loads() const {  // Pages read from disk.
    return loads_.load(std::memory_order_relaxed);
  }
  uint64_t cache_hits() const {  // GetPage served from cache.
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t prefetched_pages() const {
    return prefetched_pages_.load(std::memory_order_relaxed);
  }

 private:
  struct PageLoc {
    uint64_t offset = 0;
    uint64_t framed_len = 0;
  };
  struct CacheEntry {
    std::shared_ptr<const Page> page;
    uint64_t bytes = 0;
    std::list<uint32_t>::iterator lru_it;
  };

  StatusOr<std::shared_ptr<const Page>> LoadPage(uint32_t id) const;
  void TrimLocked(uint64_t target_bytes);

  Options options_;
  int fd_ = -1;
  uint64_t stamp_ = 0;
  uint64_t file_size_ = 0;
  std::vector<PageLoc> pages_;
  Bytes directory_;
  uint64_t generation_ = 0;

  mutable std::mutex mu_;
  std::unordered_map<uint32_t, CacheEntry> cache_;
  std::list<uint32_t> lru_;  // Front = most recent.
  uint64_t cache_bytes_ = 0;

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
