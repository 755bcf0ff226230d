#include "storage/node_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/coding.h"
#include "concealer/epoch_io.h"
#include "storage/fault_fs.h"

namespace concealer {

namespace {

// Footer body: stamp | table_off | table_len | dir_off | dir_len | num_pages.
constexpr size_t kFooterBody = 6 * 8;

}  // namespace

// --- NodeStore -------------------------------------------------------------

NodeStore::NodeStore(Options options)
    : options_(std::move(options)) {}

NodeStore::~NodeStore() { Close(); }

bool NodeStore::is_open() const { return fd_ >= 0; }

void NodeStore::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  stamp_ = 0;
  file_size_ = 0;
  pages_.clear();
  directory_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  lru_.clear();
  cache_bytes_ = 0;
}

namespace {

// pread of exactly `n` bytes (plain syscalls: reads are not durability
// events, so they bypass the fault_fs shim by design).
bool PReadAll(int fd, uint8_t* dst, size_t n, uint64_t off) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, dst + got, n - got,
                              static_cast<off_t>(off + got));
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

// Reads and frame-checks the record at [off, off+framed_len). Returns the
// body (owned).
StatusOr<Bytes> ReadFrameAt(int fd, uint64_t off, uint64_t framed_len,
                            uint64_t file_size) {
  if (framed_len < FramedSize(0) || off + framed_len > file_size) {
    return Status::Corruption("node file: frame out of bounds");
  }
  Bytes buf(framed_len);
  if (!PReadAll(fd, buf.data(), buf.size(), off)) {
    return Status::Corruption("node file: short read");
  }
  size_t frame_off = 0;
  StatusOr<Slice> body = ReadFramedRecord(buf, &frame_off);
  if (!body.ok()) {
    return Status::Corruption("node file: bad frame (" +
                              body.status().message() + ")");
  }
  if (frame_off != buf.size()) {
    return Status::Corruption("node file: frame length mismatch");
  }
  return Bytes(body->data(), body->data() + body->size());
}

}  // namespace

Status NodeStore::Open() {
  const int fd = ::open(options_.path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("no node file at " + options_.path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat failed: " + options_.path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  const uint64_t footer_len = FramedSize(kFooterBody);
  if (size < footer_len) {
    ::close(fd);
    return Status::Corruption("node file truncated: " + options_.path);
  }
  StatusOr<Bytes> footer = ReadFrameAt(fd, size - footer_len, footer_len,
                                       size);
  if (!footer.ok()) {
    ::close(fd);
    return footer.status();
  }
  if (footer->size() != kFooterBody) {
    ::close(fd);
    return Status::Corruption("node file: bad footer size");
  }
  const uint8_t* f = footer->data();
  const uint64_t stamp = DecodeFixed64(f);
  const uint64_t table_off = DecodeFixed64(f + 8);
  const uint64_t table_len = DecodeFixed64(f + 16);
  const uint64_t dir_off = DecodeFixed64(f + 24);
  const uint64_t dir_len = DecodeFixed64(f + 32);
  const uint64_t num_pages = DecodeFixed64(f + 40);
  StatusOr<Bytes> table = ReadFrameAt(fd, table_off, table_len, size);
  if (!table.ok()) {
    ::close(fd);
    return table.status();
  }
  if (table->size() != num_pages * 16) {
    ::close(fd);
    return Status::Corruption("node file: page table size mismatch");
  }
  std::vector<PageLoc> pages(num_pages);
  for (uint64_t i = 0; i < num_pages; ++i) {
    pages[i].offset = DecodeFixed64(table->data() + 16 * i);
    pages[i].framed_len = DecodeFixed64(table->data() + 16 * i + 8);
    if (pages[i].framed_len < FramedSize(0) ||
        pages[i].offset + pages[i].framed_len > table_off) {
      ::close(fd);
      return Status::Corruption("node file: page location out of bounds");
    }
  }
  StatusOr<Bytes> directory = ReadFrameAt(fd, dir_off, dir_len, size);
  if (!directory.ok()) {
    ::close(fd);
    return directory.status();
  }
  Close();
  fd_ = fd;
  stamp_ = stamp;
  file_size_ = size;
  pages_ = std::move(pages);
  directory_ = std::move(*directory);
  ++generation_;
  return Status::OK();
}

StatusOr<std::shared_ptr<const NodeStore::Page>> NodeStore::LoadPage(
    uint32_t id) const {
  const PageLoc& loc = pages_[id];
  StatusOr<Bytes> body = ReadFrameAt(fd_, loc.offset, loc.framed_len,
                                     file_size_);
  if (!body.ok()) return body.status();
  auto page = std::make_shared<Page>();
  page->generation = generation_;
  page->body = std::move(*body);
  const Slice b(page->body);
  size_t off = 0;
  if (b.size() < 4) return Status::Corruption("node page: truncated header");
  const uint32_t num_keys = DecodeFixed32(b.data());
  off = 4;
  page->keys.reserve(num_keys);
  page->values.reserve(num_keys);
  for (uint32_t i = 0; i < num_keys; ++i) {
    Slice key;
    if (!GetLengthPrefixedView(b, &off, &key) || off + 8 > b.size()) {
      return Status::Corruption("node page: truncated entry");
    }
    page->keys.push_back(key);
    page->values.push_back(DecodeFixed64(b.data() + off));
    off += 8;
  }
  if (off != b.size()) {
    return Status::Corruption("node page: trailing bytes");
  }
  return std::shared_ptr<const Page>(std::move(page));
}

StatusOr<NodeStore::PagePin> NodeStore::GetPage(uint32_t id) {
  if (fd_ < 0) return Status::FailedPrecondition("node store not open");
  if (id >= pages_.size()) {
    return Status::InvalidArgument("node page id out of range");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(id);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.page;
    }
  }
  // Load outside the lock so concurrent misses on different pages overlap
  // their I/O; a racing duplicate load of the same page is harmless (last
  // one wins the cache slot, both pins are valid).
  StatusOr<std::shared_ptr<const Page>> page = LoadPage(id);
  if (!page.ok()) return page.status();
  loads_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t bytes =
      (*page)->body.size() + 16 * (*page)->keys.size() + 96;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(id);
  if (it == cache_.end()) {
    lru_.push_front(id);
    cache_[id] = CacheEntry{*page, bytes, lru_.begin()};
    cache_bytes_ += bytes;
    TrimLocked(options_.cache_bytes);
  }
  return *page;
}

void NodeStore::Prefetch(const uint32_t* ids, size_t n) {
  if (fd_ < 0 || n == 0 || prefetch_mode_ == PrefetchMode::kOff) return;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  ranges.reserve(n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] >= pages_.size()) continue;
      if (cache_.find(ids[i]) != cache_.end()) continue;
      ranges.emplace_back(pages_[ids[i]].offset, pages_[ids[i]].framed_len);
    }
  }
  if (ranges.empty()) return;
  prefetched_pages_.fetch_add(ranges.size(), std::memory_order_relaxed);
  for (const auto& [off, len] : ranges) {
    ::posix_fadvise(fd_, static_cast<off_t>(off), static_cast<off_t>(len),
                    POSIX_FADV_WILLNEED);
  }
}

void NodeStore::TrimLocked(uint64_t target_bytes) {
  while (cache_bytes_ > target_bytes && !lru_.empty()) {
    const uint32_t victim = lru_.back();
    lru_.pop_back();
    auto it = cache_.find(victim);
    cache_bytes_ -= it->second.bytes;
    cache_.erase(it);  // Outstanding pins keep the page alive.
  }
}

void NodeStore::TrimCache(uint64_t target_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  TrimLocked(target_bytes);
}

uint64_t NodeStore::cache_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_bytes_;
}

// --- NodeFileBuilder -------------------------------------------------------

NodeFileBuilder::NodeFileBuilder(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {}

NodeFileBuilder::~NodeFileBuilder() {
  if (fd_ >= 0) ::close(fd_);
  if (!finished_) ::unlink(tmp_path_.c_str());
}

Status NodeFileBuilder::Begin() {
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    return Status::Internal("cannot open for write: " + tmp_path_);
  }
  return Status::OK();
}

Status NodeFileBuilder::WriteAll(Slice data) {
  if (data.empty()) return Status::OK();
  if (fault_fs::Write(fd_, data.data(), data.size()) !=
      static_cast<ssize_t>(data.size())) {
    return Status::Internal("short write: " + tmp_path_);
  }
  offset_ += data.size();
  return Status::OK();
}

StatusOr<uint32_t> NodeFileBuilder::AppendPage(Slice body) {
  if (fd_ < 0) return Status::FailedPrecondition("builder not started");
  const uint32_t id = static_cast<uint32_t>(pages_.size());
  const uint64_t off = offset_;
  Bytes framed;
  framed.reserve(FramedSize(body.size()));
  AppendFramedRecord(&framed, body);
  CONCEALER_RETURN_IF_ERROR(WriteAll(framed));
  pages_.emplace_back(off, framed.size());
  return id;
}

Status NodeFileBuilder::Finish(Slice directory, uint64_t stamp) {
  if (fd_ < 0) return Status::FailedPrecondition("builder not started");
  Bytes table_body;
  table_body.reserve(pages_.size() * 16);
  for (const auto& [off, len] : pages_) {
    PutFixed64(&table_body, off);
    PutFixed64(&table_body, len);
  }
  const uint64_t table_off = offset_;
  Bytes framed;
  AppendFramedRecord(&framed, table_body);
  const uint64_t table_len = framed.size();
  CONCEALER_RETURN_IF_ERROR(WriteAll(framed));

  const uint64_t dir_off = offset_;
  framed.clear();
  AppendFramedRecord(&framed, directory);
  const uint64_t dir_len = framed.size();
  CONCEALER_RETURN_IF_ERROR(WriteAll(framed));

  Bytes footer_body;
  PutFixed64(&footer_body, stamp);
  PutFixed64(&footer_body, table_off);
  PutFixed64(&footer_body, table_len);
  PutFixed64(&footer_body, dir_off);
  PutFixed64(&footer_body, dir_len);
  PutFixed64(&footer_body, pages_.size());
  framed.clear();
  AppendFramedRecord(&framed, footer_body);
  CONCEALER_RETURN_IF_ERROR(WriteAll(framed));

  if (fault_fs::Fsync(fd_) != 0) {
    return Status::Internal("fsync failed: " + tmp_path_);
  }
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) return Status::Internal("close failed: " + tmp_path_);
  if (fault_fs::Rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp_path_ + " to " + path_);
  }
  finished_ = true;
  return Status::OK();
}

}  // namespace concealer
