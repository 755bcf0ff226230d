#include "storage/node_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "concealer/epoch_io.h"
#include "storage/fault_fs.h"

namespace concealer {

namespace {

// Footer body: stamp | table_off | table_len | dir_off | dir_len | num_pages.
constexpr size_t kFooterBody = 6 * 8;

// The body of the frame at [off, off + framed_len) of `file`. With
// `verify_checksum` false only the frame header and lengths are checked
// (ReadVerifiedFramedRecord), for a frame already checked since Open().
StatusOr<Slice> FrameAt(Slice file, uint64_t off, uint64_t framed_len,
                        bool verify_checksum) {
  if (framed_len < FramedSize(0) || off > file.size() ||
      framed_len > file.size() - off) {
    return Status::Corruption("node file: frame out of bounds");
  }
  const Slice frame(file.data() + off, framed_len);
  size_t frame_off = 0;
  StatusOr<Slice> body = verify_checksum
                             ? ReadFramedRecord(frame, &frame_off)
                             : ReadVerifiedFramedRecord(frame, &frame_off);
  if (!body.ok()) {
    return Status::Corruption("node file: bad frame (" +
                              body.status().message() + ")");
  }
  if (frame_off != frame.size()) {
    return Status::Corruption("node file: frame length mismatch");
  }
  return body;
}

}  // namespace

// --- NodeStore -------------------------------------------------------------

NodeStore::NodeStore(std::string path) : path_(std::move(path)) {}

NodeStore::~NodeStore() { Close(); }

void NodeStore::Close() {
  if (map_ != nullptr) ::munmap(const_cast<uint8_t*>(map_), map_len_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  map_ = nullptr;
  map_len_ = 0;
  stamp_ = 0;
  pages_.clear();
  directory_ = Slice();
}

Status NodeStore::Open() {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("no node file at " + path_);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat failed: " + path_);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const uint64_t footer_len = FramedSize(kFooterBody);
  if (size < footer_len) {
    ::close(fd);
    return Status::Corruption("node file truncated: " + path_);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return Status::Internal("mmap failed: " + path_);
  }
  // Leaf reads are random, and Prefetch reads ahead exactly the pages a
  // batch will touch: turn off the kernel's read-around on a page fault,
  // which would read up to the device's read-ahead window of unrelated
  // leaves per miss and pre-empt Prefetch.
  ::madvise(map, size, MADV_RANDOM);
  const auto fail = [&](Status status) {
    ::munmap(map, size);
    ::close(fd);
    return status;
  };
  const Slice file(static_cast<const uint8_t*>(map), size);
  StatusOr<Slice> footer = FrameAt(file, size - footer_len, footer_len,
                                   /*verify_checksum=*/true);
  if (!footer.ok()) return fail(footer.status());
  if (footer->size() != kFooterBody) {
    return fail(Status::Corruption("node file: bad footer size"));
  }
  const uint8_t* f = footer->data();
  const uint64_t stamp = DecodeFixed64(f);
  const uint64_t table_off = DecodeFixed64(f + 8);
  const uint64_t table_len = DecodeFixed64(f + 16);
  const uint64_t dir_off = DecodeFixed64(f + 24);
  const uint64_t dir_len = DecodeFixed64(f + 32);
  const uint64_t num_pages = DecodeFixed64(f + 40);
  StatusOr<Slice> table = FrameAt(file, table_off, table_len,
                                  /*verify_checksum=*/true);
  if (!table.ok()) return fail(table.status());
  if (table->size() % 16 != 0 || table->size() / 16 != num_pages) {
    return fail(Status::Corruption("node file: page table size mismatch"));
  }
  std::vector<PageLoc> pages(num_pages);
  for (uint64_t i = 0; i < num_pages; ++i) {
    pages[i].offset = DecodeFixed64(table->data() + 16 * i);
    pages[i].framed_len = DecodeFixed64(table->data() + 16 * i + 8);
    if (pages[i].framed_len < FramedSize(0) || pages[i].offset > table_off ||
        pages[i].framed_len > table_off - pages[i].offset) {
      return fail(Status::Corruption("node file: page location out of bounds"));
    }
  }
  StatusOr<Slice> directory = FrameAt(file, dir_off, dir_len,
                                      /*verify_checksum=*/true);
  if (!directory.ok()) return fail(directory.status());
  Close();
  fd_ = fd;
  map_ = file.data();
  map_len_ = size;
  stamp_ = stamp;
  pages_ = std::move(pages);
  directory_ = *directory;
  return Status::OK();
}

Status NodeStore::GetPage(uint32_t id, Page* out) {
  if (map_ == nullptr) return Status::FailedPrecondition("node store not open");
  if (id >= pages_.size()) {
    return Status::InvalidArgument("node page id out of range");
  }
  PageLoc& loc = pages_[id];
  // The mapping is immutable while open, so the flag guards no data: it
  // only decides whether this read hashes the frame.
  const bool first = !loc.checked.load();
  StatusOr<Slice> body = FrameAt(Slice(map_, map_len_), loc.offset,
                                 loc.framed_len, /*verify_checksum=*/first);
  if (!body.ok()) return body.status();
  const Slice b = *body;
  if (b.size() < 4) return Status::Corruption("node page: truncated header");
  const uint32_t num_keys = DecodeFixed32(b.data());
  out->body = b;
  out->keys.clear();
  out->values.clear();
  // Each entry takes at least 12 bytes, which bounds the reservation for a
  // damaged count.
  const size_t max_keys = std::min<size_t>(num_keys, b.size() / 12);
  out->keys.reserve(max_keys);
  out->values.reserve(max_keys);
  size_t off = 4;
  for (uint32_t i = 0; i < num_keys; ++i) {
    Slice key;
    if (!GetLengthPrefixedView(b, &off, &key) || off + 8 > b.size()) {
      return Status::Corruption("node page: truncated entry");
    }
    out->keys.push_back(key);
    out->values.push_back(DecodeFixed64(b.data() + off));
    off += 8;
  }
  if (off != b.size()) {
    return Status::Corruption("node page: trailing bytes");
  }
  if (first) {
    loc.checked.store(true);
    loads_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void NodeStore::Prefetch(const uint32_t* ids, size_t n) {
  if (map_ == nullptr || prefetch_mode_ == PrefetchMode::kOff) return;
  uint64_t issued = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= pages_.size()) continue;
    const PageLoc& loc = pages_[ids[i]];
    if (loc.checked.load()) continue;
    ::posix_fadvise(fd_, static_cast<off_t>(loc.offset),
                    static_cast<off_t>(loc.framed_len), POSIX_FADV_WILLNEED);
    ++issued;
  }
  prefetched_pages_.fetch_add(issued, std::memory_order_relaxed);
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
