#include "concealer/epoch_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "storage/fault_fs.h"

namespace concealer {

namespace {

constexpr uint32_t kMagic = 0x434f4e43;  // "CONC".
constexpr uint32_t kVersion = 1;
constexpr size_t kFrameHeader = 24;

// FNV-1a over the framed payload: a cheap transport checksum (content
// integrity is cryptographic, see header).
uint64_t Fnv1a(Slice data) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

size_t FramedSize(size_t body_size) { return kFrameHeader + body_size; }

void AppendFramedRecord(Bytes* out, Slice body) {
  out->reserve(out->size() + FramedSize(body.size()));
  PutFixed32(out, kMagic);
  PutFixed32(out, kVersion);
  PutFixed64(out, Fnv1a(body));
  PutFixed64(out, body.size());
  PutBytes(out, body);
}

void WriteFramedRecordTo(uint8_t* dst, Slice body) {
  Bytes header;
  header.reserve(kFrameHeader);
  PutFixed32(&header, kMagic);
  PutFixed32(&header, kVersion);
  PutFixed64(&header, Fnv1a(body));
  PutFixed64(&header, body.size());
  std::memcpy(dst, header.data(), kFrameHeader);
  if (!body.empty()) std::memcpy(dst + kFrameHeader, body.data(), body.size());
}

namespace {

// ReadFramedRecord's checks; `hash_body` false skips only the body
// checksum.
StatusOr<Slice> ReadFrame(Slice data, size_t* off, bool hash_body) {
  if (*off >= data.size()) return Status::NotFound("end of records");
  const size_t remaining = data.size() - *off;
  // A zeroed magic word marks the clean tail of a preallocated segment.
  if (remaining >= 4 && DecodeFixed32(data.data() + *off) == 0) {
    return Status::NotFound("end of records");
  }
  if (remaining < kFrameHeader) {
    return Status::Corruption("truncated record frame");
  }
  const uint8_t* p = data.data() + *off;
  if (DecodeFixed32(p) != kMagic) {
    return Status::Corruption("bad record magic");
  }
  const uint32_t version = DecodeFixed32(p + 4);
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported record format version " +
                                   std::to_string(version));
  }
  const uint64_t checksum = DecodeFixed64(p + 8);
  const uint64_t body_len = DecodeFixed64(p + 16);
  if (body_len > remaining - kFrameHeader) {
    return Status::Corruption("truncated record body");
  }
  const Slice body(p + kFrameHeader, body_len);
  if (hash_body && Fnv1a(body) != checksum) {
    return Status::Corruption("record checksum mismatch");
  }
  *off += kFrameHeader + body_len;
  return body;
}

}  // namespace

StatusOr<Slice> ReadFramedRecord(Slice data, size_t* off) {
  return ReadFrame(data, off, /*hash_body=*/true);
}

StatusOr<Slice> ReadVerifiedFramedRecord(Slice data, size_t* off) {
  return ReadFrame(data, off, /*hash_body=*/false);
}

FramePeek PeekFrameHeader(Slice data, uint64_t* body_len) {
  const uint8_t* p = data.data();
  // Magic and version are checked as soon as their bytes arrive, so a
  // peer speaking the wrong protocol is rejected on its first packet
  // instead of being buffered until a full header shows up.
  if (data.size() >= 4 && DecodeFixed32(p) != kMagic) {
    return FramePeek::kBadMagic;
  }
  if (data.size() >= 8 && DecodeFixed32(p + 4) != kVersion) {
    return FramePeek::kBadVersion;
  }
  if (data.size() < kFrameHeader) return FramePeek::kNeedMoreData;
  *body_len = DecodeFixed64(p + 16);
  return FramePeek::kOk;
}

namespace {

Bytes SerializeEpochBody(const EncryptedEpoch& epoch) {
  // Exact size precomputation: one allocation for the body instead of
  // doubling-growth reallocs (epoch blobs run to hundreds of MB at paper
  // scale, and the shipment is on the DP's ingest critical path).
  size_t body_size = 8 * 4;  // epoch_id, epoch_start, real, fake counts.
  body_size += 4 + epoch.enc_grid_layout.size();
  body_size += 4 + epoch.enc_verification_tags.size();
  body_size += 8;  // Row count.
  for (const Row& row : epoch.rows) {
    body_size += 4;
    for (const Column& col : row.columns) body_size += 4 + col.size();
  }
  Bytes body;
  body.reserve(body_size);
  PutFixed64(&body, epoch.epoch_id);
  PutFixed64(&body, epoch.epoch_start);
  PutFixed64(&body, epoch.num_real_tuples);
  PutFixed64(&body, epoch.num_fake_tuples);
  PutLengthPrefixed(&body, epoch.enc_grid_layout);
  PutLengthPrefixed(&body, epoch.enc_verification_tags);
  PutFixed64(&body, epoch.rows.size());
  for (const Row& row : epoch.rows) {
    PutFixed32(&body, static_cast<uint32_t>(row.columns.size()));
    for (const Column& col : row.columns) {
      PutLengthPrefixed(&body, col);
    }
  }
  return body;
}

StatusOr<EncryptedEpoch> DeserializeEpochBody(Slice body) {
  EncryptedEpoch epoch;
  size_t boff = 0;
  if (body.size() < 32) return Status::Corruption("epoch body truncated");
  epoch.epoch_id = DecodeFixed64(body.data());
  epoch.epoch_start = DecodeFixed64(body.data() + 8);
  epoch.num_real_tuples = DecodeFixed64(body.data() + 16);
  epoch.num_fake_tuples = DecodeFixed64(body.data() + 24);
  boff = 32;
  if (!GetLengthPrefixed(body, &boff, &epoch.enc_grid_layout) ||
      !GetLengthPrefixed(body, &boff, &epoch.enc_verification_tags)) {
    return Status::Corruption("epoch body truncated in blobs");
  }
  if (boff + 8 > body.size()) {
    return Status::Corruption("epoch body truncated at row count");
  }
  const uint64_t num_rows = DecodeFixed64(body.data() + boff);
  boff += 8;
  epoch.rows.reserve(num_rows);
  for (uint64_t r = 0; r < num_rows; ++r) {
    if (boff + 4 > body.size()) {
      return Status::Corruption("epoch body truncated in rows");
    }
    const uint32_t cols = DecodeFixed32(body.data() + boff);
    boff += 4;
    if (cols > 64) return Status::Corruption("implausible column count");
    Row row;
    row.columns.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) {
      Bytes col;
      if (!GetLengthPrefixed(body, &boff, &col)) {
        return Status::Corruption("epoch body truncated in row columns");
      }
      row.columns.emplace_back(std::move(col));
    }
    epoch.rows.push_back(std::move(row));
  }
  if (boff != body.size()) {
    return Status::Corruption("trailing bytes after epoch body");
  }
  return epoch;
}

}  // namespace

Bytes SerializeEpoch(const EncryptedEpoch& epoch) {
  const Bytes body = SerializeEpochBody(epoch);
  Bytes out;
  out.reserve(FramedSize(body.size()));
  AppendFramedRecord(&out, body);
  return out;
}

StatusOr<EncryptedEpoch> DeserializeEpoch(Slice data) {
  if (data.size() < kFrameHeader) {
    return Status::Corruption("epoch blob too short");
  }
  size_t off = 0;
  StatusOr<Slice> body = ReadFramedRecord(data, &off);
  if (!body.ok()) {
    // A zeroed magic reads as a clean log tail in a segment scan, but a
    // standalone epoch blob must carry a real frame.
    if (body.status().IsNotFound()) {
      return Status::Corruption("bad epoch magic");
    }
    return body.status();
  }
  if (off != data.size()) {
    return Status::Corruption("epoch blob length mismatch");
  }
  return DeserializeEpochBody(*body);
}

EncryptedEpoch StripRows(const EncryptedEpoch& epoch) {
  // Compile-time tripwire: a field added to EncryptedEpoch must be copied
  // below (and wired through the serializers), or restart recovery would
  // silently drop it from every epoch-meta sidecar. All members are
  // 8-aligned, so the sum is exact.
  static_assert(sizeof(EncryptedEpoch) ==
                    4 * sizeof(uint64_t) + 2 * sizeof(Bytes) +
                        sizeof(std::vector<Row>),
                "EncryptedEpoch changed: update StripRows and the epoch "
                "serializers in epoch_io.cc");
  EncryptedEpoch out;
  out.epoch_id = epoch.epoch_id;
  out.epoch_start = epoch.epoch_start;
  out.enc_grid_layout = epoch.enc_grid_layout;
  out.enc_verification_tags = epoch.enc_verification_tags;
  out.num_real_tuples = epoch.num_real_tuples;
  out.num_fake_tuples = epoch.num_fake_tuples;
  return out;
}

Bytes SerializeEpochMeta(const EpochMeta& meta) {
  // Metas built by ingest are already row-free; strip defensively (without
  // ever copying row bytes) if a caller handed in a full epoch.
  const Bytes epoch_blob = meta.epoch.rows.empty()
                               ? SerializeEpoch(meta.epoch)
                               : SerializeEpoch(StripRows(meta.epoch));
  Bytes body;
  body.reserve(8 + 8 + 4 + 4 + 4 + epoch_blob.size() + 4 +
               meta.bin_key_versions.size() * 12 + 8 + 4 +
               meta.enc_dynamic_tags.size());
  PutFixed64(&body, meta.first_row_id);
  PutFixed64(&body, meta.num_rows);
  PutFixed32(&body, meta.seg_lo);
  PutFixed32(&body, meta.seg_hi);
  PutLengthPrefixed(&body, epoch_blob);
  // Checkpointed dynamic state, appended after the original fields so old
  // metas (which end at the epoch blob) still parse with defaults.
  PutFixed32(&body, static_cast<uint32_t>(meta.bin_key_versions.size()));
  for (const auto& entry : meta.bin_key_versions) {
    PutFixed32(&body, entry.first);
    PutFixed64(&body, entry.second);
  }
  PutFixed64(&body, meta.reenc_counter);
  PutLengthPrefixed(&body, meta.enc_dynamic_tags);
  Bytes out;
  AppendFramedRecord(&out, body);
  return out;
}

StatusOr<EpochMeta> DeserializeEpochMeta(Slice data) {
  size_t off = 0;
  StatusOr<Slice> body = ReadFramedRecord(data, &off);
  if (!body.ok()) {
    if (body.status().IsNotFound()) {
      return Status::Corruption("bad epoch meta magic");
    }
    return body.status();
  }
  if (off != data.size()) {
    return Status::Corruption("epoch meta length mismatch");
  }
  if (body->size() < 24) return Status::Corruption("epoch meta truncated");
  EpochMeta meta;
  meta.first_row_id = DecodeFixed64(body->data());
  meta.num_rows = DecodeFixed64(body->data() + 8);
  meta.seg_lo = DecodeFixed32(body->data() + 16);
  meta.seg_hi = DecodeFixed32(body->data() + 20);
  size_t boff = 24;
  Bytes epoch_blob;
  if (!GetLengthPrefixed(*body, &boff, &epoch_blob)) {
    return Status::Corruption("epoch meta truncated in epoch blob");
  }
  // Dynamic-state fields are optional: a meta written before any
  // checkpoint ends right after the epoch blob and parses to defaults.
  if (boff != body->size()) {
    if (boff + 4 > body->size()) {
      return Status::Corruption("epoch meta truncated at version count");
    }
    const uint32_t num_versions = DecodeFixed32(body->data() + boff);
    boff += 4;
    for (uint32_t i = 0; i < num_versions; ++i) {
      if (boff + 12 > body->size()) {
        return Status::Corruption("epoch meta truncated in key versions");
      }
      const uint32_t bin = DecodeFixed32(body->data() + boff);
      meta.bin_key_versions[bin] = DecodeFixed64(body->data() + boff + 4);
      boff += 12;
    }
    if (boff + 8 > body->size()) {
      return Status::Corruption("epoch meta truncated at reenc counter");
    }
    meta.reenc_counter = DecodeFixed64(body->data() + boff);
    boff += 8;
    if (!GetLengthPrefixed(*body, &boff, &meta.enc_dynamic_tags) ||
        boff != body->size()) {
      return Status::Corruption("epoch meta truncated in dynamic tags");
    }
  }
  StatusOr<EncryptedEpoch> epoch = DeserializeEpoch(epoch_blob);
  if (!epoch.ok()) return epoch.status();
  meta.epoch = std::move(*epoch);
  return meta;
}

Status WriteEpochMetaFile(const std::string& path, const EpochMeta& meta) {
  return WriteFileBytes(path, SerializeEpochMeta(meta));
}

StatusOr<EpochMeta> ReadEpochMetaFile(const std::string& path) {
  StatusOr<Bytes> blob = ReadFileBytes(path);
  if (!blob.ok()) return blob.status();
  return DeserializeEpochMeta(*blob);
}

Status WriteFileBytes(const std::string& path, Slice data) {
  // Write-then-rename: a crash mid-write must never leave a torn file at
  // `path` itself. Epoch-meta files are recovery inputs — a torn meta
  // would fail ServiceProvider::Open until a human deleted it, while a
  // missing one is at worst a re-ingest. The write, fsync and rename go
  // through the fault_fs shim so the durability tests can crash this
  // helper at every step.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open for write: " + tmp);
  }
  const bool flushed =
      (data.empty() ||
       fault_fs::Write(fd, data.data(), data.size()) ==
           static_cast<ssize_t>(data.size())) &&
      fault_fs::Fsync(fd) == 0;
  const int rc = ::close(fd);
  if (!flushed || rc != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("short write: " + tmp);
  }
  if (fault_fs::Rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

StatusOr<Bytes> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open for read: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::Internal("cannot stat: " + path);
  }
  Bytes blob(static_cast<size_t>(size));
  const size_t read =
      blob.empty() ? 0 : std::fread(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (read != blob.size()) {
    return Status::Internal("short read: " + path);
  }
  return blob;
}

}  // namespace concealer
