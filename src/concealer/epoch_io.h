#ifndef CONCEALER_CONCEALER_EPOCH_IO_H_
#define CONCEALER_CONCEALER_EPOCH_IO_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "concealer/types.h"

namespace concealer {

/// Transfer format for the DP -> SP epoch shipment (paper Phase 1): a
/// self-describing byte stream holding the permuted encrypted rows, the
/// encrypted grid-layout vectors and the encrypted verifiable tags, with a
/// magic header, a format version and a CRC-style integrity word over the
/// framing (the *content* integrity is cryptographic — the hash chains and
/// authenticated ciphers — this checksum only catches transport mangling).
///
/// This is what would travel over the wire or land in an object store in a
/// deployment.
Bytes SerializeEpoch(const EncryptedEpoch& epoch);
StatusOr<EncryptedEpoch> DeserializeEpoch(Slice data);

// --- The shared record frame ---------------------------------------------
// magic "CONC" (4) | version (4) | FNV-1a(body) (8) | body length (8) | body
//
// Epoch blobs, epoch-meta files, index node-file regions and every record
// in a persistent segment file reuse this frame, so the same corruption
// checks (bad magic, unsupported version, checksum mismatch, truncation)
// guard all of them.

/// Frame size for a body of `body_size` bytes (header + body).
size_t FramedSize(size_t body_size);

/// Appends the frame + body to `out`.
void AppendFramedRecord(Bytes* out, Slice body);

/// Writes the frame + body into `dst`, which must hold at least
/// FramedSize(body.size()) bytes. Used by the mmap segment engine to
/// serialize records straight into the mapped file.
void WriteFramedRecordTo(uint8_t* dst, Slice body);

/// Parses the frame at data[*off..]. On success returns the body (a view
/// into `data`) and advances *off past the record. Returns kNotFound for a
/// clean end of a zero-filled log tail (absent magic), kInvalidArgument for
/// an unsupported version, kCorruption for any mangling (bad magic,
/// truncated frame or body, checksum mismatch).
StatusOr<Slice> ReadFramedRecord(Slice data, size_t* off);

/// ReadFramedRecord without re-hashing the body, for a frame whose bytes
/// ReadFramedRecord has already accepted (the segment engine's parse pass
/// after its checksum pass) or that this process has just written. Magic,
/// version and lengths are still checked.
StatusOr<Slice> ReadVerifiedFramedRecord(Slice data, size_t* off);

/// Incremental-reassembly peek for streaming transports (net/server.cc):
/// classifies the frame header at data[0..] without needing — or trusting —
/// the body. A reader that has only a prefix of a frame can tell apart
/// "wait for more bytes" from "this peer is speaking garbage" before
/// buffering a body whose declared length may be hostile.
enum class FramePeek {
  kNeedMoreData,  // Fewer than FramedSize(0) bytes so far; keep reading.
  kBadMagic,      // Not one of our frames: fail the connection closed.
  kBadVersion,    // Frame from an incompatible peer.
  kOk,            // Header well-formed; *body_len is the declared length.
};
FramePeek PeekFrameHeader(Slice data, uint64_t* body_len);

// --- Epoch metadata sidecar -----------------------------------------------

/// Everything a restarted service provider needs to re-adopt an ingested
/// epoch without re-shipping it: the encrypted enclave blobs (grid layout,
/// verifiable tags — rows live in the storage engine's segments) plus the
/// row-id span and segment range the epoch occupies. Written next to the
/// segment files at ingest; read back by ServiceProvider::Open.
struct EpochMeta {
  EncryptedEpoch epoch;  // rows empty — only the metadata fields matter.
  uint64_t first_row_id = 0;
  uint64_t num_rows = 0;
  uint32_t seg_lo = 0;  // Segment range holding the epoch's rows.
  uint32_t seg_hi = 0;

  // Checkpointed dynamic-mode state (dynamic_wal.h). Absent (defaults) in
  // metas written by ingest or by older builds; a checkpoint folds the
  // WAL's accumulated key-version bumps, re-encryption counter and
  // refreshed tags in here so the log can truncate. enc_dynamic_tags, when
  // non-empty, is the complete current tag set encrypted like the original
  // enc_verification_tags blob, and supersedes it.
  std::map<uint32_t, uint64_t> bin_key_versions;
  uint64_t reenc_counter = 0;
  Bytes enc_dynamic_tags;
};

/// Copy of `epoch` with its rows omitted — only the metadata fields the
/// epoch-meta sidecar persists. Rows at paper scale run to hundreds of MB
/// per epoch, so meta producers use this instead of copying the full epoch.
EncryptedEpoch StripRows(const EncryptedEpoch& epoch);

Bytes SerializeEpochMeta(const EpochMeta& meta);
StatusOr<EpochMeta> DeserializeEpochMeta(Slice data);
Status WriteEpochMetaFile(const std::string& path, const EpochMeta& meta);
StatusOr<EpochMeta> ReadEpochMetaFile(const std::string& path);

/// Whole-file helpers shared by the epoch/meta transports.
Status WriteFileBytes(const std::string& path, Slice data);
StatusOr<Bytes> ReadFileBytes(const std::string& path);

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_EPOCH_IO_H_
