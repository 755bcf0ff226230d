#ifndef CONCEALER_CONCEALER_WIRE_H_
#define CONCEALER_CONCEALER_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "concealer/types.h"
#include "crypto/sha256.h"

namespace concealer {

/// Canonical plaintext encodings shared by the data provider's encryptor
/// and the enclave's trapdoor/filter generation. Both sides must produce
/// byte-identical plaintexts for DET matching to work, so every encoding
/// lives here.

/// Plaintext of the El filter column: keys ‖ quantized time (Table 2c's
/// `l ‖ t`).
Bytes KeyTimePlain(const std::vector<uint64_t>& keys, uint64_t qtime);

/// Plaintext of the Eo filter column: observation ‖ quantized time.
Bytes ObsTimePlain(const std::string& observation, uint64_t qtime);

/// Plaintext of the Er full-tuple column: keys ‖ exact time ‖ observation ‖
/// payload.
Bytes TuplePlain(const PlainTuple& tuple);

/// Parses an Er plaintext back into a tuple.
StatusOr<PlainTuple> ParseTuplePlain(Slice data);

/// Plaintext of the Index column: cid ‖ counter (Alg. 1 line 10). Fake
/// tuples use cid = kFakeCellId (the paper's `f ‖ j`).
Bytes IndexPlain(uint32_t cell_id, uint64_t counter);

/// Allocation-free variant: overwrites `out` (clearing first). Trapdoor
/// generation calls this once per (cid, counter) with a reused scratch
/// buffer instead of allocating a fresh 13-byte vector per trapdoor.
void IndexPlainTo(Bytes* out, uint32_t cell_id, uint64_t counter);

/// Serialization of the DP-shared grid layout vectors (Ecell_id, Ec_tuple).
Bytes SerializeGridLayout(const GridLayout& layout);
StatusOr<GridLayout> DeserializeGridLayout(Slice data);

/// Per-cell-id verifiable tags: final hash-chain digests for the El, Eo and
/// Er columns (Alg. 1 lines 16-21).
struct ChainTags {
  Sha256::Digest el;
  Sha256::Digest eo;
  Sha256::Digest er;
};
using VerificationTags = std::map<uint32_t, ChainTags>;

Bytes SerializeTags(const VerificationTags& tags);
StatusOr<VerificationTags> DeserializeTags(Slice data);

/// One hash-chain step: h_j = SHA256(ciphertext ‖ h_{j-1}); h_0 = SHA256(ct).
Sha256::Digest ChainStep(Slice ciphertext, const Sha256::Digest* prev);

/// One step of a row's El, Eo and Er chains together: each digest in
/// `chains` advances by ChainStep over the row's matching column, from no
/// previous digest when `started` is false. The three hashes run as lanes
/// of one Sha256::HashPairs call; the digests equal three ChainStep calls.
void ChainStepRow(const Row& row, bool started, ChainTags* chains);

/// Numeric value convention for kSum/kMin/kMax aggregates: the first 8
/// bytes of the payload, little-endian (0 if the payload is shorter).
uint64_t PayloadValue(const PlainTuple& tuple);

/// Encodes a numeric value as a payload prefix (inverse of PayloadValue).
std::string NumericPayload(uint64_t value, const std::string& rest = "");

/// Serialization of query answers for the final user-encrypted response
/// (Phase 4: "On receiving the answer, U decrypts them").
Bytes SerializeQueryResult(const QueryResult& result);
StatusOr<QueryResult> DeserializeQueryResult(Slice data);

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_WIRE_H_
