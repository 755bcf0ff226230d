#include "concealer/wire.h"

#include "common/coding.h"

namespace concealer {

Bytes KeyTimePlain(const std::vector<uint64_t>& keys, uint64_t qtime) {
  Bytes out;
  out.push_back('L');  // Column domain separator.
  PutFixed32(&out, static_cast<uint32_t>(keys.size()));
  for (uint64_t k : keys) PutFixed64(&out, k);
  PutFixed64(&out, qtime);
  return out;
}

Bytes ObsTimePlain(const std::string& observation, uint64_t qtime) {
  Bytes out;
  out.push_back('O');
  PutLengthPrefixed(&out, Slice(observation));
  PutFixed64(&out, qtime);
  return out;
}

Bytes TuplePlain(const PlainTuple& tuple) {
  Bytes out;
  out.push_back('R');
  PutFixed32(&out, static_cast<uint32_t>(tuple.keys.size()));
  for (uint64_t k : tuple.keys) PutFixed64(&out, k);
  PutFixed64(&out, tuple.time);
  PutLengthPrefixed(&out, Slice(tuple.observation));
  PutLengthPrefixed(&out, Slice(tuple.payload));
  return out;
}

StatusOr<PlainTuple> ParseTuplePlain(Slice data) {
  if (data.size() < 5 || data[0] != 'R') {
    return Status::Corruption("bad tuple plaintext header");
  }
  size_t off = 1;
  const uint32_t nkeys = DecodeFixed32(data.data() + off);
  off += 4;
  if (off + 8ull * nkeys + 8 > data.size()) {
    return Status::Corruption("tuple plaintext truncated in keys");
  }
  PlainTuple tuple;
  tuple.keys.reserve(nkeys);
  for (uint32_t i = 0; i < nkeys; ++i) {
    tuple.keys.push_back(DecodeFixed64(data.data() + off));
    off += 8;
  }
  tuple.time = DecodeFixed64(data.data() + off);
  off += 8;
  Bytes obs, payload;
  if (!GetLengthPrefixed(data, &off, &obs) ||
      !GetLengthPrefixed(data, &off, &payload)) {
    return Status::Corruption("tuple plaintext truncated in fields");
  }
  tuple.observation.assign(obs.begin(), obs.end());
  tuple.payload.assign(payload.begin(), payload.end());
  return tuple;
}

void IndexPlainTo(Bytes* out, uint32_t cell_id, uint64_t counter) {
  out->clear();
  out->push_back('I');
  PutFixed32(out, cell_id);
  PutFixed64(out, counter);
}

Bytes IndexPlain(uint32_t cell_id, uint64_t counter) {
  Bytes out;
  IndexPlainTo(&out, cell_id, counter);
  return out;
}

Bytes SerializeGridLayout(const GridLayout& layout) {
  Bytes out;
  PutFixed32(&out, static_cast<uint32_t>(layout.cell_of_cell_index.size()));
  for (uint32_t v : layout.cell_of_cell_index) PutFixed32(&out, v);
  PutFixed32(&out, static_cast<uint32_t>(layout.count_per_cell.size()));
  for (uint32_t v : layout.count_per_cell) PutFixed32(&out, v);
  PutFixed32(&out, static_cast<uint32_t>(layout.count_per_cell_id.size()));
  for (uint32_t v : layout.count_per_cell_id) PutFixed32(&out, v);
  return out;
}

namespace {
bool GetU32Vector(Slice data, size_t* off, std::vector<uint32_t>* out) {
  if (*off + 4 > data.size()) return false;
  const uint32_t n = DecodeFixed32(data.data() + *off);
  *off += 4;
  if (*off + 4ull * n > data.size()) return false;
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    (*out)[i] = DecodeFixed32(data.data() + *off);
    *off += 4;
  }
  return true;
}
}  // namespace

StatusOr<GridLayout> DeserializeGridLayout(Slice data) {
  GridLayout layout;
  size_t off = 0;
  if (!GetU32Vector(data, &off, &layout.cell_of_cell_index) ||
      !GetU32Vector(data, &off, &layout.count_per_cell) ||
      !GetU32Vector(data, &off, &layout.count_per_cell_id)) {
    return Status::Corruption("grid layout blob truncated");
  }
  return layout;
}

Bytes SerializeTags(const VerificationTags& tags) {
  Bytes out;
  PutFixed32(&out, static_cast<uint32_t>(tags.size()));
  for (const auto& [cid, t] : tags) {
    PutFixed32(&out, cid);
    PutBytes(&out, Slice(t.el.data(), t.el.size()));
    PutBytes(&out, Slice(t.eo.data(), t.eo.size()));
    PutBytes(&out, Slice(t.er.data(), t.er.size()));
  }
  return out;
}

StatusOr<VerificationTags> DeserializeTags(Slice data) {
  if (data.size() < 4) return Status::Corruption("tags blob too short");
  const uint32_t n = DecodeFixed32(data.data());
  size_t off = 4;
  constexpr size_t kD = Sha256::kDigestSize;
  VerificationTags tags;
  for (uint32_t i = 0; i < n; ++i) {
    if (off + 4 + 3 * kD > data.size()) {
      return Status::Corruption("tags blob truncated");
    }
    const uint32_t cid = DecodeFixed32(data.data() + off);
    off += 4;
    ChainTags t;
    std::copy(data.data() + off, data.data() + off + kD, t.el.begin());
    off += kD;
    std::copy(data.data() + off, data.data() + off + kD, t.eo.begin());
    off += kD;
    std::copy(data.data() + off, data.data() + off + kD, t.er.begin());
    off += kD;
    tags.emplace(cid, t);
  }
  return tags;
}

Sha256::Digest ChainStep(Slice ciphertext, const Sha256::Digest* prev) {
  Sha256 h;
  h.Update(ciphertext);
  if (prev != nullptr) h.Update(Slice(prev->data(), prev->size()));
  return h.Finish();
}

void ChainStepRow(const Row& row, bool started, ChainTags* chains) {
  Sha256::Digest* digests[3] = {&chains->el, &chains->eo, &chains->er};
  const Slice cts[3] = {row.columns[kColEl], row.columns[kColEo],
                        row.columns[kColEr]};
  Slice prevs[3];
  if (started) {
    for (int c = 0; c < 3; ++c) {
      prevs[c] = Slice(digests[c]->data(), digests[c]->size());
    }
  }
  Sha256::Digest next[3];
  Sha256::HashPairs(cts, prevs, 3, next);
  for (int c = 0; c < 3; ++c) *digests[c] = next[c];
}

uint64_t PayloadValue(const PlainTuple& tuple) {
  if (tuple.payload.size() < 8) return 0;
  return DecodeFixed64(
      reinterpret_cast<const uint8_t*>(tuple.payload.data()));
}

std::string NumericPayload(uint64_t value, const std::string& rest) {
  Bytes enc;
  PutFixed64(&enc, value);
  std::string out(enc.begin(), enc.end());
  out += rest;
  return out;
}

Bytes SerializeQueryResult(const QueryResult& result) {
  Bytes out;
  PutFixed64(&out, result.count);
  PutFixed64(&out, result.rows_fetched);
  PutFixed64(&out, result.rows_matched);
  out.push_back(result.verified ? 1 : 0);
  PutFixed32(&out, static_cast<uint32_t>(result.keyed_counts.size()));
  for (const auto& [keys, count] : result.keyed_counts) {
    PutFixed32(&out, static_cast<uint32_t>(keys.size()));
    for (uint64_t k : keys) PutFixed64(&out, k);
    PutFixed64(&out, count);
  }
  return out;
}

StatusOr<QueryResult> DeserializeQueryResult(Slice data) {
  if (data.size() < 8 * 3 + 1 + 4) {
    return Status::Corruption("query result blob too short");
  }
  QueryResult result;
  size_t off = 0;
  result.count = DecodeFixed64(data.data() + off);
  off += 8;
  result.rows_fetched = DecodeFixed64(data.data() + off);
  off += 8;
  result.rows_matched = DecodeFixed64(data.data() + off);
  off += 8;
  result.verified = data[off] != 0;
  off += 1;
  const uint32_t n = DecodeFixed32(data.data() + off);
  off += 4;
  for (uint32_t i = 0; i < n; ++i) {
    if (off + 4 > data.size()) {
      return Status::Corruption("query result blob truncated");
    }
    const uint32_t nk = DecodeFixed32(data.data() + off);
    off += 4;
    if (off + 8ull * nk + 8 > data.size()) {
      return Status::Corruption("query result blob truncated");
    }
    std::vector<uint64_t> keys(nk);
    for (uint32_t j = 0; j < nk; ++j) {
      keys[j] = DecodeFixed64(data.data() + off);
      off += 8;
    }
    const uint64_t count = DecodeFixed64(data.data() + off);
    off += 8;
    result.keyed_counts.emplace_back(std::move(keys), count);
  }
  return result;
}

}  // namespace concealer
