#include "crypto/hmac.h"

#include <cstring>

namespace concealer {

HmacSha256::HmacSha256(Slice key) {
  uint8_t k[64] = {};
  if (key.size() > 64) {
    const Sha256::Digest d = Sha256::Hash(key);
    std::memcpy(k, d.data(), d.size());
  } else {
    std::memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
    opad_key_[i] = static_cast<uint8_t>(k[i] ^ 0x5c);
  }
  inner_.Update(Slice(ipad, sizeof(ipad)));
}

Sha256::Digest HmacSha256::Finish() {
  const Sha256::Digest inner_digest = inner_.Finish();
  Sha256 outer;
  outer.Update(Slice(opad_key_, sizeof(opad_key_)));
  outer.Update(Slice(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

Sha256::Digest HmacSha256::Compute(Slice key, Slice data) {
  HmacSha256 mac(key);
  mac.Update(data);
  return mac.Finish();
}

bool HmacSha256::Verify(Slice key, Slice data, Slice tag) {
  if (tag.empty() || tag.size() > kTagSize) return false;
  const Sha256::Digest computed = Compute(key, data);
  return ConstantTimeEqual(Slice(computed.data(), tag.size()), tag);
}

bool ConstantTimeEqual(Slice a, Slice b) {
  if (a.size() != b.size()) return false;
  // Eight bytes per step, then the tail: the oblivious filter compares
  // every fetched row with every filter through this loop.
  uint64_t acc = 0;
  size_t i = 0;
  for (; i + 8 <= a.size(); i += 8) {
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, a.data() + i, 8);
    std::memcpy(&y, b.data() + i, 8);
    acc |= x ^ y;
  }
  for (; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace concealer
