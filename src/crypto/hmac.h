#ifndef CONCEALER_CRYPTO_HMAC_H_
#define CONCEALER_CRYPTO_HMAC_H_

#include "common/slice.h"
#include "crypto/sha256.h"

namespace concealer {

/// HMAC-SHA256 (RFC 2104). Used as the PRF for key derivation, as the keyed
/// grid hash `H`, and as the authentication tag of the randomized cipher.
class HmacSha256 {
 public:
  static constexpr size_t kTagSize = Sha256::kDigestSize;

  /// Computes HMAC-SHA256(key, data).
  static Sha256::Digest Compute(Slice key, Slice data);

  /// Computes HMAC-SHA256(key, data) and constant-time-compares its first
  /// `tag.size()` bytes against `tag` (truncated-tag verification, as the
  /// randomized cipher's 16-byte encrypt-then-MAC tag uses). `tag.size()`
  /// must be in (0, kTagSize].
  static bool Verify(Slice key, Slice data, Slice tag);

  /// Streaming interface.
  explicit HmacSha256(Slice key);
  void Update(Slice data) { inner_.Update(data); }
  Sha256::Digest Finish();

 private:
  Sha256 inner_;
  uint8_t opad_key_[64];
};

/// Constant-time comparison of two equal-length buffers; returns true iff
/// equal. Avoids early-exit timing leaks when verifying tags.
bool ConstantTimeEqual(Slice a, Slice b);

}  // namespace concealer

#endif  // CONCEALER_CRYPTO_HMAC_H_
