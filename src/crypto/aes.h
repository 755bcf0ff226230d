#ifndef CONCEALER_CRYPTO_AES_H_
#define CONCEALER_CRYPTO_AES_H_

#include <cstdint>

#include "common/slice.h"
#include "common/status.h"
#include "crypto/aes_backend.h"

namespace concealer {

/// AES block cipher (FIPS-197) supporting 128- and 256-bit keys. This is
/// the primitive underneath both the deterministic cipher used for
/// trapdoor-matchable columns (paper §3, "a variant of DET") and the
/// randomized cipher used for the `End()` non-deterministic fields.
///
/// The round function runs on a backend selected at construction time
/// (see aes_backend.h): AES-NI or ARMv8-CE hardware instructions when the
/// CPU has them, else a pipelined T-table software implementation. All
/// backends share one key schedule and produce identical ciphertexts; the
/// multi-block entry points (EncryptBlocks, AesCtr) are where the hardware
/// pipelines pay off — prefer them over per-block loops on hot paths.
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  Aes() = default;

  /// Initializes the key schedule and binds the active backend (see
  /// ActiveAesBackend()). `key.size()` must be 16 or 32.
  Status SetKey(Slice key);

  /// Like SetKey but pins an explicit backend — differential tests and the
  /// crypto microbench compare soft vs. accelerated this way.
  Status SetKey(Slice key, const AesBackendOps* ops);

  /// Encrypts exactly one 16-byte block (in-place safe: in may equal out).
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// Encrypts `nblocks` independent 16-byte blocks back to back (ECB over
  /// the batch; in-place safe). The batched CMAC rides this to keep 4-8
  /// lanes in the hardware pipeline.
  void EncryptBlocks(const uint8_t* in, uint8_t* out, size_t nblocks) const;

  bool initialized() const { return rounds_ != 0; }

  /// The backend this instance is bound to (null before SetKey).
  const AesBackendOps* backend() const { return ops_; }

  /// Key-schedule accessors for the CTR driver (AesCtr).
  const uint8_t* round_keys() const { return round_keys_; }
  int rounds() const { return rounds_; }

 private:
  // Round keys: (rounds_+1) * 16 bytes; max 15 round keys for AES-256.
  uint8_t round_keys_[15 * kBlockSize] = {};
  int rounds_ = 0;  // 10 for AES-128, 14 for AES-256.
  const AesBackendOps* ops_ = nullptr;
};

/// AES in counter mode: a length-preserving keystream cipher over whole
/// buffers. The caller supplies a 16-byte initial counter block;
/// encryption == decryption. Used by DetCipher (synthetic IV), RandCipher
/// (random nonce) and the keyed DRBG. One call processes the entire buffer
/// through the backend's multi-block pipeline.
struct AesCtr {
  /// out = in ^ keystream. `out` may alias `in.data()` exactly.
  static void Xor(const Aes& aes, const uint8_t iv[Aes::kBlockSize], Slice in,
                  uint8_t* out);

  /// In-place variant for zero-copy encrypt/decrypt of owned buffers.
  static void XorInPlace(const Aes& aes, const uint8_t iv[Aes::kBlockSize],
                         uint8_t* data, size_t len);

  /// Writes `len` raw keystream bytes — the one-shot path RandomBytes uses
  /// (equivalent to Xor over zeros, without materializing the zeros).
  static void Keystream(const Aes& aes, const uint8_t iv[Aes::kBlockSize],
                        uint8_t* out, size_t len);
};

}  // namespace concealer

#endif  // CONCEALER_CRYPTO_AES_H_
