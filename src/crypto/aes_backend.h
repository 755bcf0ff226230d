#ifndef CONCEALER_CRYPTO_AES_BACKEND_H_
#define CONCEALER_CRYPTO_AES_BACKEND_H_

#include <cstddef>
#include <cstdint>

namespace concealer {

/// A pluggable AES implementation. Every operation takes the FIPS-197
/// encryption key schedule produced by Aes::SetKey (byte layout is the
/// standard column-major expansion, identical for every backend), so the
/// same Aes object can run on any backend and the ciphertext bytes are
/// identical by construction — hardware AES computes the same function,
/// just faster.
///
/// Three implementations exist:
///   - "soft":    portable T-table code with a 4-block ILP pipeline for CTR
///                and multi-block ECB (aes_soft.cc; always available).
///   - "aesni":   x86-64 AES-NI + SSE, 8 independent blocks in flight per
///                loop (aes_ni.cc; compiled per-function with target
///                attributes, selected only when CPUID reports AES support).
///   - "armv8ce": ARMv8 Crypto Extensions (aes_arm.cc; guarded, selected
///                only when HWCAP reports AES support).
struct AesBackendOps {
  const char* name;  // "soft", "aesni", "armv8ce".
  bool accelerated;  // True for the hardware-instruction backends.

  /// ECB over `nblocks` independent 16-byte blocks (in-place safe when
  /// in == out). This is the primitive the multi-lane CMAC batch rides.
  void (*encrypt_blocks)(const uint8_t* rk, int rounds, const uint8_t* in,
                         uint8_t* out, size_t nblocks);

  /// CTR keystream XOR over an arbitrary-length buffer: out = in ^ KS where
  /// KS = E(iv), E(iv+1), ... (128-bit big-endian counter, wrapping).
  /// In-place safe (in == out).
  void (*ctr_xor)(const uint8_t* rk, int rounds, const uint8_t iv[16],
                  const uint8_t* in, uint8_t* out, size_t len);

  /// Writes `len` raw keystream bytes (== ctr_xor over zeros, without the
  /// zeros buffer). Used by RandCipher::RandomBytes.
  void (*ctr_keystream)(const uint8_t* rk, int rounds, const uint8_t iv[16],
                        uint8_t* out, size_t len);
};

/// The portable pipelined software backend. Never null.
const AesBackendOps* SoftAesBackend();

/// The hardware backend this CPU supports, or null if none (detected once
/// via CPUID / HWCAP).
const AesBackendOps* AcceleratedAesBackend();

/// The backend new Aes instances bind to: the accelerated backend when the
/// CPU has one, else soft. ScopedAesBackendOverride (tests) overrides the
/// choice.
const AesBackendOps* ActiveAesBackend();

/// Scoped test/bench override of ActiveAesBackend(). Affects only Aes
/// objects keyed while the override is alive (backends bind at SetKey).
/// Not thread-safe against concurrent SetKey — construct in single-threaded
/// test setup only.
class ScopedAesBackendOverride {
 public:
  explicit ScopedAesBackendOverride(const AesBackendOps* ops);
  ~ScopedAesBackendOverride();

  ScopedAesBackendOverride(const ScopedAesBackendOverride&) = delete;
  ScopedAesBackendOverride& operator=(const ScopedAesBackendOverride&) =
      delete;

 private:
  const AesBackendOps* prev_;
};

}  // namespace concealer

#endif  // CONCEALER_CRYPTO_AES_BACKEND_H_
