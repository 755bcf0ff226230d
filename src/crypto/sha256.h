#ifndef CONCEALER_CRYPTO_SHA256_H_
#define CONCEALER_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace concealer {

/// A SHA-256 block function (the FIPS-180-4 compression of 64-byte blocks
/// into the eight-word chaining state). Every backend computes the same
/// function on the same state layout, so digests, HMAC tags and hash-chain
/// tags are byte-identical whichever one runs.
///
/// Two implementations exist:
///   - "soft":  portable C (always available).
///   - "shani": x86-64 SHA extensions, compiled per function with target
///              attributes and selected only when CPUID reports SHA, SSSE3
///              and SSE4.1.
struct Sha256Backend {
  const char* name;  // "soft", "shani".

  /// Folds `nblocks` consecutive 64-byte blocks into `state`.
  void (*compress)(uint32_t state[8], const uint8_t* blocks, size_t nblocks);

  /// Folds blocks[i] into states[i] for i < n (n <= Sha256::kMaxLanes).
  /// The states are independent, so a backend may interleave the lanes'
  /// rounds to overlap one lane's instruction latency with another's.
  void (*compress_lanes)(uint32_t* const* states,
                         const uint8_t* const* blocks, size_t n);
};

/// The portable backend. Never null.
const Sha256Backend* SoftSha256Backend();

/// The hardware backend this CPU supports, or null (CPUID, probed once).
const Sha256Backend* AcceleratedSha256Backend();

/// The backend every hash uses: the accelerated one when the CPU has it,
/// else soft, unless a ScopedShaBackendOverride is alive.
const Sha256Backend* ActiveSha256Backend();

/// Pins ActiveSha256Backend() for its lifetime (tests and benches). Hashes
/// look the backend up per call, so construct it before the work it should
/// cover, in single-threaded setup.
class ScopedShaBackendOverride {
 public:
  explicit ScopedShaBackendOverride(const Sha256Backend* backend);
  ~ScopedShaBackendOverride();

  ScopedShaBackendOverride(const ScopedShaBackendOverride&) = delete;
  ScopedShaBackendOverride& operator=(const ScopedShaBackendOverride&) =
      delete;

 private:
  const Sha256Backend* prev_;
};

/// SHA-256 (FIPS-180-4). Streaming interface plus one-shot helpers.
/// Used for the hash chains / verifiable tags (paper §3, Lines 16-21) and
/// as the PRF core of HMAC.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  using Digest = std::array<uint8_t, kDigestSize>;

  /// Messages HashPairs keeps in flight per block-function call: one
  /// per hash chain of a row (El, Eo, Er).
  static constexpr size_t kMaxLanes = 3;

  Sha256() { Reset(); }

  void Reset();
  void Update(Slice data);
  Digest Finish();

  /// One-shot convenience: digest of `data`.
  static Digest Hash(Slice data);

  /// out[i] = Hash(a[i] ‖ b[i]) for i < n, kMaxLanes messages at a time
  /// with their blocks compressed in lockstep (the way
  /// AesCmac::ComputeBatch runs its CBC chains).
  static void HashPairs(const Slice* a, const Slice* b, size_t n,
                        Digest* out);

 private:
  uint32_t h_[8];
  uint8_t buffer_[64];
  size_t buffer_len_;
  uint64_t total_len_;
};

}  // namespace concealer

#endif  // CONCEALER_CRYPTO_SHA256_H_
