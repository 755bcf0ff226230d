#ifndef CONCEALER_CRYPTO_KDF_H_
#define CONCEALER_CRYPTO_KDF_H_

#include <cstdint>
#include <string>

#include "common/slice.h"

namespace concealer {

/// HMAC-based key derivation (single-block HKDF-Expand). Concealer derives a
/// fresh key per epoch as `k ← KDF(sk, eid)` (paper §3, "Key generation"),
/// so equal values in different epochs encrypt to different ciphertexts
/// (forward privacy, §7). Re-encryption keys during dynamic insertion add a
/// per-round counter to the context (paper §6, footnote 7).
///
/// All derived keys are 32 bytes (AES-256 / HMAC key size). Derivation is
/// HMAC-SHA256, deliberately independent of the AES backend dispatch
/// (aes_backend.h): every backend keys its ciphers with identical bytes, so
/// backend choice can never change a ciphertext or trapdoor.
Bytes DeriveKey(Slice master, const std::string& label, Slice context);

/// Convenience: context is a 64-bit integer (epoch-id, counter...).
Bytes DeriveKey64(Slice master, const std::string& label, uint64_t context);

/// Derives the epoch key `k = KDF(sk, "epoch", eid || reenc_counter)`.
/// `reenc_counter` is 0 for freshly ingested data and is bumped every time
/// the round's bins are re-encrypted by the enclave (paper §6).
Bytes EpochKey(Slice sk, uint64_t epoch_id, uint64_t reenc_counter = 0);

/// Derives the Phase 4 result-encryption key from a user's authentication
/// proof. The single definition shared by every surface that must agree on
/// it: the enclave side that seals answers (ServiceProvider::ExecuteForUser,
/// the service layer's sessions) and the user side that opens them
/// (OpenResult in concealer/result_seal.h).
Bytes DeriveResultKey(Slice proof, const std::string& user_id);

}  // namespace concealer

#endif  // CONCEALER_CRYPTO_KDF_H_
