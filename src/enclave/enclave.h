#ifndef CONCEALER_ENCLAVE_ENCLAVE_H_
#define CONCEALER_ENCLAVE_ENCLAVE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "crypto/det_cipher.h"
#include "crypto/grid_hash.h"
#include "crypto/rand_cipher.h"
#include "enclave/registry.h"

namespace concealer {

/// An authenticated user session returned by Enclave::Authenticate.
struct Session {
  std::string user_id;
  /// Observation value this user may run individualized queries about
  /// (empty = aggregate queries only).
  std::string owned_observation;
};

/// Software simulation of the SGX enclave hosted at the service provider
/// (paper §2.1–§2.2). It models the three properties the algorithms rely on:
///
///  1. *Key secrecy*: the shared secret `sk` lives only inside this object
///     ("sealed"); the untrusted SP code paths never receive it.
///  2. *A narrow ECALL surface*: the host interacts via LoadRegistry /
///     Authenticate / cipher factories, mirroring how an enclave exposes
///     ecalls. Every boundary crossing is counted (`ecalls()`), since
///     enclave transitions are the expensive unit in SGX deployments.
///  3. *Trusted-side crypto*: per-epoch DET/randomized ciphers and the grid
///     hash `H` are derived inside the enclave from `sk`, matching Alg. 1's
///     `k ← sk‖eid` key schedule.
///
/// docs/ARCHITECTURE.md explains why a simulation preserves the paper's
/// measured behaviour (the SGX SDK's sim mode executes the same code).
class Enclave {
 public:
  /// `sk` is the 32-byte secret shared with the data provider (paper §2.1).
  explicit Enclave(Bytes sk);

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  /// Decrypts and installs the DP-provisioned user registry (Phase 0).
  /// `encrypted_registry` must be RandCipher ciphertext under the shared key.
  Status LoadRegistry(Slice encrypted_registry);

  /// Authenticates a user (Phase 3 pre-processing): the proof must equal the
  /// registered credential. Constant-time comparison. Const — and safe to
  /// call concurrently — because the registry is read-only after
  /// LoadRegistry (the one setup-time write, which must not race with this).
  StatusOr<Session> Authenticate(const std::string& user_id,
                                 Slice proof) const;

  /// Builds the deterministic cipher for an epoch: E_k with
  /// k = KDF(sk, eid, reenc_counter). Fails only on internal key errors.
  StatusOr<DetCipher> EpochDetCipher(uint64_t epoch_id,
                                     uint64_t reenc_counter = 0) const;

  /// Builds the randomized cipher (End) for an epoch.
  StatusOr<RandCipher> EpochRandCipher(uint64_t epoch_id,
                                       uint64_t reenc_counter = 0) const;

  /// The shared grid hash H (same instance DP uses for cell formation).
  const GridHash& grid_hash() const { return grid_hash_; }

  /// Decrypts a DP-provisioned randomized blob (cell_id / c_tuple vectors,
  /// verifiable tags) sent under the epoch's randomized key.
  StatusOr<Bytes> DecryptEpochBlob(uint64_t epoch_id, Slice ciphertext) const;

  uint64_t ecalls() const { return ecalls_.load(std::memory_order_relaxed); }

 private:
  Bytes sk_;  // Sealed secret: never exposed through the public surface.
  GridHash grid_hash_;
  Registry registry_;
  bool registry_loaded_ = false;
  /// Atomic: cipher factories are called concurrently by the parallel
  /// fetch path (one DetCipher per worker, derived inside the enclave).
  mutable std::atomic<uint64_t> ecalls_{0};
};

}  // namespace concealer

#endif  // CONCEALER_ENCLAVE_ENCLAVE_H_
