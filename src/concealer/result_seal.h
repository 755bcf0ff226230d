#ifndef CONCEALER_CONCEALER_RESULT_SEAL_H_
#define CONCEALER_CONCEALER_RESULT_SEAL_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "concealer/types.h"

namespace concealer {

/// Phase 4 (paper §2.2): the enclave returns every answer encrypted under a
/// key only the proving user can derive (DeriveResultKey: the proof doubles
/// as the user-held shared secret; public-key wrapping is out of scope per
/// §1.2), and the user decrypts it. Both sealing surfaces
/// (ServiceProvider::ExecuteForUser, QueryService::ExecuteEncrypted) and
/// every opener (Client, the wire tests) go through these functions, so the
/// sealed format exists once.

/// Individualized queries (ones naming an observation) may only target the
/// user's own device (§2.1: users are trusted with data that corresponds to
/// themselves, not with other users' data). PermissionDenied otherwise.
Status CheckObservationAccess(const Query& query,
                              const std::string& owned_observation);

/// Encrypts SerializeQueryResult(result) under `result_key`. The key is
/// deterministic per (proof, user), so every sealer must draw `nonce_seed`
/// from a clock-mixed source: CTR nonce reuse under one key leaks plaintext
/// XORs (crypto/rand_cipher.h).
StatusOr<Bytes> SealResult(const QueryResult& result, Slice result_key,
                           uint64_t nonce_seed);

/// The user's side: derives the result key from `proof` and decrypts.
StatusOr<QueryResult> OpenResult(Slice sealed, Slice proof,
                                 const std::string& user_id);

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_RESULT_SEAL_H_
