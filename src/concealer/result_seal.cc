#include "concealer/result_seal.h"

#include "concealer/wire.h"
#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"

namespace concealer {

Status CheckObservationAccess(const Query& query,
                              const std::string& owned_observation) {
  if (!query.observation.empty() && query.observation != owned_observation) {
    return Status::PermissionDenied("user may not query observation '" +
                                    query.observation + "'");
  }
  return Status::OK();
}

StatusOr<Bytes> SealResult(const QueryResult& result, Slice result_key,
                           uint64_t nonce_seed) {
  RandCipher cipher;
  CONCEALER_RETURN_IF_ERROR(cipher.SetKey(result_key, nonce_seed));
  return cipher.Encrypt(SerializeQueryResult(result));
}

StatusOr<QueryResult> OpenResult(Slice sealed, Slice proof,
                                 const std::string& user_id) {
  RandCipher cipher;
  CONCEALER_RETURN_IF_ERROR(cipher.SetKey(DeriveResultKey(proof, user_id)));
  StatusOr<Bytes> plain = cipher.Decrypt(sealed);
  if (!plain.ok()) return plain.status();
  return DeserializeQueryResult(*plain);
}

}  // namespace concealer
