#include "concealer/data_provider.h"

#include <map>

#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"

namespace concealer {

DataProvider::DataProvider(ConcealerConfig config, Bytes sk)
    : config_(config), sk_(std::move(sk)), encryptor_(config_, sk_) {}

Status DataProvider::RegisterUser(const std::string& user_id,
                                  Slice user_secret,
                                  const std::string& owned_observation) {
  return registry_.AddUser(user_id, user_secret, owned_observation);
}

Bytes DataProvider::EncryptedRegistry() const {
  RandCipher cipher;
  const Status st = cipher.SetKey(DeriveKey(sk_, "registry", Slice()),
                                  /*nonce_seed=*/0x7e9);
  (void)st;  // 32-byte derived key cannot fail.
  // RandCipher::Encrypt is stateful (nonce counter), hence the local copy.
  return cipher.Encrypt(registry_.Serialize());
}

StatusOr<EncryptedEpoch> DataProvider::EncryptEpoch(
    uint64_t epoch_id, uint64_t epoch_start,
    const std::vector<PlainTuple>& tuples) const {
  return encryptor_.EncryptEpoch(epoch_id, epoch_start, tuples);
}

StatusOr<std::vector<EncryptedEpoch>> DataProvider::EncryptAll(
    const std::vector<PlainTuple>& tuples) const {
  std::map<uint64_t, std::vector<PlainTuple>> by_epoch;
  if (config_.time_buckets == 0) {
    by_epoch[0] = tuples;
  } else {
    for (const PlainTuple& t : tuples) {
      by_epoch[t.time / config_.epoch_seconds].push_back(t);
    }
  }
  std::vector<EncryptedEpoch> epochs;
  epochs.reserve(by_epoch.size());
  for (const auto& [eid, batch] : by_epoch) {
    StatusOr<EncryptedEpoch> epoch =
        EncryptEpoch(eid, eid * config_.epoch_seconds, batch);
    if (!epoch.ok()) return epoch.status();
    epochs.push_back(std::move(*epoch));
  }
  return epochs;
}

}  // namespace concealer
