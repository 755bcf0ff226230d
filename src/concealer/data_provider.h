#ifndef CONCEALER_CONCEALER_DATA_PROVIDER_H_
#define CONCEALER_CONCEALER_DATA_PROVIDER_H_

#include <map>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "concealer/encryptor.h"
#include "concealer/types.h"
#include "enclave/registry.h"

namespace concealer {

/// The trusted data provider (paper §2.1): collects users' spatial
/// time-series data, maintains the per-SP user registry (Phase 0), and
/// encrypts each epoch with Algorithm 1 before shipping it (Phase 1).
///
/// Key provisioning: the DP generates the shared secret `sk` and hands it
/// to the enclave out of band (`shared_secret()` models the DP–SGX key
/// exchange the paper scopes out in §1.2).
class DataProvider {
 public:
  DataProvider(ConcealerConfig config, Bytes sk);

  /// Registers a user for this service provider's applications.
  /// `owned_observation` is the device id the user may run individualized
  /// queries about (empty = aggregate-only).
  Status RegisterUser(const std::string& user_id, Slice user_secret,
                      const std::string& owned_observation);

  /// The encrypted registry blob shipped to SP (decryptable only inside
  /// the enclave).
  Bytes EncryptedRegistry() const;

  /// Algorithm 1 over one epoch's tuples.
  StatusOr<EncryptedEpoch> EncryptEpoch(
      uint64_t epoch_id, uint64_t epoch_start,
      const std::vector<PlainTuple>& tuples) const;

  /// Splits a tuple stream into epochs by timestamp and encrypts each
  /// (epoch_id = timestamp / epoch_seconds). For non-time-series data
  /// (time_buckets == 0) everything lands in epoch 0.
  StatusOr<std::vector<EncryptedEpoch>> EncryptAll(
      const std::vector<PlainTuple>& tuples) const;

  /// Models the out-of-band DP–SGX key agreement.
  const Bytes& shared_secret() const { return sk_; }
  const ConcealerConfig& config() const { return config_; }

 private:
  ConcealerConfig config_;
  Bytes sk_;
  EpochEncryptor encryptor_;
  Registry registry_;
};

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_DATA_PROVIDER_H_
