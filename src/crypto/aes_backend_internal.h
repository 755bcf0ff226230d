#ifndef CONCEALER_CRYPTO_AES_BACKEND_INTERNAL_H_
#define CONCEALER_CRYPTO_AES_BACKEND_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "crypto/aes_backend.h"

// Cross-backend internals: the dispatcher (aes_backend.cc) pulls the
// per-architecture probe functions from here, and every backend shares the
// S-box and the counter increment.

namespace concealer {
namespace aes_internal {

/// FIPS-197 S-box (defined in aes_soft.cc; also used by Aes::SetKey for
/// the portable key expansion every backend shares).
extern const uint8_t kAesSBox[256];

/// Increments a 16-byte big-endian counter block in place (wraps at
/// 2^128). Shared by every backend so the counter sequence — including the
/// overflow boundary — is identical bit-for-bit.
inline void IncrementCounter(uint8_t counter[16]) {
  for (int i = 15; i >= 0; --i) {
    if (++counter[i] != 0) break;
  }
}

/// Returns the AES-NI backend if this build targets x86-64 and the CPU
/// reports AES support, else null (aes_ni.cc; stub on other arches).
const AesBackendOps* ProbeAesNiBackend();

/// Returns the ARMv8-CE backend if this build targets aarch64 and HWCAP
/// reports AES support, else null (aes_arm.cc; stub on other arches).
const AesBackendOps* ProbeArmCeBackend();

}  // namespace aes_internal
}  // namespace concealer

#endif  // CONCEALER_CRYPTO_AES_BACKEND_INTERNAL_H_
