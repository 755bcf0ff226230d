// Backend registry and runtime dispatch: probe the CPU once, and let tests
// swap the active backend with a scoped override.

#include "crypto/aes_backend.h"

#include <atomic>

#include "crypto/aes_backend_internal.h"

namespace concealer {

namespace {

// Test override; null means "use the detected default".
std::atomic<const AesBackendOps*> g_override{nullptr};

}  // namespace

const AesBackendOps* AcceleratedAesBackend() {
  static const AesBackendOps* accel = [] {
    if (const AesBackendOps* ni = aes_internal::ProbeAesNiBackend()) return ni;
    if (const AesBackendOps* ce = aes_internal::ProbeArmCeBackend()) return ce;
    return static_cast<const AesBackendOps*>(nullptr);
  }();
  return accel;
}

const AesBackendOps* ActiveAesBackend() {
  const AesBackendOps* forced = g_override.load(std::memory_order_acquire);
  if (forced != nullptr) return forced;
  const AesBackendOps* accel = AcceleratedAesBackend();
  return accel != nullptr ? accel : SoftAesBackend();
}

ScopedAesBackendOverride::ScopedAesBackendOverride(const AesBackendOps* ops)
    : prev_(g_override.exchange(ops, std::memory_order_acq_rel)) {}

ScopedAesBackendOverride::~ScopedAesBackendOverride() {
  g_override.store(prev_, std::memory_order_release);
}

}  // namespace concealer
