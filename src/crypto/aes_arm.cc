// ARMv8 Crypto Extensions backend (guarded): the AESE/AESMC instruction
// pair for the forward cipher and CTR, four blocks interleaved per loop.
// Every mode in the system (CTR, CMAC) runs the forward cipher only.
//
// Selected only when the Linux HWCAP auxv reports AES support; the whole
// file compiles to the null probe on non-aarch64 targets.

#include "crypto/aes_backend_internal.h"

#if defined(__aarch64__) && defined(__linux__) && \
    (defined(__GNUC__) || defined(__clang__))

#include <arm_neon.h>
#include <sys/auxv.h>

#include <cstring>

#ifndef HWCAP_AES
#define HWCAP_AES (1 << 3)
#endif

namespace concealer {
namespace {

#define CONCEALER_TARGET_CE __attribute__((target("+crypto")))

constexpr int kCeLanes = 4;

// AESE xors the round key *before* SubBytes/ShiftRows, so the schedule is
// consumed one key early relative to the x86 shape: rounds-1 full rounds,
// a final AESE with k[rounds-1], then the last AddRoundKey.
CONCEALER_TARGET_CE inline uint8x16_t EncryptOne(uint8x16_t b,
                                                 const uint8_t* rk,
                                                 int rounds) {
  for (int r = 0; r < rounds - 1; ++r) {
    b = vaesmcq_u8(vaeseq_u8(b, vld1q_u8(rk + 16 * r)));
  }
  b = vaeseq_u8(b, vld1q_u8(rk + 16 * (rounds - 1)));
  return veorq_u8(b, vld1q_u8(rk + 16 * rounds));
}

CONCEALER_TARGET_CE void CeEncryptBlocks(const uint8_t* rk, int rounds,
                                         const uint8_t* in, uint8_t* out,
                                         size_t nblocks) {
  size_t b = 0;
  for (; b + kCeLanes <= nblocks; b += kCeLanes) {
    uint8x16_t s[kCeLanes];
    for (int j = 0; j < kCeLanes; ++j) s[j] = vld1q_u8(in + 16 * (b + j));
    for (int r = 0; r < rounds - 1; ++r) {
      const uint8x16_t k = vld1q_u8(rk + 16 * r);
      for (int j = 0; j < kCeLanes; ++j) s[j] = vaesmcq_u8(vaeseq_u8(s[j], k));
    }
    const uint8x16_t klast = vld1q_u8(rk + 16 * (rounds - 1));
    const uint8x16_t kfinal = vld1q_u8(rk + 16 * rounds);
    for (int j = 0; j < kCeLanes; ++j) {
      vst1q_u8(out + 16 * (b + j),
               veorq_u8(vaeseq_u8(s[j], klast), kfinal));
    }
  }
  for (; b < nblocks; ++b) {
    vst1q_u8(out + 16 * b, EncryptOne(vld1q_u8(in + 16 * b), rk, rounds));
  }
}

CONCEALER_TARGET_CE void CeCtr(const uint8_t* rk, int rounds,
                               const uint8_t iv[16], const uint8_t* in,
                               uint8_t* out, size_t len) {
  uint8_t ctr[16];
  std::memcpy(ctr, iv, 16);
  uint8_t blocks[16 * kCeLanes];
  uint8_t ks[16 * kCeLanes];
  size_t off = 0;
  while (len - off >= 16 * kCeLanes) {
    for (int j = 0; j < kCeLanes; ++j) {
      std::memcpy(blocks + 16 * j, ctr, 16);
      aes_internal::IncrementCounter(ctr);
    }
    CeEncryptBlocks(rk, rounds, blocks, ks, kCeLanes);
    if (in != nullptr) {
      for (int j = 0; j < kCeLanes; ++j) {
        vst1q_u8(out + off + 16 * j,
                 veorq_u8(vld1q_u8(in + off + 16 * j), vld1q_u8(ks + 16 * j)));
      }
    } else {
      std::memcpy(out + off, ks, 16 * kCeLanes);
    }
    off += 16 * kCeLanes;
  }
  while (off < len) {
    vst1q_u8(ks, EncryptOne(vld1q_u8(ctr), rk, rounds));
    aes_internal::IncrementCounter(ctr);
    const size_t n = len - off < 16 ? len - off : 16;
    if (in != nullptr) {
      for (size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ ks[i];
    } else {
      std::memcpy(out + off, ks, n);
    }
    off += n;
  }
}

CONCEALER_TARGET_CE void CeCtrXor(const uint8_t* rk, int rounds,
                                  const uint8_t iv[16], const uint8_t* in,
                                  uint8_t* out, size_t len) {
  CeCtr(rk, rounds, iv, in, out, len);
}

CONCEALER_TARGET_CE void CeCtrKeystream(const uint8_t* rk, int rounds,
                                        const uint8_t iv[16], uint8_t* out,
                                        size_t len) {
  CeCtr(rk, rounds, iv, nullptr, out, len);
}

}  // namespace

namespace aes_internal {

const AesBackendOps* ProbeArmCeBackend() {
  static const bool available = (getauxval(AT_HWCAP) & HWCAP_AES) != 0;
  if (!available) return nullptr;
  static const AesBackendOps ops = {
      "armv8ce",
      /*accelerated=*/true,
      CeEncryptBlocks,
      CeCtrXor,
      CeCtrKeystream,
  };
  return &ops;
}

}  // namespace aes_internal
}  // namespace concealer

#else  // Non-aarch64 build: no ARMv8-CE backend.

namespace concealer {
namespace aes_internal {

const AesBackendOps* ProbeArmCeBackend() { return nullptr; }

}  // namespace aes_internal
}  // namespace concealer

#endif
