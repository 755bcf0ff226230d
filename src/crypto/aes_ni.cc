// x86-64 AES-NI backend: the round function in hardware, eight independent
// blocks in flight per CTR/ECB loop iteration (the aesenc pipeline is fully
// hidden at 8-deep interleave on every post-2010 core). Compiled with
// per-function target attributes, so the translation unit builds on any
// x86-64 toolchain and the instructions only execute after the CPUID probe
// in ProbeAesNiBackend() confirms support.
//
// Byte-identical to the soft backend by construction: same key schedule,
// same counter sequence (aes_internal::IncrementCounter), same cipher.

#include "crypto/aes_backend_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

#include <cstring>

namespace concealer {
namespace {

#define CONCEALER_TARGET_AES __attribute__((target("aes,sse2")))

constexpr int kNiLanes = 8;

CONCEALER_TARGET_AES inline void LoadSchedule(const uint8_t* rk, int rounds,
                                              __m128i k[15]) {
  for (int i = 0; i <= rounds; ++i) {
    k[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * i));
  }
}

CONCEALER_TARGET_AES inline __m128i EncryptOne(__m128i b, const __m128i k[15],
                                               int rounds) {
  b = _mm_xor_si128(b, k[0]);
  for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, k[r]);
  return _mm_aesenclast_si128(b, k[rounds]);
}

// Encrypts kNiLanes blocks from in to out with the round loop interleaved
// across all lanes.
CONCEALER_TARGET_AES inline void EncryptEight(const __m128i k[15], int rounds,
                                              const uint8_t* in,
                                              uint8_t* out) {
  __m128i b[kNiLanes];
  for (int j = 0; j < kNiLanes; ++j) {
    b[j] = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * j)), k[0]);
  }
  for (int r = 1; r < rounds; ++r) {
    for (int j = 0; j < kNiLanes; ++j) b[j] = _mm_aesenc_si128(b[j], k[r]);
  }
  for (int j = 0; j < kNiLanes; ++j) {
    b[j] = _mm_aesenclast_si128(b[j], k[rounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * j), b[j]);
  }
}

CONCEALER_TARGET_AES void NiEncryptBlocks(const uint8_t* rk, int rounds,
                                          const uint8_t* in, uint8_t* out,
                                          size_t nblocks) {
  __m128i k[15];
  LoadSchedule(rk, rounds, k);
  size_t b = 0;
  for (; b + kNiLanes <= nblocks; b += kNiLanes) {
    EncryptEight(k, rounds, in + 16 * b, out + 16 * b);
  }
  for (; b < nblocks; ++b) {
    const __m128i ct = EncryptOne(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * b)), k,
        rounds);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b), ct);
  }
}

// CTR core: counter blocks are materialized by the shared scalar increment
// (so the sequence across the 2^128 wrap matches every other backend), then
// encrypted eight at a time. `in == nullptr` emits raw keystream.
CONCEALER_TARGET_AES void NiCtr(const uint8_t* rk, int rounds,
                                const uint8_t iv[16], const uint8_t* in,
                                uint8_t* out, size_t len) {
  __m128i k[15];
  LoadSchedule(rk, rounds, k);
  uint8_t ctr[16];
  std::memcpy(ctr, iv, 16);
  uint8_t ctrblocks[16 * kNiLanes];
  uint8_t ks[16 * kNiLanes];
  size_t off = 0;
  while (len - off >= 16 * kNiLanes) {
    for (int j = 0; j < kNiLanes; ++j) {
      std::memcpy(ctrblocks + 16 * j, ctr, 16);
      aes_internal::IncrementCounter(ctr);
    }
    if (in != nullptr) {
      EncryptEight(k, rounds, ctrblocks, ks);
      for (int j = 0; j < kNiLanes; ++j) {
        const __m128i p = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(in + off + 16 * j));
        const __m128i s =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ks + 16 * j));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off + 16 * j),
                         _mm_xor_si128(p, s));
      }
    } else {
      EncryptEight(k, rounds, ctrblocks, out + off);
    }
    off += 16 * kNiLanes;
  }
  while (off < len) {
    const __m128i s = EncryptOne(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctr)), k, rounds);
    aes_internal::IncrementCounter(ctr);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ks), s);
    const size_t n = len - off < 16 ? len - off : 16;
    if (in != nullptr) {
      for (size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ ks[i];
    } else {
      std::memcpy(out + off, ks, n);
    }
    off += n;
  }
}

CONCEALER_TARGET_AES void NiCtrXor(const uint8_t* rk, int rounds,
                                   const uint8_t iv[16], const uint8_t* in,
                                   uint8_t* out, size_t len) {
  NiCtr(rk, rounds, iv, in, out, len);
}

CONCEALER_TARGET_AES void NiCtrKeystream(const uint8_t* rk, int rounds,
                                         const uint8_t iv[16], uint8_t* out,
                                         size_t len) {
  NiCtr(rk, rounds, iv, nullptr, out, len);
}

bool CpuHasAesNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  // ECX bit 25 = AESNI, bit 19 = SSE4.1 (guards pre-Westmere oddities).
  return (ecx & bit_AES) != 0 && (ecx & bit_SSE4_1) != 0;
}

}  // namespace

namespace aes_internal {

const AesBackendOps* ProbeAesNiBackend() {
  static const bool available = CpuHasAesNi();
  if (!available) return nullptr;
  static const AesBackendOps ops = {
      "aesni",
      /*accelerated=*/true,
      NiEncryptBlocks,
      NiCtrXor,
      NiCtrKeystream,
  };
  return &ops;
}

}  // namespace aes_internal
}  // namespace concealer

#else  // Non-x86-64 build: no AES-NI backend.

namespace concealer {
namespace aes_internal {

const AesBackendOps* ProbeAesNiBackend() { return nullptr; }

}  // namespace aes_internal
}  // namespace concealer

#endif
