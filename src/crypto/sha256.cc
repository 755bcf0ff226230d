#include "crypto/sha256.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CONCEALER_HAVE_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace concealer {

namespace {
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                       0xa54ff53a, 0x510e527f, 0x9b05688c,
                                       0x1f83d9ab, 0x5be0cd19};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// --- Portable backend ------------------------------------------------------

void SoftCompress(uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  for (size_t n = 0; n < nblocks; ++n) {
    const uint8_t* block = blocks + 64 * n;
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t(block[4 * i]) << 24) |
             (uint32_t(block[4 * i + 1]) << 16) |
             (uint32_t(block[4 * i + 2]) << 8) | uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// Scalar rounds have no cross-lane parallelism to exploit beyond what the
// out-of-order core finds on its own: one lane after another.
void SoftCompressLanes(uint32_t* const* states, const uint8_t* const* blocks,
                       size_t n) {
  for (size_t l = 0; l < n; ++l) SoftCompress(states[l], blocks[l], 1);
}

constexpr Sha256Backend kSoftBackend = {"soft", SoftCompress,
                                        SoftCompressLanes};

// --- x86-64 SHA extensions -------------------------------------------------
//
// sha256rnds2 runs two rounds on the state split as ABEF/CDGH; msg1/msg2
// extend the message schedule four words at a time. Every round depends on
// the previous one, so NiRounds<L> advances L independent states group by
// group to let one lane's rnds2 latency overlap another's. What that buys
// depends on the core's rnds2 throughput: about 15% per block on the
// Sapphire Rapids-class Xeon the benchmarks ran on.

#ifdef CONCEALER_HAVE_SHANI

#define CONCEALER_TARGET_SHA __attribute__((target("sha,sse4.1,ssse3")))

CONCEALER_TARGET_SHA inline void LoadState(const uint32_t s[8], __m128i* abef,
                                           __m128i* cdgh) {
  const __m128i dcba =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(s)),
                        0xB1);  // CDAB
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 4)), 0x1B);
  *abef = _mm_alignr_epi8(dcba, efgh, 8);
  *cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
}

CONCEALER_TARGET_SHA inline void StoreState(__m128i abef, __m128i cdgh,
                                            uint32_t s[8]) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

// One block into each of L states, the 16 four-round groups interleaved
// across the lanes.
template <int L>
CONCEALER_TARGET_SHA inline void NiRounds(uint32_t* const* states,
                                          const uint8_t* const* blocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef[L], cdgh[L], abef_in[L], cdgh_in[L], w[L][4];
  for (int l = 0; l < L; ++l) {
    LoadState(states[l], &abef[l], &cdgh[l]);
    abef_in[l] = abef[l];
    cdgh_in[l] = cdgh[l];
  }
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    const __m128i k =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
#pragma GCC unroll 3
    for (int l = 0; l < L; ++l) {
      // w[l][g % 4] holds schedule words 4g..4g+3; the three other slots
      // hold the previous three groups'.
      __m128i x;
      if (g < 4) {
        x = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                 blocks[l] + 16 * g)),
                             bswap);
      } else {
        const __m128i prev = w[l][(g + 3) & 3];
        x = _mm_sha256msg1_epu32(w[l][g & 3], w[l][(g + 1) & 3]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(prev, w[l][(g + 2) & 3], 4));
        x = _mm_sha256msg2_epu32(x, prev);
      }
      w[l][g & 3] = x;
      const __m128i wk = _mm_add_epi32(x, k);
      cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk);
      abef[l] =
          _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(wk, 0x0E));
    }
  }
  for (int l = 0; l < L; ++l) {
    StoreState(_mm_add_epi32(abef[l], abef_in[l]),
               _mm_add_epi32(cdgh[l], cdgh_in[l]), states[l]);
  }
}

CONCEALER_TARGET_SHA void NiCompress(uint32_t state[8], const uint8_t* blocks,
                                     size_t nblocks) {
  uint32_t* const states[1] = {state};
  for (size_t n = 0; n < nblocks; ++n) {
    const uint8_t* const block[1] = {blocks + 64 * n};
    NiRounds<1>(states, block);
  }
}

CONCEALER_TARGET_SHA void NiCompressLanes(uint32_t* const* states,
                                          const uint8_t* const* blocks,
                                          size_t n) {
  static_assert(Sha256::kMaxLanes == 3, "one case per lane count");
  switch (n) {
    case 1: NiRounds<1>(states, blocks); break;
    case 2: NiRounds<2>(states, blocks); break;
    case 3: NiRounds<3>(states, blocks); break;
    default: break;
  }
}

constexpr Sha256Backend kShaNiBackend = {"shani", NiCompress,
                                         NiCompressLanes};

const Sha256Backend* ProbeShaNi() {
  unsigned eax, ebx, ecx, edx;
  if (__get_cpuid_max(0, nullptr) < 7) return nullptr;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return nullptr;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha ? &kShaNiBackend : nullptr;
}

#else

const Sha256Backend* ProbeShaNi() { return nullptr; }

#endif  // CONCEALER_HAVE_SHANI

// Test override; null means "use the detected default".
std::atomic<const Sha256Backend*> g_override{nullptr};

// Block `index` of the FIPS-180-4 padded message a ‖ b: the message bytes
// that fall in it, the 0x80 terminator, and in the last block the 64-bit
// big-endian bit length.
void PaddedBlock(Slice a, Slice b, uint64_t index, uint64_t nblocks,
                 uint8_t out[64]) {
  const uint64_t begin = 64 * index;
  const uint64_t len = a.size() + b.size();
  std::memset(out, 0, 64);
  const auto copy = [&](Slice part, uint64_t at) {
    const uint64_t lo = std::max(begin, at);
    const uint64_t hi = std::min(begin + 64, at + part.size());
    if (lo < hi) {
      std::memcpy(out + (lo - begin), part.data() + (lo - at), hi - lo);
    }
  };
  copy(a, 0);
  copy(b, a.size());
  if (len >= begin && len < begin + 64) out[len - begin] = 0x80;
  if (index + 1 == nblocks) {
    const uint64_t bits = len * 8;
    for (int i = 0; i < 8; ++i) out[56 + i] = uint8_t(bits >> (56 - 8 * i));
  }
}

// The state words, big-endian.
void StoreDigest(const uint32_t h[8], Sha256::Digest* out) {
  for (int i = 0; i < 8; ++i) {
    (*out)[4 * i] = static_cast<uint8_t>(h[i] >> 24);
    (*out)[4 * i + 1] = static_cast<uint8_t>(h[i] >> 16);
    (*out)[4 * i + 2] = static_cast<uint8_t>(h[i] >> 8);
    (*out)[4 * i + 3] = static_cast<uint8_t>(h[i]);
  }
}

}  // namespace

const Sha256Backend* SoftSha256Backend() { return &kSoftBackend; }

const Sha256Backend* AcceleratedSha256Backend() {
  static const Sha256Backend* accel = ProbeShaNi();
  return accel;
}

const Sha256Backend* ActiveSha256Backend() {
  const Sha256Backend* forced = g_override.load(std::memory_order_acquire);
  if (forced != nullptr) return forced;
  static const Sha256Backend* detected =
      AcceleratedSha256Backend() != nullptr ? AcceleratedSha256Backend()
                                            : SoftSha256Backend();
  return detected;
}

ScopedShaBackendOverride::ScopedShaBackendOverride(
    const Sha256Backend* backend)
    : prev_(g_override.exchange(backend, std::memory_order_acq_rel)) {}

ScopedShaBackendOverride::~ScopedShaBackendOverride() {
  g_override.store(prev_, std::memory_order_release);
}

void Sha256::Reset() {
  std::memcpy(h_, kInitialState, sizeof(h_));
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(Slice data) {
  const Sha256Backend* backend = ActiveSha256Backend();
  total_len_ += data.size();
  size_t off = 0;
  if (buffer_len_ > 0) {
    const size_t need = 64 - buffer_len_;
    const size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == 64) {
      backend->compress(h_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const size_t full = (data.size() - off) / 64;
  if (full > 0) {
    backend->compress(h_, data.data() + off, full);
    off += 64 * full;
  }
  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Sha256::Digest Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian bit length.
  uint8_t pad[72] = {0x80};
  const size_t rem = (buffer_len_ + 1 + 8) % 64;
  const size_t pad_len = 1 + (rem == 0 ? 0 : 64 - rem);
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  }
  Update(Slice(pad, pad_len));
  // Update() of the length would double-count total_len_, but we no longer
  // read it: feed the final 8 bytes directly through the buffer.
  std::memcpy(buffer_ + buffer_len_, len_bytes, 8);
  ActiveSha256Backend()->compress(h_, buffer_, 1);

  Digest out;
  StoreDigest(h_, &out);
  Reset();
  return out;
}

Sha256::Digest Sha256::Hash(Slice data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

void Sha256::HashPairs(const Slice* a, const Slice* b, size_t n,
                       Digest* out) {
  const Sha256Backend* backend = ActiveSha256Backend();
  for (size_t base = 0; base < n; base += kMaxLanes) {
    const size_t lanes = std::min(kMaxLanes, n - base);
    uint32_t state[kMaxLanes][8];
    uint64_t nblocks[kMaxLanes];
    uint64_t max_blocks = 0;
    for (size_t l = 0; l < lanes; ++l) {
      std::memcpy(state[l], kInitialState, sizeof(kInitialState));
      // Message, the 0x80 byte and the 8-byte length, in whole blocks.
      nblocks[l] = (a[base + l].size() + b[base + l].size() + 72) / 64;
      max_blocks = std::max(max_blocks, nblocks[l]);
    }
    // Lockstep: block i of every lane that has one goes through one
    // multi-lane call; shorter messages drop out of the gather.
    uint8_t buf[kMaxLanes][64];
    uint32_t* states[kMaxLanes];
    const uint8_t* blocks[kMaxLanes];
    for (uint64_t i = 0; i < max_blocks; ++i) {
      size_t active = 0;
      for (size_t l = 0; l < lanes; ++l) {
        if (i >= nblocks[l]) continue;
        PaddedBlock(a[base + l], b[base + l], i, nblocks[l], buf[l]);
        blocks[active] = buf[l];
        states[active++] = state[l];
      }
      backend->compress_lanes(states, blocks, active);
    }
    for (size_t l = 0; l < lanes; ++l) StoreDigest(state[l], &out[base + l]);
  }
}

}  // namespace concealer
