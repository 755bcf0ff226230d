// Portable software AES backend: T-table rounds with an instruction-level
// pipeline that keeps four independent blocks in flight per loop iteration.
// Replaces the seed's one-block-per-call byte-oriented S-box code on CPUs
// without AES instructions, and serves as the reference implementation the
// hardware backends are differential-tested against.
//
// The T tables are generated at compile time from the FIPS-197 S-box, so
// there is exactly one source of truth for the cipher's constants. Like the
// seed implementation this code has no data-dependent branches (table loads
// are data-indexed, as in the seed's S-box loads).

#include <cstring>

#include "crypto/aes_backend_internal.h"

namespace concealer {
namespace aes_internal {

// FIPS-197 S-box (also used by Aes::SetKey for key expansion).
constexpr uint8_t kAesSBox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

}  // namespace aes_internal

namespace {

using aes_internal::kAesSBox;

constexpr uint8_t XTimeC(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// Encryption T tables: Te0[x] packs MixColumns(SubBytes(x)) for one byte
// position; Te1..Te3 are its byte rotations. One round then costs four
// table loads + XORs per state word instead of per-byte SubBytes /
// ShiftRows / MixColumns passes.
struct TeTables {
  uint32_t t0[256];
  uint32_t t1[256];
  uint32_t t2[256];
  uint32_t t3[256];
};

constexpr TeTables MakeTe() {
  TeTables t{};
  for (int i = 0; i < 256; ++i) {
    const uint8_t s = kAesSBox[i];
    const uint8_t s2 = XTimeC(s);
    const uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
    t.t0[i] = (uint32_t{s2} << 24) | (uint32_t{s} << 16) | (uint32_t{s} << 8) |
              s3;
    t.t1[i] = (uint32_t{s3} << 24) | (uint32_t{s2} << 16) | (uint32_t{s} << 8) |
              s;
    t.t2[i] = (uint32_t{s} << 24) | (uint32_t{s3} << 16) | (uint32_t{s2} << 8) |
              s;
    t.t3[i] = (uint32_t{s} << 24) | (uint32_t{s} << 16) | (uint32_t{s3} << 8) |
              s2;
  }
  return t;
}

constexpr TeTables kTe = MakeTe();

inline uint32_t Get32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | p[3];
}

inline void Put32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

// N independent blocks through the full cipher in lockstep: rounds on the
// outside, lanes on the inside, so each round issues 4*N independent
// table-load/XOR chains that fill the load pipeline (the one-block version
// is latency-bound on the four serial state words).
template <int N>
inline void EncryptLanes(const uint8_t* rk, int rounds,
                         const uint8_t* in, uint8_t* out) {
  uint32_t s0[N], s1[N], s2[N], s3[N];
  for (int j = 0; j < N; ++j) {
    s0[j] = Get32(in + 16 * j) ^ Get32(rk);
    s1[j] = Get32(in + 16 * j + 4) ^ Get32(rk + 4);
    s2[j] = Get32(in + 16 * j + 8) ^ Get32(rk + 8);
    s3[j] = Get32(in + 16 * j + 12) ^ Get32(rk + 12);
  }
  for (int r = 1; r < rounds; ++r) {
    const uint8_t* k = rk + 16 * r;
    const uint32_t k0 = Get32(k), k1 = Get32(k + 4), k2 = Get32(k + 8),
                   k3 = Get32(k + 12);
    for (int j = 0; j < N; ++j) {
      const uint32_t t0 = kTe.t0[s0[j] >> 24] ^ kTe.t1[(s1[j] >> 16) & 0xff] ^
                          kTe.t2[(s2[j] >> 8) & 0xff] ^ kTe.t3[s3[j] & 0xff] ^
                          k0;
      const uint32_t t1 = kTe.t0[s1[j] >> 24] ^ kTe.t1[(s2[j] >> 16) & 0xff] ^
                          kTe.t2[(s3[j] >> 8) & 0xff] ^ kTe.t3[s0[j] & 0xff] ^
                          k1;
      const uint32_t t2 = kTe.t0[s2[j] >> 24] ^ kTe.t1[(s3[j] >> 16) & 0xff] ^
                          kTe.t2[(s0[j] >> 8) & 0xff] ^ kTe.t3[s1[j] & 0xff] ^
                          k2;
      const uint32_t t3 = kTe.t0[s3[j] >> 24] ^ kTe.t1[(s0[j] >> 16) & 0xff] ^
                          kTe.t2[(s1[j] >> 8) & 0xff] ^ kTe.t3[s2[j] & 0xff] ^
                          k3;
      s0[j] = t0;
      s1[j] = t1;
      s2[j] = t2;
      s3[j] = t3;
    }
  }
  const uint8_t* k = rk + 16 * rounds;
  const uint32_t k0 = Get32(k), k1 = Get32(k + 4), k2 = Get32(k + 8),
                 k3 = Get32(k + 12);
  for (int j = 0; j < N; ++j) {
    Put32(out + 16 * j,
          ((uint32_t{kAesSBox[s0[j] >> 24]} << 24) |
           (uint32_t{kAesSBox[(s1[j] >> 16) & 0xff]} << 16) |
           (uint32_t{kAesSBox[(s2[j] >> 8) & 0xff]} << 8) |
           kAesSBox[s3[j] & 0xff]) ^
              k0);
    Put32(out + 16 * j + 4,
          ((uint32_t{kAesSBox[s1[j] >> 24]} << 24) |
           (uint32_t{kAesSBox[(s2[j] >> 16) & 0xff]} << 16) |
           (uint32_t{kAesSBox[(s3[j] >> 8) & 0xff]} << 8) |
           kAesSBox[s0[j] & 0xff]) ^
              k1);
    Put32(out + 16 * j + 8,
          ((uint32_t{kAesSBox[s2[j] >> 24]} << 24) |
           (uint32_t{kAesSBox[(s3[j] >> 16) & 0xff]} << 16) |
           (uint32_t{kAesSBox[(s0[j] >> 8) & 0xff]} << 8) |
           kAesSBox[s1[j] & 0xff]) ^
              k2);
    Put32(out + 16 * j + 12,
          ((uint32_t{kAesSBox[s3[j] >> 24]} << 24) |
           (uint32_t{kAesSBox[(s0[j] >> 16) & 0xff]} << 16) |
           (uint32_t{kAesSBox[(s1[j] >> 8) & 0xff]} << 8) |
           kAesSBox[s2[j] & 0xff]) ^
              k3);
  }
}

// XORs `n` bytes of keystream into out (reading from in). 64-bit chunks via
// memcpy keep this alias- and alignment-safe.
inline void XorInto(const uint8_t* in, const uint8_t* ks, uint8_t* out,
                    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, in + i, 8);
    std::memcpy(&b, ks + i, 8);
    a ^= b;
    std::memcpy(out + i, &a, 8);
  }
  for (; i < n; ++i) out[i] = in[i] ^ ks[i];
}

// CTR core shared by xor and keystream: runs kCtrLanes counters per
// iteration through the pipelined cipher. `in == nullptr` emits raw
// keystream.
constexpr int kCtrLanes = 4;

void SoftCtr(const uint8_t* rk, int rounds, const uint8_t iv[16],
             const uint8_t* in, uint8_t* out, size_t len) {
  uint8_t ctr[16];
  std::memcpy(ctr, iv, 16);
  uint8_t blocks[16 * kCtrLanes];
  uint8_t ks[16 * kCtrLanes];
  size_t off = 0;
  while (len - off >= 16 * kCtrLanes) {
    for (int j = 0; j < kCtrLanes; ++j) {
      std::memcpy(blocks + 16 * j, ctr, 16);
      aes_internal::IncrementCounter(ctr);
    }
    EncryptLanes<kCtrLanes>(rk, rounds, blocks, ks);
    if (in != nullptr) {
      XorInto(in + off, ks, out + off, 16 * kCtrLanes);
    } else {
      std::memcpy(out + off, ks, 16 * kCtrLanes);
    }
    off += 16 * kCtrLanes;
  }
  while (off < len) {
    EncryptLanes<1>(rk, rounds, ctr, ks);
    aes_internal::IncrementCounter(ctr);
    const size_t n = len - off < 16 ? len - off : 16;
    if (in != nullptr) {
      XorInto(in + off, ks, out + off, n);
    } else {
      std::memcpy(out + off, ks, n);
    }
    off += n;
  }
}

void CtrXor(const uint8_t* rk, int rounds, const uint8_t iv[16],
            const uint8_t* in, uint8_t* out, size_t len) {
  SoftCtr(rk, rounds, iv, in, out, len);
}

void CtrKeystream(const uint8_t* rk, int rounds, const uint8_t iv[16],
                  uint8_t* out, size_t len) {
  SoftCtr(rk, rounds, iv, nullptr, out, len);
}

void EncryptBlocks(const uint8_t* rk, int rounds, const uint8_t* in,
                   uint8_t* out, size_t nblocks) {
  size_t b = 0;
  for (; b + kCtrLanes <= nblocks; b += kCtrLanes) {
    EncryptLanes<kCtrLanes>(rk, rounds, in + 16 * b, out + 16 * b);
  }
  for (; b < nblocks; ++b) {
    EncryptLanes<1>(rk, rounds, in + 16 * b, out + 16 * b);
  }
}

}  // namespace

const AesBackendOps* SoftAesBackend() {
  static const AesBackendOps ops = {
      "soft",
      /*accelerated=*/false,
      EncryptBlocks,
      CtrXor,
      CtrKeystream,
  };
  return &ops;
}

}  // namespace concealer
