// Unit tests for the crypto substrate, including FIPS/RFC known-answer
// tests for AES, SHA-256, HMAC and CMAC, and behavioural tests for the
// deterministic (SIV) and randomized ciphers.

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <set>
#include <vector>

#include "common/hex.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/aes_backend.h"
#include "crypto/cmac.h"
#include "crypto/det_cipher.h"
#include "crypto/grid_hash.h"
#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"
#include "crypto/sha256.h"

namespace concealer {
namespace {

Bytes FromHex(const std::string& h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok()) << h;
  return *r;
}

// --- AES known-answer tests (FIPS-197 Appendix C) ---

TEST(AesTest, Fips197Aes128) {
  Aes aes;
  ASSERT_TRUE(aes.SetKey(FromHex("000102030405060708090a0b0c0d0e0f")).ok());
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Slice(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256) {
  Aes aes;
  ASSERT_TRUE(aes.SetKey(FromHex("000102030405060708090a0b0c0d0e0f"
                                 "101112131415161718191a1b1c1d1e1f"))
                  .ok());
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Slice(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, RejectsBadKeySizes) {
  Aes aes;
  EXPECT_FALSE(aes.SetKey(Bytes(15, 0)).ok());
  EXPECT_FALSE(aes.SetKey(Bytes(24, 0)).ok());  // AES-192 unsupported.
  EXPECT_FALSE(aes.SetKey(Bytes(0, 0)).ok());
  EXPECT_TRUE(aes.SetKey(Bytes(16, 0)).ok());
  EXPECT_TRUE(aes.SetKey(Bytes(32, 0)).ok());
}

TEST(AesTest, CtrModeNistVector) {
  // NIST SP 800-38A F.5.1 (AES-128 CTR), first block.
  Aes aes;
  ASSERT_TRUE(aes.SetKey(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  const Bytes iv = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Bytes ct(pt.size());
  AesCtr::Xor(aes, iv.data(), pt, ct.data());
  EXPECT_EQ(HexEncode(ct), "874d6191b620e3261bef6864990db6ce");
}

TEST(AesTest, CtrIsLengthPreservingAndInvolutive) {
  Aes aes;
  ASSERT_TRUE(aes.SetKey(Bytes(32, 7)).ok());
  uint8_t iv[16] = {1, 2, 3};
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u}) {
    Bytes pt(len, 0xab);
    Bytes ct(len);
    AesCtr::Xor(aes, iv, pt, ct.data());
    Bytes back(len);
    AesCtr::Xor(aes, iv, ct, back.data());
    EXPECT_EQ(back, pt) << len;
  }
}

// --- SHA-256 known-answer tests (FIPS-180-4 / NIST CAVP) ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Slice(Sha256::Hash(Slice()).data(), 32)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Slice(Sha256::Hash(Slice("abc", 3)).data(), 32)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(HexEncode(Slice(Sha256::Hash(Slice(msg)).data(), 32)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(Slice(chunk));
  EXPECT_EQ(HexEncode(Slice(h.Finish().data(), 32)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(Slice(msg.data(), split));
    h.Update(Slice(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(Slice(msg))) << split;
  }
}

TEST(Sha256Test, ReusableAfterFinish) {
  Sha256 h;
  h.Update(Slice("abc", 3));
  const auto d1 = h.Finish();
  h.Update(Slice("abc", 3));
  const auto d2 = h.Finish();
  EXPECT_EQ(d1, d2);
}

// --- HMAC-SHA256 (RFC 4231) ---

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto tag = HmacSha256::Compute(key, Slice("Hi There", 8));
  EXPECT_EQ(HexEncode(Slice(tag.data(), 32)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const auto tag = HmacSha256::Compute(
      Slice("Jefe", 4), Slice("what do ya want for nothing?", 28));
  EXPECT_EQ(HexEncode(Slice(tag.data(), 32)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto tag = HmacSha256::Compute(key, Slice(msg));
  EXPECT_EQ(HexEncode(Slice(tag.data(), 32)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, ConstantTimeEqual) {
  const Bytes a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4}, d{1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
  // Whole words and a tail: a difference in either part is found.
  Bytes e(19, 7);
  const Bytes f = e;
  EXPECT_TRUE(ConstantTimeEqual(e, f));
  for (size_t i : {size_t{0}, size_t{7}, size_t{8}, size_t{15}, size_t{18}}) {
    Bytes g = f;
    g[i] ^= 0x80;
    EXPECT_FALSE(ConstantTimeEqual(e, g)) << i;
  }
}

// --- AES-CMAC (RFC 4493) ---

TEST(CmacTest, Rfc4493EmptyMessage) {
  AesCmac cmac;
  ASSERT_TRUE(cmac.SetKey(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  const auto tag = cmac.Compute(Slice());
  EXPECT_EQ(HexEncode(Slice(tag.data(), 16)),
            "bb1d6929e95937287fa37d129b756746");
}

TEST(CmacTest, Rfc4493SixteenBytes) {
  AesCmac cmac;
  ASSERT_TRUE(cmac.SetKey(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  const auto tag = cmac.Compute(FromHex("6bc1bee22e409f96e93d7e117393172a"));
  EXPECT_EQ(HexEncode(Slice(tag.data(), 16)),
            "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(CmacTest, Rfc4493FortyBytes) {
  AesCmac cmac;
  ASSERT_TRUE(cmac.SetKey(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  const auto tag = cmac.Compute(
      FromHex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
              "30c81c46a35ce411"));
  EXPECT_EQ(HexEncode(Slice(tag.data(), 16)),
            "dfa66747de9ae63030ca32611497c827");
}

// --- KDF ---

TEST(KdfTest, DistinctLabelsAndContextsGiveDistinctKeys) {
  const Bytes master(32, 1);
  const Bytes k1 = DeriveKey64(master, "a", 0);
  const Bytes k2 = DeriveKey64(master, "a", 1);
  const Bytes k3 = DeriveKey64(master, "b", 0);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NE(k2, k3);
  EXPECT_EQ(k1.size(), 32u);
  EXPECT_EQ(k1, DeriveKey64(master, "a", 0));  // Deterministic.
}

TEST(KdfTest, EpochKeysDifferPerEpochAndCounter) {
  const Bytes sk(32, 9);
  EXPECT_NE(EpochKey(sk, 1), EpochKey(sk, 2));
  EXPECT_NE(EpochKey(sk, 1, 0), EpochKey(sk, 1, 1));
  EXPECT_EQ(EpochKey(sk, 1, 0), EpochKey(sk, 1, 0));
}

// --- DetCipher ---

TEST(DetCipherTest, Deterministic) {
  DetCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, 3)).ok());
  const Bytes ct1 = c.Encrypt(Slice("value", 5));
  const Bytes ct2 = c.Encrypt(Slice("value", 5));
  EXPECT_EQ(ct1, ct2);
  EXPECT_NE(ct1, c.Encrypt(Slice("valuf", 5)));
}

TEST(DetCipherTest, RoundTrip) {
  DetCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, 3)).ok());
  for (size_t len : {0u, 1u, 16u, 33u, 100u}) {
    const Bytes pt(len, 0x42);
    auto back = c.Decrypt(c.Encrypt(pt));
    ASSERT_TRUE(back.ok()) << len;
    EXPECT_EQ(*back, pt);
  }
}

TEST(DetCipherTest, DetectsTampering) {
  DetCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, 3)).ok());
  Bytes ct = c.Encrypt(Slice("some plaintext", 14));
  ct[ct.size() / 2] ^= 1;
  EXPECT_TRUE(c.Decrypt(ct).status().IsCorruption());
  EXPECT_TRUE(c.Decrypt(Bytes(4, 0)).status().IsCorruption());  // Too short.
}

TEST(DetCipherTest, DifferentKeysDifferentCiphertext) {
  DetCipher a, b;
  ASSERT_TRUE(a.SetKey(Bytes(32, 1)).ok());
  ASSERT_TRUE(b.SetKey(Bytes(32, 2)).ok());
  EXPECT_NE(a.Encrypt(Slice("x", 1)), b.Encrypt(Slice("x", 1)));
}

TEST(DetCipherTest, RejectsBadKeySize) {
  DetCipher c;
  EXPECT_FALSE(c.SetKey(Bytes(16, 0)).ok());
}

// --- RandCipher ---

TEST(RandCipherTest, SamePlaintextDifferentCiphertext) {
  RandCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, 4)).ok());
  const Bytes ct1 = c.Encrypt(Slice("secret", 6));
  const Bytes ct2 = c.Encrypt(Slice("secret", 6));
  EXPECT_NE(ct1, ct2);
  auto p1 = c.Decrypt(ct1);
  auto p2 = c.Decrypt(ct2);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);
}

TEST(RandCipherTest, DetectsTampering) {
  RandCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, 4)).ok());
  Bytes ct = c.Encrypt(Slice("secret", 6));
  ct[RandCipher::kNonceSize] ^= 1;  // Flip a body bit.
  EXPECT_TRUE(c.Decrypt(ct).status().IsCorruption());
  EXPECT_TRUE(c.Decrypt(Bytes(8, 0)).status().IsCorruption());
}

TEST(RandCipherTest, RandomBytesUniqueAcrossCalls) {
  RandCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, 4)).ok());
  const Bytes a = c.RandomBytes(32);
  const Bytes b = c.RandomBytes(32);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 32u);
}

TEST(RandCipherTest, CiphertextLengthIsPlaintextPlusOverhead) {
  RandCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, 4)).ok());
  for (size_t len : {0u, 7u, 64u}) {
    EXPECT_EQ(c.Encrypt(Bytes(len, 0)).size(), len + RandCipher::kOverhead);
  }
}

// --- GridHash ---

TEST(GridHashTest, DeterministicAndInRange) {
  GridHash h;
  ASSERT_TRUE(h.SetKey(Bytes(32, 5)).ok());
  for (uint64_t v = 0; v < 100; ++v) {
    const uint32_t b1 = h.Map64(v, 17);
    const uint32_t b2 = h.Map64(v, 17);
    EXPECT_EQ(b1, b2);
    EXPECT_LT(b1, 17u);
  }
}

TEST(GridHashTest, DifferentKeysGiveDifferentMappings) {
  GridHash h1, h2;
  ASSERT_TRUE(h1.SetKey(Bytes(32, 1)).ok());
  ASSERT_TRUE(h2.SetKey(Bytes(32, 2)).ok());
  int same = 0;
  for (uint64_t v = 0; v < 256; ++v) {
    same += (h1.Map64(v, 1024) == h2.Map64(v, 1024));
  }
  EXPECT_LT(same, 10);
}

TEST(GridHashTest, RoughlyUniform) {
  GridHash h;
  ASSERT_TRUE(h.SetKey(Bytes(32, 5)).ok());
  std::vector<int> counts(10, 0);
  for (uint64_t v = 0; v < 10000; ++v) counts[h.Map64(v, 10)]++;
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

// --- AES backends: known-answer + differential coverage ---
//
// Every KAT below runs against each available backend (soft always; the
// hardware backend when the CPU has one), pinning the backend explicitly so
// CI on an AES-NI runner exercises both implementations in one pass.

std::vector<const AesBackendOps*> AllBackends() {
  std::vector<const AesBackendOps*> v = {SoftAesBackend()};
  if (AcceleratedAesBackend() != nullptr) v.push_back(AcceleratedAesBackend());
  return v;
}

}  // namespace

// gtest would print the parameter as the backend's address, which changes
// from run to run and ends up in the test ids that ctest discovers; print
// the backend's name instead. It lives in namespace concealer, not the
// anonymous one, so gtest's printer finds it by argument-dependent lookup.
static void PrintTo(const AesBackendOps* ops, std::ostream* os) {
  *os << ops->name;
}

namespace {

class AesBackendTest
    : public ::testing::TestWithParam<const AesBackendOps*> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, AesBackendTest, ::testing::ValuesIn(AllBackends()),
    [](const ::testing::TestParamInfo<const AesBackendOps*>& info) {
      return std::string(info.param->name);
    });

TEST_P(AesBackendTest, Fips197EcbKats) {
  Aes aes;
  ASSERT_TRUE(
      aes.SetKey(FromHex("000102030405060708090a0b0c0d0e0f"), GetParam())
          .ok());
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Slice(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");

  ASSERT_TRUE(aes.SetKey(FromHex("000102030405060708090a0b0c0d0e0f"
                                 "101112131415161718191a1b1c1d1e1f"),
                         GetParam())
                  .ok());
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Slice(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST_P(AesBackendTest, NistSp80038aCtrAes128FullVector) {
  // NIST SP 800-38A F.5.1: AES-128 CTR, all four blocks in one call so the
  // multi-block pipeline is on the hook for the counter sequence.
  Aes aes;
  ASSERT_TRUE(
      aes.SetKey(FromHex("2b7e151628aed2a6abf7158809cf4f3c"), GetParam())
          .ok());
  const Bytes iv = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = FromHex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  Bytes ct(pt.size());
  AesCtr::Xor(aes, iv.data(), pt, ct.data());
  EXPECT_EQ(HexEncode(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST_P(AesBackendTest, NistSp80038aCtrAes256FullVector) {
  // NIST SP 800-38A F.5.5: AES-256 CTR, all four blocks.
  Aes aes;
  ASSERT_TRUE(aes.SetKey(FromHex("603deb1015ca71be2b73aef0857d7781"
                                 "1f352c073b6108d72d9810a30914dff4"),
                         GetParam())
                  .ok());
  const Bytes iv = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = FromHex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  Bytes ct(pt.size());
  AesCtr::Xor(aes, iv.data(), pt, ct.data());
  EXPECT_EQ(HexEncode(ct),
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988d"
            "dfc9c58db67aada613c2dd08457941a6");
}

TEST_P(AesBackendTest, Rfc4493CmacAllFourCases) {
  AesCmac cmac;
  ASSERT_TRUE(
      cmac.SetKey(FromHex("2b7e151628aed2a6abf7158809cf4f3c"), GetParam())
          .ok());
  const Bytes msg = FromHex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const struct {
    size_t len;
    const char* tag;
  } kCases[] = {
      {0, "bb1d6929e95937287fa37d129b756746"},
      {16, "070a16b46b4d4144f79bdd9dd04a287c"},
      {40, "dfa66747de9ae63030ca32611497c827"},
      {64, "51f0bebf7e3b9d92fc49741779363cfe"},
  };
  for (const auto& c : kCases) {
    const auto tag = cmac.Compute(Slice(msg.data(), c.len));
    EXPECT_EQ(HexEncode(Slice(tag.data(), 16)), c.tag) << c.len;
    EXPECT_TRUE(cmac.Verify(Slice(msg.data(), c.len), FromHex(c.tag)));
  }
}

TEST_P(AesBackendTest, EncryptBlocksMatchesPerBlockLoop) {
  Aes aes;
  ASSERT_TRUE(aes.SetKey(Bytes(32, 0x7e), GetParam()).ok());
  Rng rng(11);
  for (size_t nblocks : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u}) {
    Bytes in(nblocks * 16);
    for (auto& b : in) b = uint8_t(rng.Next());
    Bytes batch(in.size()), single(in.size());
    aes.EncryptBlocks(in.data(), batch.data(), nblocks);
    for (size_t b = 0; b < nblocks; ++b) {
      aes.EncryptBlock(in.data() + 16 * b, single.data() + 16 * b);
    }
    EXPECT_EQ(batch, single) << nblocks;
    // In-place batch.
    Bytes inplace = in;
    aes.EncryptBlocks(inplace.data(), inplace.data(), nblocks);
    EXPECT_EQ(inplace, batch) << nblocks;
  }
}

TEST_P(AesBackendTest, KeystreamAndInPlaceAgreeWithXor) {
  Aes aes;
  ASSERT_TRUE(aes.SetKey(Bytes(16, 0x31), GetParam()).ok());
  uint8_t iv[16] = {0xde, 0xad};
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 127u, 128u, 300u}) {
    Bytes pt(len, 0x5a);
    Bytes ct(len);
    AesCtr::Xor(aes, iv, pt, ct.data());
    // Keystream == Xor over zeros.
    Bytes zeros(len, 0);
    Bytes ks_ref(len);
    AesCtr::Xor(aes, iv, zeros, ks_ref.data());
    Bytes ks(len);
    AesCtr::Keystream(aes, iv, ks.data(), len);
    EXPECT_EQ(ks, ks_ref) << len;
    // XorInPlace == Xor.
    Bytes buf = pt;
    AesCtr::XorInPlace(aes, iv, buf.data(), len);
    EXPECT_EQ(buf, ct) << len;
  }
}

TEST_P(AesBackendTest, CtrCounterOverflowBoundaries) {
  // The 128-bit big-endian counter must wrap identically on every backend,
  // including across the multi-block pipeline's internal batching. Start
  // IVs straddle the 2^128, 2^64 and one-byte carry boundaries.
  Aes aes;
  ASSERT_TRUE(aes.SetKey(Bytes(32, 0x09), GetParam()).ok());
  const char* kIvs[] = {
      "ffffffffffffffffffffffffffffffff",  // Wraps to zero after 1 block.
      "fffffffffffffffffffffffffffffff0",  // Wraps mid-buffer.
      "0000000000000000ffffffffffffffff",  // Low-qword carry into high.
      "00000000000000000000000000000000",
      "000000000000000000000000000000ff",
  };
  for (const char* ivh : kIvs) {
    const Bytes iv = FromHex(ivh);
    const size_t len = 16 * 20 + 5;  // Past any pipeline batch width.
    Bytes pt(len, 0xc3);
    Bytes got(len);
    AesCtr::Xor(aes, iv.data(), pt, got.data());
    // Reference: one block at a time through EncryptBlock with a scalar
    // big-endian increment.
    Bytes want(len);
    uint8_t ctr[16], ks[16];
    std::memcpy(ctr, iv.data(), 16);
    for (size_t off = 0; off < len; off += 16) {
      aes.EncryptBlock(ctr, ks);
      for (int i = 15; i >= 0; --i) {
        if (++ctr[i] != 0) break;
      }
      const size_t n = len - off < 16 ? len - off : 16;
      for (size_t i = 0; i < n; ++i) want[off + i] = pt[off + i] ^ ks[i];
    }
    EXPECT_EQ(got, want) << ivh;
  }
}

TEST(AesBackendDifferentialTest, SoftAndAcceleratedAgreeOnRandomInputs) {
  const AesBackendOps* accel = AcceleratedAesBackend();
  if (accel == nullptr) {
    GTEST_SKIP() << "no hardware AES on this CPU";
  }
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes key((trial % 2) ? 16 : 32);
    for (auto& b : key) b = uint8_t(rng.Next());
    Aes soft_aes, accel_aes;
    ASSERT_TRUE(soft_aes.SetKey(key, SoftAesBackend()).ok());
    ASSERT_TRUE(accel_aes.SetKey(key, accel).ok());

    // Odd lengths on purpose: partial final blocks are where byte-level
    // tail handling diverges first.
    const size_t len = rng.Uniform(2 * 16 * 8 + 3);
    Bytes pt(len);
    for (auto& b : pt) b = uint8_t(rng.Next());
    uint8_t iv[16];
    for (auto& b : iv) b = uint8_t(rng.Next());
    if (trial % 5 == 0) {
      // Park the counter just below an overflow boundary.
      std::memset(iv, 0xff, sizeof(iv));
      iv[15] = static_cast<uint8_t>(0xff - rng.Uniform(4));
    }

    Bytes ct_soft(len), ct_accel(len);
    AesCtr::Xor(soft_aes, iv, pt, ct_soft.data());
    AesCtr::Xor(accel_aes, iv, pt, ct_accel.data());
    ASSERT_EQ(ct_soft, ct_accel) << "trial " << trial << " len " << len;

    uint8_t blk_soft[16], blk_accel[16];
    soft_aes.EncryptBlock(iv, blk_soft);
    accel_aes.EncryptBlock(iv, blk_accel);
    ASSERT_EQ(0, memcmp(blk_soft, blk_accel, 16));
  }
}

// --- Batched crypto APIs ---

TEST(CmacBatchTest, ComputeBatchMatchesSingleAcrossMixedLengths) {
  AesCmac cmac;
  ASSERT_TRUE(cmac.SetKey(Bytes(32, 0x21)).ok());
  Rng rng(5);
  // Mixed-length batches exercise the lane-dropout path of the lockstep
  // pipeline (lanes finish their chains at different steps).
  std::vector<size_t> lens = {0, 1, 15, 16, 17, 31, 32, 33, 100,
                              0, 64, 128, 7, 200, 16, 48};
  std::vector<Bytes> msgs;
  for (size_t len : lens) {
    Bytes m(len);
    for (auto& b : m) b = uint8_t(rng.Next());
    msgs.push_back(std::move(m));
  }
  std::vector<Slice> views(msgs.begin(), msgs.end());
  std::vector<AesCmac::Tag> tags(msgs.size());
  cmac.ComputeBatch(views.data(), views.size(), tags.data());
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(tags[i], cmac.Compute(msgs[i])) << i;
  }
}

TEST(CmacBatchTest, VerifyBatchFlagsTamperedTags) {
  AesCmac cmac;
  ASSERT_TRUE(cmac.SetKey(Bytes(16, 0x44)).ok());
  std::vector<Bytes> msgs;
  std::vector<AesCmac::Tag> tags(10);
  for (int i = 0; i < 10; ++i) msgs.emplace_back(i * 7, uint8_t(i));
  std::vector<Slice> views(msgs.begin(), msgs.end());
  cmac.ComputeBatch(views.data(), views.size(), tags.data());
  std::vector<Slice> tag_views;
  for (auto& t : tags) tag_views.emplace_back(t.data(), t.size());
  tags[3][0] ^= 1;
  tags[7][15] ^= 0x80;
  uint8_t ok[10];
  EXPECT_EQ(cmac.VerifyBatch(views.data(), tag_views.data(), 10, ok), 8u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ok[i], (i == 3 || i == 7) ? 0 : 1) << i;
  }
}

TEST(DetCipherBatchTest, EncryptBatchMatchesSingle) {
  DetCipher det;
  ASSERT_TRUE(det.SetKey(Bytes(32, 0x66)).ok());
  std::vector<Bytes> plains;
  for (size_t len : {0u, 1u, 13u, 16u, 29u, 64u, 100u, 13u, 13u}) {
    plains.emplace_back(len, uint8_t(len * 3 + 1));
  }
  std::vector<Slice> views(plains.begin(), plains.end());
  std::vector<Bytes> outs(plains.size());
  det.EncryptBatch(views.data(), views.size(), outs.data());
  for (size_t i = 0; i < plains.size(); ++i) {
    EXPECT_EQ(outs[i], det.Encrypt(plains[i])) << i;
  }
}

TEST(DetCipherBatchTest, DecryptBatchRoundTripsAndRejectsTampering) {
  DetCipher det;
  ASSERT_TRUE(det.SetKey(Bytes(32, 0x67)).ok());
  std::vector<Bytes> plains, cts;
  for (size_t len : {5u, 29u, 0u, 64u, 13u, 45u, 29u, 29u, 29u, 17u}) {
    plains.emplace_back(len, uint8_t(0xa0 + len));
    cts.push_back(det.Encrypt(plains.back()));
  }
  std::vector<Slice> views(cts.begin(), cts.end());
  std::vector<Bytes> outs(cts.size());
  ASSERT_TRUE(det.DecryptBatch(views.data(), views.size(), outs.data()).ok());
  for (size_t i = 0; i < plains.size(); ++i) EXPECT_EQ(outs[i], plains[i]);

  // A flipped byte anywhere in the batch surfaces as kCorruption.
  Bytes bad = cts[4];
  bad[bad.size() / 2] ^= 1;
  views[4] = Slice(bad);
  EXPECT_TRUE(
      det.DecryptBatch(views.data(), views.size(), outs.data()).IsCorruption());
  views[4] = Slice(cts[4]);

  // A truncated ciphertext mid-batch: same kCorruption as the serial loop.
  const Bytes shorty(4, 0);
  views[6] = Slice(shorty);
  EXPECT_TRUE(
      det.DecryptBatch(views.data(), views.size(), outs.data()).IsCorruption());
}

TEST(HmacVerifyTest, TruncatedTagVerification) {
  const Bytes key(20, 0x0b);
  const Slice msg("Hi There", 8);
  const auto tag = HmacSha256::Compute(key, msg);
  EXPECT_TRUE(HmacSha256::Verify(key, msg, Slice(tag.data(), 32)));
  EXPECT_TRUE(HmacSha256::Verify(key, msg, Slice(tag.data(), 16)));
  uint8_t bad[16];
  memcpy(bad, tag.data(), 16);
  bad[0] ^= 1;
  EXPECT_FALSE(HmacSha256::Verify(key, msg, Slice(bad, 16)));
  EXPECT_FALSE(HmacSha256::Verify(key, msg, Slice(tag.data(), size_t{0})));
}

TEST(BackendDispatchTest, ScopedOverrideRebindsNewInstances) {
  // Instances bind at SetKey: an override affects ciphers keyed under it,
  // and DET ciphertexts are byte-identical either way.
  DetCipher under_default;
  ASSERT_TRUE(under_default.SetKey(Bytes(32, 0x10)).ok());
  Bytes ct_default = under_default.Encrypt(Slice("same bytes", 10));
  {
    ScopedAesBackendOverride forced(SoftAesBackend());
    Aes aes;
    ASSERT_TRUE(aes.SetKey(Bytes(16, 1)).ok());
    EXPECT_EQ(aes.backend(), SoftAesBackend());
    DetCipher under_soft;
    ASSERT_TRUE(under_soft.SetKey(Bytes(32, 0x10)).ok());
    EXPECT_EQ(under_soft.Encrypt(Slice("same bytes", 10)), ct_default);
  }
  Aes aes_after;
  ASSERT_TRUE(aes_after.SetKey(Bytes(16, 1)).ok());
  EXPECT_EQ(aes_after.backend(), ActiveAesBackend());
}

// --- SHA-256 backends ---
//
// Every SHA-256 known-answer and HMAC vector runs on each backend this CPU
// has, and the lane call is checked against plain streaming hashes.

std::vector<const Sha256Backend*> AllShaBackends() {
  std::vector<const Sha256Backend*> v = {SoftSha256Backend()};
  if (AcceleratedSha256Backend() != nullptr) {
    v.push_back(AcceleratedSha256Backend());
  }
  return v;
}

std::string HexDigest(const Sha256::Digest& d) {
  return HexEncode(Slice(d.data(), d.size()));
}

Bytes RandomBytes(Rng* rng, size_t n) {
  Bytes b(n);
  rng->FillBytes(b.data(), n);
  return b;
}

}  // namespace

// Test ids name the backend, as for AesBackendTest above.
static void PrintTo(const Sha256Backend* backend, std::ostream* os) {
  *os << backend->name;
}

namespace {

class Sha256BackendTest
    : public ::testing::TestWithParam<const Sha256Backend*> {
 protected:
  ScopedShaBackendOverride pin_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(
    Backends, Sha256BackendTest, ::testing::ValuesIn(AllShaBackends()),
    [](const ::testing::TestParamInfo<const Sha256Backend*>& info) {
      return std::string(info.param->name);
    });

TEST_P(Sha256BackendTest, Fips180KnownAnswers) {
  ASSERT_EQ(ActiveSha256Backend(), GetParam());
  EXPECT_EQ(HexDigest(Sha256::Hash(Slice())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexDigest(Sha256::Hash(Slice("abc", 3))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexDigest(Sha256::Hash(Slice(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(Slice(chunk));
  EXPECT_EQ(HexDigest(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256BackendTest, HmacRfc4231Cases) {
  EXPECT_EQ(HexDigest(HmacSha256::Compute(Bytes(20, 0x0b),
                                          Slice("Hi There", 8))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(HexDigest(HmacSha256::Compute(
                Slice("Jefe", 4), Slice("what do ya want for nothing?", 28))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(HexDigest(HmacSha256::Compute(Bytes(20, 0xaa), Bytes(50, 0xdd))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  EXPECT_EQ(HexDigest(HmacSha256::Compute(
                Bytes(131, 0xaa),
                Slice(std::string("Test Using Larger Than Block-Size Key - "
                                  "Hash Key First")))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(
      HexDigest(HmacSha256::Compute(
          Bytes(131, 0xaa),
          Slice(std::string(
              "This is a test using a larger than block-size key and a larger "
              "than block-size data. The key needs to be hashed before being "
              "used by the HMAC algorithm.")))),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// The lane call against a streaming hash of each chain step, three lanes
// shaped like a row's El/Eo/Er ciphertexts: step 1 has no previous digest.
TEST_P(Sha256BackendTest, HashPairsMatchesManualChains) {
  Rng rng(17);
  const size_t kColumnBytes[3] = {29, 33, 45};
  for (size_t steps = 1; steps <= 50; ++steps) {
    Sha256::Digest lanes[3], manual[3];
    for (size_t s = 0; s < steps; ++s) {
      Bytes cols[3];
      Slice a[3], b[3];
      for (int c = 0; c < 3; ++c) {
        cols[c] = RandomBytes(&rng, kColumnBytes[c]);
        a[c] = Slice(cols[c]);
        if (s > 0) b[c] = Slice(lanes[c].data(), lanes[c].size());
      }
      Sha256::Digest next[3];
      Sha256::HashPairs(a, b, 3, next);
      for (int c = 0; c < 3; ++c) {
        lanes[c] = next[c];
        Sha256 h;
        h.Update(a[c]);
        if (s > 0) h.Update(Slice(manual[c].data(), manual[c].size()));
        manual[c] = h.Finish();
        ASSERT_EQ(lanes[c], manual[c]) << "steps " << steps << " step " << s;
      }
    }
  }
}

// More messages than lanes, of lengths that cross block boundaries at
// different steps, so lanes drop out of the lockstep at different blocks.
TEST_P(Sha256BackendTest, HashPairsMatchesHashAcrossLengthsAndLaneCounts) {
  Rng rng(29);
  for (size_t n = 0; n <= 3 * Sha256::kMaxLanes + 1; ++n) {
    std::vector<Bytes> as(n), bs(n);
    std::vector<Slice> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      as[i] = RandomBytes(&rng, rng.Uniform(200));
      bs[i] = RandomBytes(&rng, rng.Uniform(70));
      a[i] = Slice(as[i]);
      b[i] = Slice(bs[i]);
    }
    std::vector<Sha256::Digest> got(n);
    Sha256::HashPairs(a.data(), b.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      Bytes joined = as[i];
      joined.insert(joined.end(), bs[i].begin(), bs[i].end());
      ASSERT_EQ(got[i], Sha256::Hash(joined)) << "n " << n << " lane " << i;
    }
  }
}

TEST(Sha256BackendDifferentialTest, SoftAndAcceleratedAgreeOnRandomSplits) {
  const Sha256Backend* accel = AcceleratedSha256Backend();
  if (accel == nullptr) GTEST_SKIP() << "no hardware SHA-256 on this CPU";
  Rng rng(2026);
  // Hashes `msg` fed through Update in random pieces, on `backend`.
  const auto split_hash = [&](const Sha256Backend* backend, const Bytes& msg) {
    ScopedShaBackendOverride pin(backend);
    Sha256 h;
    size_t off = 0;
    while (off < msg.size()) {
      const size_t take = 1 + rng.Uniform(msg.size() - off);
      h.Update(Slice(msg.data() + off, take));
      off += take;
    }
    return h.Finish();
  };
  for (size_t len = 0; len <= 300; ++len) {
    const Bytes msg = RandomBytes(&rng, len);
    const Sha256::Digest soft = split_hash(SoftSha256Backend(), msg);
    ASSERT_EQ(soft, split_hash(accel, msg)) << "len " << len;
    ScopedShaBackendOverride pin(accel);
    ASSERT_EQ(soft, Sha256::Hash(msg)) << "len " << len;
  }
}

TEST(Sha256BackendDispatchTest, ShaNiCpuDispatchesToTheAcceleratedBackend) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string word;
  bool sha_ni = false;
  while (cpuinfo >> word && !sha_ni) sha_ni = word == "sha_ni";
  if (!sha_ni) GTEST_SKIP() << "CPU does not report sha_ni";
  ASSERT_NE(AcceleratedSha256Backend(), nullptr);
  EXPECT_EQ(ActiveSha256Backend(), AcceleratedSha256Backend());
}

TEST(Sha256BackendDispatchTest, ScopedOverridePinsAndRestores) {
  const Sha256Backend* before = ActiveSha256Backend();
  {
    ScopedShaBackendOverride pin(SoftSha256Backend());
    EXPECT_EQ(ActiveSha256Backend(), SoftSha256Backend());
  }
  EXPECT_EQ(ActiveSha256Backend(), before);
}

// Property sweep: DET uniqueness over distinct inputs (no SIV collisions in
// a modest sample).
class DetUniquenessTest : public ::testing::TestWithParam<int> {};

TEST_P(DetUniquenessTest, NoCollisionsAcrossDistinctPlaintexts) {
  DetCipher c;
  ASSERT_TRUE(c.SetKey(Bytes(32, uint8_t(GetParam()))).ok());
  std::set<Bytes> seen;
  for (uint32_t i = 0; i < 2000; ++i) {
    Bytes pt(4);
    pt[0] = i & 0xff;
    pt[1] = (i >> 8) & 0xff;
    pt[2] = uint8_t(GetParam());
    pt[3] = 0;
    EXPECT_TRUE(seen.insert(c.Encrypt(pt)).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Keys, DetUniquenessTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace concealer
