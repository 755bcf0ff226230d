// Tests for the enclave simulation: oblivious primitives (including trace
// data-independence), bitonic sort, registry and authentication.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"
#include "enclave/enclave.h"
#include "enclave/oblivious.h"
#include "enclave/registry.h"

namespace concealer {
namespace {

TEST(ObliviousTest, OGreaterMatchesComparison) {
  Rng rng(1);
  EXPECT_EQ(OGreater(0, 0), 0u);
  EXPECT_EQ(OGreater(1, 0), 1u);
  EXPECT_EQ(OGreater(0, 1), 0u);
  EXPECT_EQ(OGreater(~uint64_t{0}, 0), 1u);
  EXPECT_EQ(OGreater(0, ~uint64_t{0}), 0u);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.Next(), y = rng.Next();
    EXPECT_EQ(OGreater(x, y), x > y ? 1u : 0u) << x << " vs " << y;
  }
}

TEST(ObliviousTest, OMoveSelects) {
  EXPECT_EQ(OMove(1, 10, 20), 10u);
  EXPECT_EQ(OMove(0, 10, 20), 20u);
  EXPECT_EQ(OMove(7, 10, 20), 10u);  // Any nonzero cond selects x.
}

TEST(ObliviousTest, OSwapBytes) {
  Bytes a{1, 2, 3}, b{4, 5, 6};
  OSwapBytes(0, a.data(), b.data(), 3);
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
  OSwapBytes(1, a.data(), b.data(), 3);
  EXPECT_EQ(a, (Bytes{4, 5, 6}));
  EXPECT_EQ(b, (Bytes{1, 2, 3}));

  // Whole words and a tail.
  Bytes c(19), d(19);
  for (size_t i = 0; i < c.size(); ++i) {
    c[i] = static_cast<uint8_t>(i);
    d[i] = static_cast<uint8_t>(100 + i);
  }
  const Bytes c0 = c, d0 = d;
  OSwapBytes(0, c.data(), d.data(), c.size());
  EXPECT_EQ(c, c0);
  EXPECT_EQ(d, d0);
  OSwapBytes(1, c.data(), d.data(), c.size());
  EXPECT_EQ(c, d0);
  EXPECT_EQ(d, c0);
}

TEST(ObliviousTest, OSwap64) {
  uint64_t a = 11, b = 22;
  OSwap64(0, &a, &b);
  EXPECT_EQ(a, 11u);
  OSwap64(1, &a, &b);
  EXPECT_EQ(a, 22u);
  EXPECT_EQ(b, 11u);
}

std::vector<SortRecord> MakeRecords(const std::vector<uint64_t>& keys) {
  std::vector<SortRecord> recs;
  for (uint64_t k : keys) {
    SortRecord r;
    r.key = k;
    r.payload.assign(8, uint8_t(k));  // Payload tracks the key.
    recs.push_back(std::move(r));
  }
  return recs;
}

TEST(BitonicSortTest, SortsAscending) {
  auto recs = MakeRecords({5, 3, 8, 1, 9, 2, 7, 0});
  BitonicSort(&recs);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i - 1].key, recs[i].key);
  }
  // Payloads moved with their keys.
  for (const auto& r : recs) EXPECT_EQ(r.payload[0], uint8_t(r.key));
}

TEST(BitonicSortTest, NonPowerOfTwoSizes) {
  Rng rng(5);
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 13u, 100u, 255u}) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < n; ++i) keys.push_back(rng.Uniform(1000));
    auto recs = MakeRecords(keys);
    BitonicSort(&recs);
    ASSERT_EQ(recs.size(), n);
    std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(recs[i].key, keys[i]);
  }
}

TEST(BitonicSortTest, TraceIsDataIndependent) {
  // The defining property of the oblivious path: operation counts depend
  // only on n, never on the values.
  for (size_t n : {8u, 17u, 64u}) {
    Rng rng(7);
    std::vector<uint64_t> counts;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(trial == 0 ? i : rng.Next());  // Sorted vs random.
      }
      auto recs = MakeRecords(keys);
      OpCounter().Reset();
      BitonicSort(&recs);
      counts.push_back(OpCounter().Total());
    }
    for (size_t i = 1; i < counts.size(); ++i) {
      EXPECT_EQ(counts[0], counts[i]) << "n=" << n;
    }
  }
}

TEST(ObliviousPartitionTest, FlaggedRecordsMoveToFrontStably) {
  std::vector<SortRecord> recs;
  // Flags: 0 1 0 1 1 0; payload identifies original position.
  const std::vector<uint64_t> flags{0, 1, 0, 1, 1, 0};
  for (size_t i = 0; i < flags.size(); ++i) {
    SortRecord r;
    r.key = flags[i];
    r.payload.assign(8, uint8_t(i));
    recs.push_back(std::move(r));
  }
  ObliviousPartitionByFlag(&recs);
  ASSERT_EQ(recs.size(), 6u);
  // First three were flagged (original positions 1, 3, 4, in order).
  EXPECT_EQ(recs[0].payload[0], 1);
  EXPECT_EQ(recs[1].payload[0], 3);
  EXPECT_EQ(recs[2].payload[0], 4);
  // Rest keep relative order (0, 2, 5).
  EXPECT_EQ(recs[3].payload[0], 0);
  EXPECT_EQ(recs[4].payload[0], 2);
  EXPECT_EQ(recs[5].payload[0], 5);
}

TEST(RegistryTest, AddFindSerialize) {
  Registry reg;
  ASSERT_TRUE(reg.AddUser("alice", Slice("alice-secret", 12), "dev-1").ok());
  ASSERT_TRUE(reg.AddUser("bob", Slice("bob-secret", 10), "").ok());
  EXPECT_TRUE(reg.AddUser("alice", Slice("x", 1), "")
                  .IsInvalidArgument());
  EXPECT_TRUE(reg.AddUser("", Slice("x", 1), "").IsInvalidArgument());

  auto alice = reg.Find("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(alice->owned_observation, "dev-1");
  EXPECT_TRUE(reg.Find("carol").status().IsNotFound());

  auto round = Registry::Deserialize(reg.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->size(), 2u);
  auto bob = round->Find("bob");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(bob->credential, Registry::MakeProof(Slice("bob-secret", 10),
                                                 "bob"));
}

TEST(RegistryTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Registry::Deserialize(Bytes{1, 2}).ok());
  Bytes bad{9, 0, 0, 0};  // Claims 9 users, no payload.
  EXPECT_FALSE(Registry::Deserialize(bad).ok());
}

class EnclaveTest : public ::testing::Test {
 protected:
  EnclaveTest() : sk_(32, 0x11), enclave_(sk_) {}

  Bytes EncryptedRegistry(const Registry& reg) {
    RandCipher cipher;
    EXPECT_TRUE(cipher.SetKey(DeriveKey(sk_, "registry", Slice())).ok());
    return cipher.Encrypt(reg.Serialize());
  }

  Bytes sk_;
  Enclave enclave_;
};

TEST_F(EnclaveTest, AuthenticateRequiresRegistry) {
  EXPECT_TRUE(enclave_
                  .Authenticate("alice",
                                Registry::MakeProof(Slice("s", 1), "alice"))
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(EnclaveTest, AuthenticateAcceptsValidProof) {
  Registry reg;
  ASSERT_TRUE(reg.AddUser("alice", Slice("alice-secret", 12), "dev-1").ok());
  ASSERT_TRUE(enclave_.LoadRegistry(EncryptedRegistry(reg)).ok());

  auto session = enclave_.Authenticate(
      "alice", Registry::MakeProof(Slice("alice-secret", 12), "alice"));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->user_id, "alice");
  EXPECT_EQ(session->owned_observation, "dev-1");
}

TEST_F(EnclaveTest, AuthenticateRejectsBadProofAndUnknownUser) {
  Registry reg;
  ASSERT_TRUE(reg.AddUser("alice", Slice("alice-secret", 12), "").ok());
  ASSERT_TRUE(enclave_.LoadRegistry(EncryptedRegistry(reg)).ok());

  EXPECT_TRUE(enclave_
                  .Authenticate("alice",
                                Registry::MakeProof(Slice("wrong", 5),
                                                    "alice"))
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(enclave_
                  .Authenticate("mallory",
                                Registry::MakeProof(Slice("x", 1), "mallory"))
                  .status()
                  .IsPermissionDenied());
}

TEST_F(EnclaveTest, LoadRegistryRejectsTamperedBlob) {
  Registry reg;
  ASSERT_TRUE(reg.AddUser("alice", Slice("s", 1), "").ok());
  Bytes blob = EncryptedRegistry(reg);
  blob[blob.size() / 2] ^= 1;
  EXPECT_FALSE(enclave_.LoadRegistry(blob).ok());
}

TEST_F(EnclaveTest, EpochCiphersDifferAcrossEpochs) {
  auto c1 = enclave_.EpochDetCipher(1);
  auto c2 = enclave_.EpochDetCipher(2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // Same value encrypted in different epochs yields different ciphertext
  // (forward privacy, paper §7).
  EXPECT_NE(c1->Encrypt(Slice("v", 1)), c2->Encrypt(Slice("v", 1)));
  // Same epoch: identical (trapdoors match data).
  auto c1b = enclave_.EpochDetCipher(1);
  ASSERT_TRUE(c1b.ok());
  EXPECT_EQ(c1->Encrypt(Slice("v", 1)), c1b->Encrypt(Slice("v", 1)));
}

TEST_F(EnclaveTest, ReencryptionCounterChangesKeys) {
  auto c0 = enclave_.EpochDetCipher(1, 0);
  auto c1 = enclave_.EpochDetCipher(1, 1);
  ASSERT_TRUE(c0.ok());
  ASSERT_TRUE(c1.ok());
  EXPECT_NE(c0->Encrypt(Slice("v", 1)), c1->Encrypt(Slice("v", 1)));
}

TEST_F(EnclaveTest, EcallsAreCounted) {
  const uint64_t before = enclave_.ecalls();
  (void)enclave_.EpochDetCipher(1);
  (void)enclave_.EpochRandCipher(1);
  EXPECT_EQ(enclave_.ecalls(), before + 2);
}

}  // namespace
}  // namespace concealer
