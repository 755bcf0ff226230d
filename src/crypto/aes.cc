#include "crypto/aes.h"

#include <cstring>

#include "crypto/aes_backend_internal.h"

namespace concealer {

namespace {

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

}  // namespace

Status Aes::SetKey(Slice key) { return SetKey(key, ActiveAesBackend()); }

Status Aes::SetKey(Slice key, const AesBackendOps* ops) {
  // FIPS-197 key expansion, shared by every backend: the hardware paths
  // consume the exact same round-key bytes, which is what makes their
  // ciphertexts identical to the software backend's by construction.
  const uint8_t* sbox = aes_internal::kAesSBox;
  int nk;  // Key length in 32-bit words.
  if (key.size() == 16) {
    nk = 4;
    rounds_ = 10;
  } else if (key.size() == 32) {
    nk = 8;
    rounds_ = 14;
  } else {
    rounds_ = 0;
    ops_ = nullptr;
    return Status::InvalidArgument("AES key must be 16 or 32 bytes");
  }
  ops_ = ops;

  const int total_words = 4 * (rounds_ + 1);
  uint8_t* w = round_keys_;
  std::memcpy(w, key.data(), key.size());
  for (int i = nk; i < total_words; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, w + 4 * (i - 1), 4);
    if (i % nk == 0) {
      // RotWord then SubWord then Rcon.
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(sbox[temp[1]] ^ kRcon[i / nk]);
      temp[1] = sbox[temp[2]];
      temp[2] = sbox[temp[3]];
      temp[3] = sbox[t0];
    } else if (nk > 6 && i % nk == 4) {
      for (int j = 0; j < 4; ++j) temp[j] = sbox[temp[j]];
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + j] = static_cast<uint8_t>(w[4 * (i - nk) + j] ^ temp[j]);
    }
  }
  return Status::OK();
}

void Aes::EncryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  ops_->encrypt_blocks(round_keys_, rounds_, in, out, 1);
}

void Aes::EncryptBlocks(const uint8_t* in, uint8_t* out,
                        size_t nblocks) const {
  ops_->encrypt_blocks(round_keys_, rounds_, in, out, nblocks);
}

void AesCtr::Xor(const Aes& aes, const uint8_t iv[Aes::kBlockSize], Slice in,
                 uint8_t* out) {
  aes.backend()->ctr_xor(aes.round_keys(), aes.rounds(), iv, in.data(), out,
                         in.size());
}

void AesCtr::XorInPlace(const Aes& aes, const uint8_t iv[Aes::kBlockSize],
                        uint8_t* data, size_t len) {
  aes.backend()->ctr_xor(aes.round_keys(), aes.rounds(), iv, data, data, len);
}

void AesCtr::Keystream(const Aes& aes, const uint8_t iv[Aes::kBlockSize],
                       uint8_t* out, size_t len) {
  aes.backend()->ctr_keystream(aes.round_keys(), aes.rounds(), iv, out, len);
}

}  // namespace concealer
