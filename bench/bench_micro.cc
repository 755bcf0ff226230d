// Microbenchmarks for the substrates underneath every experiment: AES
// backends, SHA-256, the DET/randomized ciphers, B+-tree probes and the
// oblivious sorting network. Useful for attributing end-to-end costs.
//
// Two modes:
//   - default: the google-benchmark suite below (`./bench_micro`).
//   - crypto sweep: `./bench_micro out.json` (or CONCEALER_BENCH_JSON=...)
//     runs the self-timed crypto microbench — CTR / CMAC / KDF throughput,
//     soft vs. accelerated backend vs. the seed's one-block-per-call
//     implementation, across 1/4/8-block and bulk buffer sizes — and emits
//     the BENCH_crypto.json artifact CI uploads and regresses against.
//     CONCEALER_BENCH_MIN_TIME (seconds, default 0.1) trades accuracy for
//     runtime; CI smoke uses 0.02.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/coding.h"
#include "common/random.h"
#include "common/timer.h"
#include "crypto/aes.h"
#include "crypto/aes_backend.h"
#include "crypto/cmac.h"
#include "crypto/det_cipher.h"
#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"
#include "crypto/sha256.h"
#include "enclave/oblivious.h"
#include "storage/bplus_tree.h"

namespace concealer {
namespace {

// ---------------------------------------------------------------------------
// Seed reference: the pre-backend implementation — byte-oriented S-box
// rounds, one block per call, one block per CTR iteration. Kept here (bench
// only) so BENCH_crypto.json records speedups against the true baseline,
// not against the rewritten soft path.
// ---------------------------------------------------------------------------

namespace seed {

const uint8_t* SBox() {
  // Recover the S-box from the library's cipher instead of duplicating the
  // table: S[i] is byte 0 of AES-128-ECB with an all-zero key... is not —
  // so just derive it by probing the real implementation? No: the S-box is
  // a fixed public constant; regenerate it algebraically (GF(2^8) inverse +
  // affine map), which doubles as a cross-check of the library tables.
  static uint8_t sbox[256];
  static bool init = [] {
    // Build log/antilog tables over generator 3.
    uint8_t exp[510];
    uint8_t log[256] = {};
    uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = x;
      log[x] = static_cast<uint8_t>(i);
      // Multiply x by 3 = x ^ xtime(x).
      x = static_cast<uint8_t>(x ^ ((x << 1) ^ ((x >> 7) * 0x1b)));
    }
    for (int i = 255; i < 510; ++i) exp[i] = exp[i - 255];
    for (int i = 0; i < 256; ++i) {
      const uint8_t inv = i == 0 ? 0 : exp[255 - log[i]];
      uint8_t s = inv;
      uint8_t r = inv;
      for (int k = 0; k < 4; ++k) {
        r = static_cast<uint8_t>((r << 1) | (r >> 7));
        s ^= r;
      }
      sbox[i] = static_cast<uint8_t>(s ^ 0x63);
    }
    return true;
  }();
  (void)init;
  return sbox;
}

inline uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// The seed's EncryptBlock: SubBytes/ShiftRows/MixColumns per byte, using
// the round keys from the library's (identical) key schedule.
void EncryptBlock(const uint8_t* rk, int rounds, const uint8_t in[16],
                  uint8_t out[16]) {
  const uint8_t* sbox = SBox();
  uint8_t s[16];
  std::memcpy(s, in, 16);
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  for (int round = 1; round < rounds; ++round) {
    for (int i = 0; i < 16; ++i) s[i] = sbox[s[i]];
    uint8_t t;
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    t = s[2]; s[2] = s[10]; s[10] = t;
    t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = s + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<uint8_t>(XTime(a0) ^ XTime(a1) ^ a1 ^ a2 ^ a3);
      col[1] = static_cast<uint8_t>(a0 ^ XTime(a1) ^ XTime(a2) ^ a2 ^ a3);
      col[2] = static_cast<uint8_t>(a0 ^ a1 ^ XTime(a2) ^ XTime(a3) ^ a3);
      col[3] = static_cast<uint8_t>(XTime(a0) ^ a0 ^ a1 ^ a2 ^ XTime(a3));
    }
    for (int i = 0; i < 16; ++i) s[i] ^= rk[16 * round + i];
  }
  for (int i = 0; i < 16; ++i) s[i] = sbox[s[i]];
  uint8_t t;
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  t = s[2]; s[2] = s[10]; s[10] = t;
  t = s[6]; s[6] = s[14]; s[14] = t;
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  for (int i = 0; i < 16; ++i) out[i] = s[i] ^ rk[16 * rounds + i];
}

// The seed's AesCtrXor: one EncryptBlock per 16 bytes.
void CtrXor(const Aes& aes, const uint8_t iv[16], const uint8_t* in,
            uint8_t* out, size_t len) {
  uint8_t counter[16];
  uint8_t keystream[16];
  std::memcpy(counter, iv, 16);
  size_t off = 0;
  while (off < len) {
    EncryptBlock(aes.round_keys(), aes.rounds(), counter, keystream);
    const size_t n = len - off < 16 ? len - off : 16;
    for (size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    off += n;
    for (int i = 15; i >= 0; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

}  // namespace seed

// ---------------------------------------------------------------------------
// Crypto sweep (JSON mode).
// ---------------------------------------------------------------------------

double MinTime() {
  const char* env = std::getenv("CONCEALER_BENCH_MIN_TIME");
  if (env == nullptr) return 0.1;
  const double v = std::atof(env);
  return v <= 0 ? 0.1 : v;
}

// Times fn (which must process `bytes_per_call`) by doubling the iteration
// count until the run exceeds the minimum measuring time.
template <typename Fn>
double MeasureGbps(size_t bytes_per_call, const Fn& fn) {
  const double min_time = MinTime();
  fn();  // Warm-up (faults pages, fills caches).
  uint64_t iters = 1;
  for (;;) {
    Timer t;
    for (uint64_t i = 0; i < iters; ++i) fn();
    const double s = t.ElapsedSeconds();
    if (s >= min_time) {
      return static_cast<double>(bytes_per_call) * iters / s / 1e9;
    }
    iters = s <= 0 ? iters * 8 : iters * 2;
  }
}

struct SweepResult {
  std::string op;
  std::string backend;
  uint64_t bytes = 0;   // Payload bytes per op (per message for batches).
  uint64_t batch = 1;   // Messages per call.
  double gbps = 0;
};

void RunCryptoSweep(const char* json_path) {
  bench::PrintHeader(
      "Crypto microbench: CTR / CMAC / KDF throughput per AES backend",
      "infrastructure for the ROADMAP north star (hardware-speed crypto)");

  const AesBackendOps* soft = SoftAesBackend();
  const AesBackendOps* accel = AcceleratedAesBackend();
  const AesBackendOps* active = ActiveAesBackend();
  std::printf("active backend: %s; accelerated available: %s\n\n",
              active->name, accel != nullptr ? accel->name : "no");

  const Bytes key(32, 0x5c);
  std::vector<SweepResult> results;
  // CTR buffer sizes: 1 / 4 / 8 blocks (the pipeline batch shapes) and two
  // bulk sizes representative of column ciphertexts and epoch payloads.
  const size_t kCtrSizes[] = {16, 64, 128, 4096, 65536};

  // Seed reference (CTR only — that is the regression target).
  {
    Aes aes;
    (void)aes.SetKey(key, soft);
    // Sanity: the bench-local seed reference must agree with the library
    // cipher (regenerated S-box + shared key schedule) or its numbers are
    // meaningless.
    uint8_t probe_in[16] = {7, 7, 7}, probe_seed[16], probe_lib[16];
    seed::EncryptBlock(aes.round_keys(), aes.rounds(), probe_in, probe_seed);
    aes.EncryptBlock(probe_in, probe_lib);
    if (std::memcmp(probe_seed, probe_lib, 16) != 0) {
      std::fprintf(stderr, "seed reference disagrees with library AES\n");
      std::abort();
    }
    Bytes buf(65536, 0xaa);
    uint8_t iv[16] = {1, 2, 3};
    for (size_t size : kCtrSizes) {
      const double gbps = MeasureGbps(
          size, [&] { seed::CtrXor(aes, iv, buf.data(), buf.data(), size); });
      results.push_back({"ctr_xor", "seed", size, 1, gbps});
    }
  }

  std::vector<const AesBackendOps*> backends = {soft};
  if (accel != nullptr) backends.push_back(accel);
  for (const AesBackendOps* ops : backends) {
    Aes aes;
    (void)aes.SetKey(key, ops);
    Bytes buf(65536, 0xaa);
    uint8_t iv[16] = {1, 2, 3};
    for (size_t size : kCtrSizes) {
      const double gbps = MeasureGbps(size, [&] {
        AesCtr::Xor(aes, iv, Slice(buf.data(), size), buf.data());
      });
      results.push_back({"ctr_xor", ops->name, size, 1, gbps});
    }
    {
      const double gbps = MeasureGbps(
          65536, [&] { AesCtr::Keystream(aes, iv, buf.data(), 65536); });
      results.push_back({"ctr_keystream", ops->name, 65536, 1, gbps});
    }

    AesCmac cmac;
    (void)cmac.SetKey(key, ops);
    for (size_t msg : {size_t{64}, size_t{1024}}) {
      const double gbps = MeasureGbps(msg, [&] {
        auto tag = cmac.Compute(Slice(buf.data(), msg));
        benchmark::DoNotOptimize(tag);
      });
      results.push_back({"cmac", ops->name, msg, 1, gbps});
    }
    for (size_t lanes : {size_t{4}, size_t{8}}) {
      Slice msgs[8];
      AesCmac::Tag tags[8];
      for (size_t l = 0; l < lanes; ++l) msgs[l] = Slice(buf.data(), 64);
      const double gbps = MeasureGbps(64 * lanes, [&] {
        cmac.ComputeBatch(msgs, lanes, tags);
        benchmark::DoNotOptimize(tags);
      });
      results.push_back({"cmac_batch", ops->name, 64, lanes, gbps});
    }

    DetCipher det;
    (void)det.SetKey(key, ops);
    {
      // The trapdoor shape: 13-byte Index plaintexts.
      Bytes plain(13, 0x42);
      const double gbps = MeasureGbps(13, [&] {
        Bytes ct = det.Encrypt(plain);
        benchmark::DoNotOptimize(ct);
      });
      results.push_back({"det_encrypt", ops->name, 13, 1, gbps});

      Slice plains[8];
      Bytes outs[8];
      for (int l = 0; l < 8; ++l) plains[l] = Slice(plain);
      const double gbps_b = MeasureGbps(13 * 8, [&] {
        det.EncryptBatch(plains, 8, outs);
        benchmark::DoNotOptimize(outs);
      });
      results.push_back({"det_encrypt_batch", ops->name, 13, 8, gbps_b});

      // The row-decrypt shape: ~45-byte Er ciphertext bodies, 64 per batch.
      const Bytes er_ct = det.Encrypt(Bytes(29, 0x33));
      std::vector<Slice> cts(64, Slice(er_ct));
      std::vector<Bytes> pts(64);
      const double gbps_d = MeasureGbps(er_ct.size() * 64, [&] {
        const Status st = det.DecryptBatch(cts.data(), 64, pts.data());
        benchmark::DoNotOptimize(st);
      });
      results.push_back({"det_decrypt_batch", ops->name, er_ct.size(), 64,
                         gbps_d});
    }
  }

  // KDF (HMAC-SHA256; independent of the AES backend).
  {
    const Bytes master(32, 0x11);
    const double gbps = MeasureGbps(32, [&] {
      Bytes k = DeriveKey64(master, "bench", 42);
      benchmark::DoNotOptimize(k);
    });
    results.push_back({"kdf_derive", "hmac-sha256", 32, 1, gbps});
  }

  std::printf("%-18s %-10s %8s %6s %12s\n", "op", "backend", "bytes", "batch",
              "GB/s");
  for (const SweepResult& r : results) {
    std::printf("%-18s %-10s %8llu %6llu %12.4f\n", r.op.c_str(),
                r.backend.c_str(), (unsigned long long)r.bytes,
                (unsigned long long)r.batch, r.gbps);
  }

  // Speedups at the bulk CTR size — the acceptance gate the ISSUE sets:
  // soft >= 1.5x seed; accelerated >= 5x seed.
  auto ctr_gbps = [&](const std::string& backend) {
    for (const SweepResult& r : results) {
      if (r.op == "ctr_xor" && r.backend == backend && r.bytes == 65536) {
        return r.gbps;
      }
    }
    return 0.0;
  };
  const double g_seed = ctr_gbps("seed");
  const double g_soft = ctr_gbps("soft");
  const double g_accel = accel != nullptr ? ctr_gbps(accel->name) : 0;
  const double soft_speedup = g_seed > 0 ? g_soft / g_seed : 0;
  const double accel_speedup = g_seed > 0 ? g_accel / g_seed : 0;
  std::printf("\nCTR@64KiB speedup over seed: soft %.2fx%s\n", soft_speedup,
              accel != nullptr
                  ? (", accelerated " + std::to_string(accel_speedup) + "x")
                        .c_str()
                  : "");

  bench::JsonWriter j;
  j.BeginObject();
  j.Key("bench"); j.String("crypto_micro");
  j.Key("schema_version"); j.Number(uint64_t{1});
  j.Key("active_backend"); j.String(active->name);
  j.Key("accelerated_available"); j.Bool(accel != nullptr);
  j.Key("accelerated_backend");
  j.String(accel != nullptr ? accel->name : "none");
  j.Key("min_measure_seconds"); j.Number(MinTime());
  j.Key("results");
  j.BeginArray();
  for (const SweepResult& r : results) {
    j.BeginObject();
    j.Key("op"); j.String(r.op);
    j.Key("backend"); j.String(r.backend);
    j.Key("bytes"); j.Number(r.bytes);
    j.Key("batch"); j.Number(r.batch);
    j.Key("gbps"); j.Number(r.gbps);
    j.EndObject();
  }
  j.EndArray();
  j.Key("speedups");
  j.BeginObject();
  j.Key("ctr_64k_soft_over_seed"); j.Number(soft_speedup);
  j.Key("ctr_64k_accel_over_seed"); j.Number(accel_speedup);
  j.Key("ctr_64k_accel_over_soft");
  j.Number(g_soft > 0 ? g_accel / g_soft : 0);
  j.EndObject();
  j.Key("gate");
  j.BeginObject();
  j.Key("soft_over_seed_min"); j.Number(1.5);
  j.Key("accel_over_seed_min"); j.Number(5.0);
  j.Key("soft_pass"); j.Bool(soft_speedup >= 1.5);
  j.Key("accel_pass");
  j.Bool(accel == nullptr || accel_speedup >= 5.0);
  j.EndObject();
  j.EndObject();
  bench::WriteFileOrDie(json_path, j.str());
  bench::PrintFooter();
}

// ---------------------------------------------------------------------------
// google-benchmark suite (default mode).
// ---------------------------------------------------------------------------

void BM_AesEncryptBlock(benchmark::State& state) {
  Aes aes;
  (void)aes.SetKey(Bytes(32, 1));
  uint8_t block[16] = {1, 2, 3};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesCtrXor(benchmark::State& state) {
  Aes aes;
  (void)aes.SetKey(Bytes(32, 1));
  Bytes buf(state.range(0), 0xab);
  uint8_t iv[16] = {9};
  for (auto _ : state) {
    AesCtr::Xor(aes, iv, buf, buf.data());
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtrXor)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    auto d = Sha256::Hash(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024);

void BM_DetEncrypt(benchmark::State& state) {
  DetCipher det;
  (void)det.SetKey(Bytes(32, 2));
  Bytes plain(state.range(0), 0x33);
  for (auto _ : state) {
    Bytes ct = det.Encrypt(plain);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_DetEncrypt)->Arg(13)->Arg(64);

void BM_DetEncryptBatch8(benchmark::State& state) {
  DetCipher det;
  (void)det.SetKey(Bytes(32, 2));
  Bytes plain(state.range(0), 0x33);
  Slice plains[8];
  Bytes outs[8];
  for (int i = 0; i < 8; ++i) plains[i] = Slice(plain);
  for (auto _ : state) {
    det.EncryptBatch(plains, 8, outs);
    benchmark::DoNotOptimize(outs);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DetEncryptBatch8)->Arg(13)->Arg(64);

void BM_DetDecrypt(benchmark::State& state) {
  DetCipher det;
  (void)det.SetKey(Bytes(32, 2));
  const Bytes ct = det.Encrypt(Bytes(64, 0x33));
  for (auto _ : state) {
    auto pt = det.Decrypt(ct);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_DetDecrypt);

void BM_RandEncrypt(benchmark::State& state) {
  RandCipher rand;
  (void)rand.SetKey(Bytes(32, 3));
  Bytes plain(64, 0x44);
  for (auto _ : state) {
    Bytes ct = rand.Encrypt(plain);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_RandEncrypt);

void BM_BPlusTreeProbe(benchmark::State& state) {
  BPlusTree tree;
  Rng rng(1);
  std::vector<Bytes> keys;
  for (int i = 0; i < state.range(0); ++i) {
    Bytes key;
    PutFixed64(&key, rng.Next());
    if (tree.Insert(key, i).ok()) keys.push_back(std::move(key));
  }
  size_t i = 0;
  for (auto _ : state) {
    uint64_t row_id = 0;
    bool found = false;
    Status st = tree.Find(keys[i++ % keys.size()], &row_id, &found);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(row_id);
  }
}
BENCHMARK(BM_BPlusTreeProbe)->Arg(100000)->Arg(1000000);

void BM_BitonicSort(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<SortRecord> recs(state.range(0));
    for (auto& r : recs) {
      r.key = rng.Next();
      r.payload.assign(32, 0);
    }
    state.ResumeTiming();
    BitonicSort(&recs);
    benchmark::DoNotOptimize(recs);
  }
}
BENCHMARK(BM_BitonicSort)->Arg(256)->Arg(4096);

void BM_ObliviousPrimitives(benchmark::State& state) {
  Rng rng(3);
  uint64_t acc = 0;
  for (auto _ : state) {
    const uint64_t x = rng.Next(), y = rng.Next();
    acc += OMove(OGreater(x, y), x, y);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ObliviousPrimitives);

}  // namespace
}  // namespace concealer

int main(int argc, char** argv) {
  const char* json_path = concealer::bench::BenchJsonPath(argc, argv);
  if (json_path != nullptr) {
    concealer::RunCryptoSweep(json_path);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
