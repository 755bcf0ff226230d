// Quickstart: the minimal Concealer pipeline end to end.
//
//   1. The data provider (DP) registers a user and encrypts one epoch of
//      spatial time-series readings with Algorithm 1.
//   2. The service provider (SP) ingests the ciphertext into its indexed
//      store and loads the encrypted registry into the enclave.
//   3. The user authenticates and runs a volume-hidden count query; the
//      enclave fetches one fixed-size bin, filters, and returns an answer
//      encrypted under the user's key.
//
// Build: cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "concealer/client.h"
#include "concealer/data_provider.h"
#include "concealer/service_provider.h"

using namespace concealer;  // Example code; library code never does this.

int main() {
  // --- Setup shared between DP and the enclave -------------------------
  ConcealerConfig config;
  config.key_buckets = {8};     // Location axis: 8 hash buckets.
  config.key_domains = {10};    // 10 known locations (rooms 0..9).
  config.time_buckets = 24;     // One grid row per hour.
  config.num_cell_ids = 40;     // Cell-ids allocated over the 8x24 grid.
  config.epoch_seconds = 86400; // One epoch = one day.
  config.time_quantum = 60;     // Per-minute filter granularity.

  const Bytes sk(32, 0x5e);  // The DP <-> enclave shared secret.
  DataProvider dp(config, sk);

  // --- Phase 0: user registration --------------------------------------
  const Bytes alice_secret{'s', '3', 'c', 'r', '3', 't'};
  if (!dp.RegisterUser("alice", alice_secret, "dev-alice").ok()) return 1;

  // --- Phase 1: DP encrypts an epoch of readings -----------------------
  std::vector<PlainTuple> readings;
  for (uint64_t minute = 0; minute < 600; ++minute) {
    PlainTuple t;
    t.keys = {minute % 10};               // Room.
    t.time = minute * 60;                 // Timestamp within the day.
    t.observation = minute % 3 == 0 ? "dev-alice" : "dev-other";
    t.payload = "";
    readings.push_back(std::move(t));
  }
  auto epochs = dp.EncryptAll(readings);
  if (!epochs.ok()) {
    std::printf("encrypt failed: %s\n", epochs.status().ToString().c_str());
    return 1;
  }

  // --- SP side: ingest ciphertext + registry ---------------------------
  // The SP's row store: mmap'd segment files in an ephemeral directory
  // (give StorageOptions::dir a path to keep the data across restarts).
  auto opened = ServiceProvider::Open(config, dp.shared_secret());
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ServiceProvider> sp = std::move(*opened);
  if (!sp->LoadRegistry(dp.EncryptedRegistry()).ok()) return 1;
  for (const auto& epoch : *epochs) {
    if (!sp->IngestEpoch(epoch).ok()) return 1;
  }
  std::printf("ingested %llu encrypted rows (%llu bytes) into the SP's %s "
              "store\n",
              (unsigned long long)sp->table().num_rows(),
              (unsigned long long)sp->table().TotalBytes(),
              sp->table().engine().name());

  // --- Phase 2-4: the user queries -------------------------------------
  Client alice("alice", alice_secret);

  Query q;
  q.agg = Aggregate::kCount;
  q.key_values = {{4}};       // Room 4...
  q.time_lo = 0;              // ...over the first two hours.
  q.time_hi = 2 * 3600;
  q.verify = true;            // Check the DP's hash-chain tags.

  auto result = alice.Run(sp.get(), q);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("count(room=4, 00:00-02:00) = %llu\n",
              (unsigned long long)result->count);
  std::printf("rows fetched from the DBMS: %llu (fixed bin volume), "
              "matching rows: %llu, verified: %s\n",
              (unsigned long long)result->rows_fetched,
              (unsigned long long)result->rows_matched,
              result->verified ? "yes" : "no");

  // A user that never registered is rejected by the enclave.
  Client mallory("mallory", Bytes{'x'});
  auto denied = mallory.Run(sp.get(), q);
  std::printf("unregistered user: %s\n", denied.status().ToString().c_str());
  return 0;
}
