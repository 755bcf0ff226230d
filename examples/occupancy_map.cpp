// Aggregate application (paper §1, application class 1): a building
// occupancy map computed over encrypted WiFi connectivity data.
//
// A campus IT department (DP) streams access-point association events to an
// untrusted analytics provider (SP). The provider renders per-hour
// occupancy per region and "busiest locations" dashboards without ever
// seeing a cleartext event: each dashboard refresh is a volume-hidden
// aggregate query answered inside the enclave.
//
// Build: cmake --build build && ./build/examples/occupancy_map

#include <cstdio>
#include <string>

#include "concealer/client.h"
#include "concealer/data_provider.h"
#include "concealer/service_provider.h"
#include "workload/wifi_generator.h"

using namespace concealer;  // Example code; library code never does this.

int main() {
  // A day of synthetic campus WiFi data: 12 regions, diurnal load.
  WifiConfig wifi;
  wifi.num_access_points = 12;
  wifi.num_devices = 400;
  wifi.start_time = 0;
  wifi.duration_seconds = 86400;
  wifi.total_rows = 20000;
  wifi.seed = 2024;
  WifiGenerator generator(wifi);
  const std::vector<PlainTuple> events = generator.Generate();

  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {12};
  config.time_buckets = 24;
  config.num_cell_ids = 60;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;

  DataProvider dp(config, Bytes(32, 0x0c));
  if (!dp.RegisterUser("dashboard", Slice("dash-secret", 11), "").ok()) {
    return 1;
  }

  auto opened = ServiceProvider::Open(config, dp.shared_secret());
  if (!opened.ok()) return 1;
  ServiceProvider& sp = **opened;
  if (!sp.LoadRegistry(dp.EncryptedRegistry()).ok()) return 1;
  auto epochs = dp.EncryptAll(events);
  if (!epochs.ok()) return 1;
  for (const auto& e : *epochs) {
    if (!sp.IngestEpoch(e).ok()) return 1;
  }

  Client dashboard("dashboard", Bytes{'d', 'a', 's', 'h', '-', 's', 'e', 'c',
                                      'r', 'e', 't'});

  // --- Occupancy heat map: connection events per region per 3h slot ----
  std::printf("Occupancy (connection events) per region and 3h slot\n");
  std::printf("%-8s", "region");
  for (int slot = 0; slot < 8; ++slot) {
    std::printf("  %02d-%02dh", slot * 3, slot * 3 + 3);
  }
  std::printf("\n");
  for (uint64_t region = 0; region < 12; ++region) {
    std::printf("R%-7llu", (unsigned long long)region);
    for (int slot = 0; slot < 8; ++slot) {
      Query q;
      q.agg = Aggregate::kCount;
      q.key_values = {{region}};
      q.time_lo = uint64_t(slot) * 3 * 3600;
      q.time_hi = q.time_lo + 3 * 3600 - 1;
      q.method = RangeMethod::kEBPB;  // Cheapest range method.
      auto r = dashboard.Run(&sp, q);
      if (!r.ok()) {
        std::printf("query failed: %s\n", r.status().ToString().c_str());
        return 1;
      }
      std::printf("  %6llu", (unsigned long long)r->count);
    }
    std::printf("\n");
  }

  // --- Busiest regions during the lunch peak ---------------------------
  Query top;
  top.agg = Aggregate::kTopK;
  top.k = 3;
  top.time_lo = 11 * 3600;
  top.time_hi = 14 * 3600;
  auto busiest = dashboard.Run(&sp, top);
  if (!busiest.ok()) return 1;
  std::printf("\nBusiest regions 11:00-14:00 (top-%u):\n", top.k);
  for (const auto& [keys, count] : busiest->keyed_counts) {
    std::printf("  region R%llu: %llu events\n",
                (unsigned long long)keys[0], (unsigned long long)count);
  }

  // --- Regions exceeding a capacity threshold --------------------------
  Query over;
  over.agg = Aggregate::kThresholdKeys;
  over.threshold = 400;
  over.time_lo = 9 * 3600;
  over.time_hi = 18 * 3600;
  auto crowded = dashboard.Run(&sp, over);
  if (!crowded.ok()) return 1;
  std::printf("\nRegions with >= %u events 09:00-18:00: %zu\n",
              over.threshold, crowded->keyed_counts.size());
  for (const auto& [keys, count] : crowded->keyed_counts) {
    std::printf("  region R%llu: %llu events\n",
                (unsigned long long)keys[0], (unsigned long long)count);
  }

  std::printf("\nEvery dashboard cell above was answered from fixed-size "
              "encrypted bins;\nthe provider never saw per-query result "
              "volumes or cleartext events.\n");
  return 0;
}
