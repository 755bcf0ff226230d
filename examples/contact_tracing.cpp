// Individualized application (paper §1, application class 2): exposure
// tracing over encrypted WiFi data, in the spirit of WiFiTrace [43].
//
// A user asks about *their own* device history: which locations did my
// device visit, and how many other devices were at those locations in the
// same window? The enclave authorizes the query against the DP-provisioned
// registry — users can only ask individualized questions about devices
// they own; asking about someone else's device is denied.
//
// Build: cmake --build build && ./build/examples/contact_tracing

#include <cstdio>

#include "concealer/client.h"
#include "concealer/data_provider.h"
#include "concealer/service_provider.h"
#include "workload/wifi_generator.h"

using namespace concealer;  // Example code; library code never does this.

int main() {
  WifiConfig wifi;
  wifi.num_access_points = 10;
  wifi.num_devices = 120;
  wifi.start_time = 0;
  wifi.duration_seconds = 86400;
  wifi.total_rows = 8000;
  wifi.seed = 9;
  WifiGenerator generator(wifi);
  std::vector<PlainTuple> events = generator.Generate();

  // Make the traced device visible in the data: device "dev-7".
  const std::string traced_device = "dev-7";

  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {10};
  config.time_buckets = 24;
  config.num_cell_ids = 50;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;

  DataProvider dp(config, Bytes(32, 0x7a));
  // carol owns dev-7 and may trace it; dave owns dev-9.
  if (!dp.RegisterUser("carol", Slice("carol-secret", 12), traced_device)
           .ok() ||
      !dp.RegisterUser("dave", Slice("dave-secret", 11), "dev-9").ok()) {
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

  Client carol("carol", Bytes{'c', 'a', 'r', 'o', 'l', '-', 's', 'e', 'c',
                              'r', 'e', 't'});

  // --- Step 1 (Q4): where was my device during the exposure window? ----
  Query where;
  where.agg = Aggregate::kKeysWithObservation;
  where.observation = traced_device;
  where.time_lo = 8 * 3600;
  where.time_hi = 18 * 3600;
  auto visited = carol.Run(&sp, where);
  if (!visited.ok()) {
    std::printf("trace failed: %s\n", visited.status().ToString().c_str());
    return 1;
  }
  std::printf("Locations visited by %s between 08:00 and 18:00:\n",
              traced_device.c_str());
  for (const auto& [keys, count] : visited->keyed_counts) {
    std::printf("  AP %llu (%llu association events)\n",
                (unsigned long long)keys[0], (unsigned long long)count);
  }

  // --- Step 2 (Q1): potential exposure = crowd size at those locations -
  std::printf("\nCrowding at visited locations (same window):\n");
  for (const auto& [keys, _] : visited->keyed_counts) {
    Query crowd;
    crowd.agg = Aggregate::kCount;
    crowd.key_values = {keys};
    crowd.time_lo = where.time_lo;
    crowd.time_hi = where.time_hi;
    crowd.method = RangeMethod::kEBPB;
    auto r = carol.Run(&sp, crowd);
    if (!r.ok()) return 1;
    std::printf("  AP %llu: %llu total association events\n",
                (unsigned long long)keys[0], (unsigned long long)r->count);
  }

  // --- Authorization: tracing someone else's device is denied ----------
  Query spy = where;
  spy.observation = "dev-9";  // Dave's device.
  auto denied = carol.Run(&sp, spy);
  std::printf("\ncarol tracing dave's device: %s\n",
              denied.status().ToString().c_str());

  Client mallory("mallory", Bytes{'m'});
  auto unknown = mallory.Run(&sp, where);
  std::printf("unregistered user tracing:    %s\n",
              unknown.status().ToString().c_str());
  return 0;
}
