// Exp 5 (paper §9.2): dynamic insertion. Hourly rounds are encrypted
// independently (paper: peak hour ≈50K rows, 20 x 1,250 grid per round,
// 400 cell-ids, 146 bins of ≈400 tuples); queries spanning rounds fetch
// log|Bin| bins per round and re-encrypt + rewrite everything they touch.
//
//   paper: ≈3K rows retrieved per round-touching query; ≤4s total for
//   query + re-encryption + rewrite.
//
// Shape to hold: per-query cost stays in the same ballpark as static BPB
// plus a re-encryption term proportional to the fetched rows; repeated
// queries keep verifying and answering correctly.
//
// Part 2 (sustained churn): the durability story under §6 churn with the
// persistent engine — sessions of dynamic queries separated by simulated
// kills (fault_fs downs all I/O before teardown, so not even the
// best-effort seals run) and reopens. Gates, each fatal:
//   - disk amplification DiskBytes/TotalBytes stays under
//     CONCEALER_EXP5_MAX_AMP (default 3.0) — the WAL checkpoints and the
//     compactor reclaim what churn strands;
//   - the WAL is truncated back under its checkpoint threshold by upkeep;
//   - after every reopen, static verify=true probes answer byte-identical
//     to a never-restarted reference provider (ephemeral directory).
// Emits BENCH_dynamic.json (argv[1] or CONCEALER_BENCH_JSON).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "concealer/wire.h"
#include "storage/fault_fs.h"

using namespace concealer;

namespace {

struct SessionStats {
  double query_seconds = 0;
  uint64_t queries = 0;
  uint64_t wal_bytes_end = 0;
  uint64_t disk_bytes = 0;
  uint64_t dead_bytes = 0;
  double recovery_seconds = 0;
};

std::vector<Query> ChurnProbes() {
  std::vector<Query> probes;
  for (uint64_t loc : {3, 9, 15}) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{loc}};
    q.verify = true;
    q.time_lo = 7 * 3600;
    q.time_hi = 9 * 3600;
    probes.push_back(q);
    q.time_lo = 86400 + 10 * 3600;
    q.time_hi = 86400 + 12 * 3600;
    probes.push_back(q);
  }
  return probes;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Exp 5: dynamic insertion (hourly rounds + rewrite)",
                     "paper §9.2 Exp 5");

  const uint64_t rows_per_hour = 50000 / bench::Scale() * 10;  // Peak hour.
  ConcealerConfig config;
  config.key_buckets = {20};
  config.key_domains = {2000};
  config.time_buckets = 60;
  config.num_cell_ids = 400 / 4;
  config.epoch_seconds = 3600;  // One round per hour (paper Exp 5).
  config.time_quantum = 60;

  DataProvider dp(config, Bytes(32, 0x5d));
  std::unique_ptr<ServiceProvider> sp =
      bench::MakeProvider(config, dp.shared_secret());
  sp->set_dynamic_mode(true);

  // Ingest 6 hourly rounds.
  const int kRounds = 6;
  Timer t_ins;
  uint64_t total_rows = 0;
  for (int h = 0; h < kRounds; ++h) {
    WifiConfig wifi;
    wifi.num_access_points = 2000;
    wifi.num_devices = 4000;
    wifi.start_time = uint64_t(h) * 3600;
    wifi.duration_seconds = 3600;
    wifi.total_rows = rows_per_hour;
    wifi.seed = 100 + h;
    WifiGenerator gen(wifi);
    auto epochs = dp.EncryptAll(gen.Generate());
    if (!epochs.ok()) return 1;
    for (const auto& e : *epochs) {
      total_rows += e.rows.size();
      if (!sp->IngestEpoch(e).ok()) return 1;
    }
  }
  std::printf("ingested %d rounds, %llu encrypted rows in %.2fs\n\n", kRounds,
              (unsigned long long)total_rows, t_ins.ElapsedSeconds());

  // Queries spanning 3 consecutive rounds, as in §6's running example.
  double latency_sum = 0;
  std::printf("%-10s %12s %12s %16s %14s\n", "query#", "fetched", "matched",
              "time incl rw(s)", "reenc rounds");
  for (int i = 0; i < 5; ++i) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{uint64_t(i * 13 % 2000)}};
    q.time_lo = 3600;  // Rounds 1..3.
    q.time_hi = 3 * 3600 + 1800;
    q.verify = true;
    Timer t;
    auto r = sp->Execute(q);
    if (!r.ok()) {
      std::printf("query failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    uint64_t reencs = 0;
    for (const auto& range : sp->EpochRowRanges()) {
      auto state = sp->epoch_state(range.epoch_id);
      if (state.ok()) reencs += (*state)->reenc_counter();
    }
    latency_sum += t.ElapsedSeconds();
    std::printf("%-10d %12llu %12llu %16.3f %14llu\n", i,
                (unsigned long long)r->rows_fetched,
                (unsigned long long)r->rows_matched, t.ElapsedSeconds(),
                (unsigned long long)reencs);
  }
  std::printf("\npaper: ≈3K rows retrieved, ≤4s per query incl. "
              "re-encryption and rewrite;\nshape: cost ~ fetched rows; "
              "answers stay correct across rewrite rounds\n");

  // --- Part 2: sustained churn + kill/reopen (dynamic-mode durability) ----

  const char* amp_env = std::getenv("CONCEALER_EXP5_MAX_AMP");
  const double max_amp = amp_env != nullptr ? std::atof(amp_env) : 3.0;
  const uint64_t kWalCheckpointBytes = 64ull << 10;
  const int kSessions = 4;
  const int kQueriesPerSession = 6;

  ConcealerConfig churn_config;
  churn_config.key_buckets = {8};
  churn_config.key_domains = {20};
  churn_config.time_buckets = 24;
  churn_config.num_cell_ids = 40;
  churn_config.epoch_seconds = 86400;
  churn_config.time_quantum = 60;
  churn_config.make_hash_chains = true;

  WifiConfig churn_wifi;
  churn_wifi.num_access_points = 20;
  churn_wifi.num_devices = 50;
  churn_wifi.start_time = 0;
  churn_wifi.duration_seconds = 2 * 86400;
  churn_wifi.total_rows = std::max<uint64_t>(400, 60000 / bench::Scale()) * 2;
  churn_wifi.seed = 11;
  const auto churn_tuples = WifiGenerator(churn_wifi).Generate();

  DataProvider churn_dp(churn_config, Bytes(32, 0x5e));
  auto churn_epochs = churn_dp.EncryptAll(churn_tuples);
  if (!churn_epochs.ok()) return 1;

  // Never-restarted reference: the byte-identity witness.
  std::unique_ptr<ServiceProvider> ref_sp =
      bench::MakeProvider(churn_config, churn_dp.shared_secret());
  for (const auto& e : *churn_epochs) {
    if (!ref_sp->IngestEpoch(e).ok()) return 1;
  }
  const std::vector<Query> probes = ChurnProbes();
  std::vector<Bytes> want;
  for (const Query& q : probes) {
    auto r = ref_sp->Execute(q);
    if (!r.ok()) return 1;
    want.push_back(SerializeQueryResult(*r));
  }

  const std::string churn_dir = bench::MakeTempDir("concealer-exp5-churn");
  if (churn_dir.empty()) return 1;
  StorageOptions churn_storage;
  churn_storage.dir = churn_dir;

  bool identity_pass = true;
  bool wal_pass = true;
  double amplification = 0;
  std::vector<SessionStats> sessions;

  std::printf("\nsustained churn: %d sessions x %d dynamic queries, "
              "kill+reopen between sessions\n",
              kSessions, kQueriesPerSession);
  std::printf("%-10s %14s %14s %14s %14s %12s\n", "session", "recover (s)",
              "dyn q (ms)", "wal end (B)", "disk (B)", "dead (B)");
  for (int s = 0; s < kSessions && identity_pass; ++s) {
    SessionStats stats;
    Timer t_rec;
    auto churn_sp =
        ServiceProvider::Open(churn_config, churn_dp.shared_secret(),
                              churn_storage);
    if (!churn_sp.ok()) {
      std::printf("session %d: reopen failed: %s\n", s,
                  churn_sp.status().ToString().c_str());
      identity_pass = false;
      break;
    }
    if (s == 0) {
      for (const auto& e : *churn_epochs) {
        if (!(*churn_sp)->IngestEpoch(e).ok()) return 1;
      }
    }
    stats.recovery_seconds = t_rec.ElapsedSeconds();
    (*churn_sp)->set_wal_checkpoint_bytes(kWalCheckpointBytes);
    (*churn_sp)->set_compaction_dead_ratio(0.4);

    // Reopen fidelity: static probes must match the reference.
    (*churn_sp)->set_dynamic_mode(false);
    for (size_t i = 0; i < probes.size(); ++i) {
      auto r = (*churn_sp)->Execute(probes[i]);
      if (!r.ok() || SerializeQueryResult(*r) != want[i]) {
        std::printf("session %d: probe %zu diverged after reopen\n", s, i);
        identity_pass = false;
      }
    }

    // Dynamic churn with storage upkeep after every query.
    (*churn_sp)->set_dynamic_mode(true);
    Timer t_q;
    for (int i = 0; i < kQueriesPerSession; ++i) {
      Query q;
      q.agg = Aggregate::kCount;
      q.key_values = {{uint64_t((s * kQueriesPerSession + i) % 20)}};
      q.time_lo = (i % 2) * 86400 + (5 + i) * 3600;
      q.time_hi = (i % 2) * 86400 + (7 + i) * 3600;
      auto r = (*churn_sp)->Execute(q);
      if (!r.ok()) {
        std::printf("session %d: dynamic query %d failed: %s\n", s, i,
                    r.status().ToString().c_str());
        return 1;
      }
      if (!(*churn_sp)->MaintainStorage().ok()) return 1;
      ++stats.queries;
    }
    stats.query_seconds = t_q.ElapsedSeconds();

    stats.wal_bytes_end = (*churn_sp)->wal_size_bytes();
    stats.disk_bytes = (*churn_sp)->table().engine().DiskBytes();
    stats.dead_bytes = (*churn_sp)->table().engine().DeadBytes();
    if (stats.wal_bytes_end > kWalCheckpointBytes) wal_pass = false;
    amplification =
        static_cast<double>(stats.disk_bytes) /
        static_cast<double>((*churn_sp)->table().TotalBytes());
    std::printf("%-10d %14.3f %14.3f %14llu %14llu %12llu\n", s,
                stats.recovery_seconds,
                stats.query_seconds * 1e3 / stats.queries,
                (unsigned long long)stats.wal_bytes_end,
                (unsigned long long)stats.disk_bytes,
                (unsigned long long)stats.dead_bytes);
    sessions.push_back(stats);

    // Kill: down every subsequent syscall, destructors included — the
    // reopen above then exercises true crash recovery, not a clean close.
    fault_fs::Arm(1);
    (*churn_sp).reset();
    fault_fs::Disarm();
  }

  const bool amp_pass = amplification > 0 && amplification <= max_amp;
  std::printf("\ndisk amplification after churn: %.2fx of live bytes "
              "(gate <= %.2fx): %s\n", amplification, max_amp,
              amp_pass ? "PASS" : "FAIL");
  std::printf("WAL bounded by checkpoint threshold (%llu B): %s\n",
              (unsigned long long)kWalCheckpointBytes,
              wal_pass ? "PASS" : "FAIL");
  std::printf("restart byte-identity across %d kills: %s\n", kSessions,
              identity_pass ? "PASS" : "FAIL");

  if (const char* path = bench::BenchJsonPath(argc, argv)) {
    bench::JsonWriter j;
    j.BeginObject();
    j.Key("bench");
    j.String("exp5_dynamic");
    j.Key("scale");
    j.Number(static_cast<uint64_t>(bench::Scale()));
    j.Key("rounds");
    j.Number(static_cast<uint64_t>(kRounds));
    j.Key("ingested_rows");
    j.Number(total_rows);
    j.Key("dynamic_query_seconds_avg");
    j.Number(latency_sum / 5.0);
    j.Key("churn");
    j.BeginObject();
    j.Key("tuples");
    j.Number(static_cast<uint64_t>(churn_tuples.size()));
    j.Key("sessions");
    j.BeginArray();
    for (const SessionStats& stats : sessions) {
      j.BeginObject();
      j.Key("recovery_seconds");
      j.Number(stats.recovery_seconds);
      j.Key("queries");
      j.Number(stats.queries);
      j.Key("dyn_query_ms_avg");
      j.Number(stats.queries > 0
                   ? stats.query_seconds * 1e3 / stats.queries
                   : 0.0);
      j.Key("wal_bytes_end");
      j.Number(stats.wal_bytes_end);
      j.Key("disk_bytes");
      j.Number(stats.disk_bytes);
      j.Key("dead_bytes");
      j.Number(stats.dead_bytes);
      j.EndObject();
    }
    j.EndArray();
    j.Key("amplification");
    j.Number(amplification);
    j.Key("max_amplification");
    j.Number(max_amp);
    j.EndObject();
    j.Key("gate");
    j.BeginObject();
    j.Key("amplification_pass");
    j.Bool(amp_pass);
    j.Key("wal_bounded_pass");
    j.Bool(wal_pass);
    j.Key("restart_identity_pass");
    j.Bool(identity_pass);
    j.EndObject();
    j.EndObject();
    bench::WriteFileOrDie(path, j.str());
  }

  const std::string cleanup = "rm -rf '" + churn_dir + "'";
  (void)std::system(cleanup.c_str());

  bench::PrintFooter();
  return (amp_pass && wal_pass && identity_pass) ? 0 : 1;
}
