// perfbench_driver: the load generator of the end-to-end benchmark.
//
//   perfbench_driver --workload=interactive|analytic|ingest_restart
//       --seed=N --seconds=S --trace=0|1 --server=PATH --workdir=DIR
//
// --trace=0 starts the shipped concealer_server as a child process, sets
// up a tenant over the admin plane, drives the workload over the wire from
// this one process, checks every answer against the cleartext oracle and
// the volume gate, and prints the end-to-end metrics. --trace=1 hosts the
// same TenantRegistry configuration in-process (with the same server code
// on loopback for the wire call) and times the calls into each layer for
// the per-layer metrics. The last stdout line is the result JSON; a wrong
// answer, a volume-gate violation or a replica mismatch exits 1.
// See perfbench/README.md.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baseline/cleartext_db.h"
#include "common/status.h"
#include "common/timer.h"
#include "concealer/data_provider.h"
#include "concealer/grid.h"
#include "concealer/query_executor.h"
#include "concealer/range_planner.h"
#include "concealer/service_provider.h"
#include "concealer/wire.h"
#include "crypto/aes_backend.h"
#include "crypto/grid_hash.h"
#include "crypto/sha256.h"
#include "enclave/registry.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "service/tenant_registry.h"
#include "storage/node_store.h"
#include "workload/wifi_generator.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using concealer::Bytes;
using concealer::CleartextDb;
using concealer::ConcealerConfig;
using concealer::DataProvider;
using concealer::EncryptedEpoch;
using concealer::PlainTuple;
using concealer::QueryResult;
using concealer::Slice;
using concealer::Status;
using concealer::StatusOr;
using concealer::Timer;
using Clock = std::chrono::steady_clock;

constexpr const char* kTenant = "bench";
/// Setups per run; setup_s is their median. ingest_restart's set-up ingests
/// only the first (partial) day, so it repeats more.
constexpr int kSetupReps = 3;
constexpr int kSetupRepsFirstDayOnly = 7;
/// Graceful restarts per run; recovery_s is their median. The first follows
/// the measured traffic (or the ingest) and drains longer; the others
/// follow one query. ingest_restart's recoveries take ~2.5 s each and
/// spread little, so it restarts fewer times to keep the run short.
constexpr int kRestarts = 5;
constexpr int kRestartsLongRecovery = 3;

/// Server processes started and not yet reaped; Die stops them first.
std::vector<pid_t> g_live_servers;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  for (pid_t pid : g_live_servers) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string spans;  // Traced run: where the spans are written.
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("bad flag " + arg);
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (name == "workload") {
      f.workload = value;
    } else if (name == "seed") {
      f.seed = std::stoull(value);
    } else if (name == "seconds") {
      f.seconds = std::stod(value);
    } else if (name == "trace") {
      f.trace = value == "1";
    } else if (name == "server") {
      f.server = value;
    } else if (name == "workdir") {
      f.workdir = value;
    } else if (name == "spans") {
      f.spans = value;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (f.workdir.empty() || f.seconds <= 0) Die("--workdir and --seconds>0");
  return f;
}

// ---------------------------------------------------------------------------
// Dataset: tuples, oracle, tenant secret, users.
// ---------------------------------------------------------------------------

struct Dataset {
  ConcealerConfig config = DatasetConfig();
  Bytes sk;
  std::map<uint64_t, std::vector<PlainTuple>> days;  // Epoch id -> tuples.
  uint64_t real_tuples = 0;
  CleartextDb oracle{60};
  GeneratorContext context;
  std::vector<std::string> users;
  std::vector<Bytes> proofs;
  Bytes encrypted_registry;
};

Bytes SeededBytes(uint64_t seed, const std::string& label) {
  const std::string s = label + "|" + std::to_string(seed);
  concealer::Sha256::Digest d = concealer::Sha256::Hash(
      Slice(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  return Bytes(d.begin(), d.end());
}

/// The DP's keyed key-axis hash, read through the public Grid: with the
/// time bucket at 0 the cell index is the key column.
std::vector<uint32_t> ColumnsOfAccessPoints(const ConcealerConfig& config,
                                            const Bytes& sk) {
  concealer::GridHash hash;
  Check(hash.SetKey(Slice(sk)), "grid hash");
  StatusOr<concealer::Grid> grid =
      concealer::Grid::Create(config, &hash, 0, 0);
  Check(grid.status(), "grid");
  std::vector<uint32_t> out(kAccessPoints);
  for (uint32_t ap = 0; ap < kAccessPoints; ++ap) {
    StatusOr<uint32_t> cell = grid->CellIndexOf({ap}, 0);
    Check(cell.status(), "cell index");
    out[ap] = *cell;
  }
  return out;
}

std::unique_ptr<Dataset> MakeDataset(const WorkloadSpec& spec, uint64_t seed,
                                     uint32_t users) {
  auto ds = std::make_unique<Dataset>();
  ds->sk = SeededBytes(seed, "tenant-sk");
  concealer::WifiConfig wifi;
  wifi.num_access_points = kAccessPoints;
  wifi.num_devices = kDevices;
  wifi.start_time = kDataStart;
  wifi.duration_seconds = DataEnd(spec) - kDataStart;
  wifi.total_rows = wifi.duration_seconds * kRowsPerDay / kDaySeconds;
  wifi.seed = seed;
  std::vector<PlainTuple> tuples = concealer::WifiGenerator(wifi).Generate();
  ds->real_tuples = tuples.size();
  ds->oracle.Insert(tuples);
  ds->oracle.BuildIndex();

  ds->context.data_start = kDataStart;
  ds->context.data_end = DataEnd(spec);
  ds->context.column_of_ap = ColumnsOfAccessPoints(ds->config, ds->sk);
  DataProvider dp(ds->config, ds->sk);
  concealer::Rng rng(seed ^ 0x5eedu);
  for (uint32_t u = 0; u < users; ++u) {
    // Each session user owns the device of a randomly drawn real tuple.
    const PlainTuple& owned = tuples[rng.Uniform(tuples.size())];
    std::vector<Sighting> seen;
    for (const PlainTuple& t : tuples) {
      if (t.observation == owned.observation) seen.push_back({t.keys[0], t.time});
    }
    const std::string user = "user" + std::to_string(u);
    const Bytes secret = SeededBytes(seed, user);
    Check(dp.RegisterUser(user, Slice(secret), owned.observation), "user");
    ds->users.push_back(user);
    ds->proofs.push_back(
        concealer::Registry::MakeProof(Slice(secret), user));
    ds->context.own_device.push_back(owned.observation);
    ds->context.own_sightings.push_back(std::move(seen));
  }
  ds->encrypted_registry = dp.EncryptedRegistry();
  ds->days = concealer::WifiGenerator::SplitIntoEpochs(tuples, kDaySeconds);
  return ds;
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  return a.count == b.count && a.keyed_counts == b.keyed_counts;
}

// ---------------------------------------------------------------------------
// Host environment record.
// ---------------------------------------------------------------------------

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// ---------------------------------------------------------------------------
// The server as a child process.
// ---------------------------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Reap();
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary` over `root` and waits until it has bound its port.
  void Start(const std::string& binary, const std::string& root,
             const std::string& log) {
    const std::string port_file = root + ".port";
    fs::remove(port_file);
    const std::vector<std::string> args = {
        binary, "--root=" + root, "--port-file=" + port_file,
        "--allow-admin", "--pool-threads=4"};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      // Die with the driver, and keep the server's output off stdout.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    g_live_servers.push_back(pid_);
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      std::ifstream in(port_file);
      std::string line;
      // A whole line: the server may be mid-write.
      if (in && std::getline(in, line) && !line.empty() && !in.eof()) {
        port_ = static_cast<uint16_t>(std::stoul(line));
        return;
      }
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        Forget();
        Die("concealer_server exited at start (see " + log + ")");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    Die("concealer_server did not bind a port");
  }

  uint16_t port() const { return port_; }

  /// The server's peak resident set (VmHWM) in MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB -> MB.
      }
    }
    return 0;
  }

  /// SIGTERM drain; dies unless the server exits 0.
  void Stop() {
    kill(pid_, SIGTERM);
    if (Reap() != 0) Die("concealer_server did not drain cleanly");
  }

 private:
  /// Waits for the process; returns its exit code (-1 if signalled).
  int Reap() {
    int status = 0;
    waitpid(pid_, &status, 0);
    Forget();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  void Forget() {
    g_live_servers.erase(
        std::remove(g_live_servers.begin(), g_live_servers.end(), pid_),
        g_live_servers.end());
    pid_ = -1;
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Per-query records and the checks every run applies.
// ---------------------------------------------------------------------------

struct Record {
  QueryGenerator::Planned planned;
  Status status;
  QueryResult result;
  double latency_ms = 0;
  double sent_s = 0;  // Send time, seconds into the phase.
  double done_s = 0;  // Completion time, seconds into the phase.
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  VolumeGate gate;
  std::string first_error, last_error;

  /// Counts one operation. OK answers are checked against the oracle and
  /// for verification as asked, and their reported volume is fed to the
  /// gate. Returns true if the answer is OK and correct.
  bool Add(const Dataset& ds, const Record& r) {
    ++attempted;
    if (!r.status.ok()) {
      ++failed;
      Note(r.status.ToString());
      return false;
    }
    gate.Observe(ShapeKey(r.planned.query, ds.config), r.result.rows_fetched);
    StatusOr<QueryResult> expect = ds.oracle.Execute(r.planned.query);
    std::string error;
    if (!expect.ok() || !SameAnswer(*expect, r.result)) {
      error = "wrong answer for ";
    } else if (!VerifiedAsAsked(r.planned.query, r.result)) {
      error = "verification not as asked for ";
    } else {
      return true;
    }
    ++wrong;
    Note(error + KindName(r.planned.kind));
    return false;
  }
  void AddOp(const Status& st) {
    ++attempted;
    if (!st.ok()) {
      ++failed;
      Note(st.ToString());
    }
  }
  void Note(const std::string& error) {
    if (first_error.empty()) first_error = error;
    last_error = error;
  }
  bool correct() const { return wrong == 0 && gate.violations().empty(); }
};

// ---------------------------------------------------------------------------
// Untraced run: the shipped server over the wire.
// ---------------------------------------------------------------------------

struct Session {
  concealer::net::ConcealerClient client;
  std::string token;
};

std::vector<std::unique_ptr<Session>> OpenSessions(const Dataset& ds,
                                                   uint16_t port, uint32_t n) {
  std::vector<std::unique_ptr<Session>> out;
  for (uint32_t c = 0; c < n; ++c) {
    auto s = std::make_unique<Session>();
    Check(s->client.Connect("127.0.0.1", port), "connect");
    StatusOr<std::string> token = s->client.OpenSession(
        kTenant, ds.users[c], Slice(ds.proofs[c]));
    Check(token.status(), "open session");
    s->token = *token;
    out.push_back(std::move(s));
  }
  return out;
}

/// Provisions the tenant on a fresh (or recovering) server directory.
void Provision(const Dataset& ds, concealer::net::ConcealerClient* admin,
               Tally* tally) {
  Status st = admin->CreateTenant(kTenant, ds.config, Slice(ds.sk));
  tally->AddOp(st);
  Check(st, "create tenant");
  st = admin->LoadRegistry(kTenant, Slice(ds.encrypted_registry));
  tally->AddOp(st);
  Check(st, "load registry");
}

/// Alg. 1 on one day, then IngestEpoch over the wire. Returns seconds.
double IngestDay(const DataProvider& dp, uint64_t epoch_id,
                 const std::vector<PlainTuple>& tuples,
                 concealer::net::ConcealerClient* admin, Tally* tally) {
  const auto t0 = Clock::now();
  StatusOr<EncryptedEpoch> epoch =
      dp.EncryptEpoch(epoch_id, epoch_id * kDaySeconds, tuples);
  Check(epoch.status(), "encrypt epoch");
  const Status st = admin->IngestEpoch(kTenant, *epoch);
  const auto t1 = Clock::now();
  tally->AddOp(st);
  Check(st, "ingest epoch");
  return Seconds(t0, t1);
}

/// One query over `s`, as a record for the tally.
Record Ask(Session& s, QueryGenerator::Planned planned) {
  Record r;
  r.planned = std::move(planned);
  StatusOr<QueryResult> res = s.client.Query(kTenant, s.token, r.planned.query);
  r.status = res.status();
  if (res.ok()) r.result = std::move(*res);
  return r;
}

/// Drives `sessions` in a closed loop for `seconds`: each connection sends
/// its next query when the previous answer arrives. Returns every record,
/// in no fixed order.
std::vector<Record> RunPhase(const WorkloadSpec& spec, const Dataset& ds,
                             std::vector<std::unique_ptr<Session>>& sessions,
                             uint64_t seed, uint32_t phase, double seconds) {
  const uint32_t n = static_cast<uint32_t>(sessions.size());
  std::vector<std::vector<Record>> per(n);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      QueryGenerator gen(spec, &ds.context, seed, c, phase);
      Session& s = *sessions[c];
      std::this_thread::sleep_until(start);
      for (auto sent = Clock::now(); sent < end; sent = Clock::now()) {
        Record r = Ask(s, gen.Next());
        const auto done = Clock::now();
        r.latency_ms = Seconds(sent, done) * 1e3;
        r.sent_s = Seconds(start, sent);
        r.done_s = Seconds(start, done);
        per[c].push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Record> all;
  for (auto& v : per) {
    for (Record& r : v) all.push_back(std::move(r));
  }
  return all;
}

struct Metrics {
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Value> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values.push_back({name, value, unit});
  }
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& m) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Value& v : m.values) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v.value);
    out += std::string(first ? "" : ", ") + "\"" + v.name +
           "\": {\"value\": " + num + ", \"unit\": \"" + v.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintEnvironment(const CpuTimes& a, const CpuTimes& b) {
  const uint64_t total = b.total - a.total;
  const double steal =
      total == 0 ? 0 : static_cast<double>(b.steal - a.steal) / total;
  std::printf("env: nproc=%ld aes_backend=%s steal_share=%.4f\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              concealer::ActiveAesBackend()->name, steal);
}

/// Each figure is the median over time windows of at least ~100 samples
/// (at most 10), so a host stall confined to one window moves one window's
/// figure only; p99 and the plain percentiles are diagnostics.
struct LatencySummary {
  double p50 = 0, p90 = 0;          // Windowed.
  double raw_p50 = 0, raw_p90 = 0, raw_p99 = 0;
  uint64_t samples = 0;
  uint32_t windows = 0;
};

constexpr uint64_t kMinSamplesPerWindow = 100;
constexpr uint32_t kMaxWindows = 10;

LatencySummary Summarize(const std::vector<Record>& records, double seconds) {
  std::vector<TimedSample> timed;
  std::vector<double> lat;
  for (const Record& r : records) {
    if (!r.status.ok()) continue;
    timed.push_back({r.sent_s, r.latency_ms});
    lat.push_back(r.latency_ms);
  }
  std::sort(lat.begin(), lat.end());
  LatencySummary s;
  s.samples = lat.size();
  s.windows = WindowCount(s.samples, kMinSamplesPerWindow, kMaxWindows);
  s.p50 = WindowedPercentile(timed, seconds, s.windows, 0.5);
  s.p90 = WindowedPercentile(timed, seconds, s.windows, 0.9);
  s.raw_p50 = Percentile(lat, 0.5);
  s.raw_p90 = Percentile(lat, 0.9);
  s.raw_p99 = Percentile(lat, 0.99);
  std::printf("p90 per window (ms):");
  for (double p90 : WindowFigures(timed, seconds, s.windows, 0.9)) {
    std::printf(" %.2f", p90);
  }
  std::printf("\n");
  return s;
}

/// Completions per second in a closed loop, windowed like the latencies.
double Throughput(const std::vector<Record>& records, double seconds) {
  std::vector<double> done;
  for (const Record& r : records) {
    if (r.status.ok()) done.push_back(r.done_s);
  }
  return WindowedRate(
      done, seconds, WindowCount(done.size(), kMinSamplesPerWindow, kMaxWindows));
}

/// Diagnostic: median latency and rows fetched per query kind.
void PrintKindLatencies(const char* phase, const std::vector<Record>& records) {
  std::map<std::string, std::vector<double>> lat, rows;
  for (const Record& r : records) {
    if (!r.status.ok()) continue;
    lat[KindName(r.planned.kind)].push_back(r.latency_ms);
    rows[KindName(r.planned.kind)].push_back(r.result.rows_fetched);
  }
  std::printf("%s per kind:", phase);
  for (auto& [kind, v] : lat) {
    std::printf(" %s n=%zu p50=%.3fms rows=%.0f;", kind.c_str(), v.size(),
                Median(v), Median(rows[kind]));
  }
  std::printf("\n");
}

int RunUntraced(const Flags& flags, const WorkloadSpec& spec) {
  const CpuTimes cpu0 = ReadCpuTimes();
  const std::unique_ptr<Dataset> ds =
      MakeDataset(spec, flags.seed, spec.connections);
  DataProvider dp(ds->config, ds->sk);
  const std::string log = flags.workdir + "/server.log";
  Tally tally;

  // --- Set-up, repeated: fresh server, provisioning, DP + wire ingest of
  // the initial dataset. The last one stays up for the measurement.
  // ingest_restart starts from the first day and measures the rest.
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<concealer::net::ConcealerClient> admin;
  std::string root;
  using EpochIt = std::map<uint64_t, std::vector<PlainTuple>>::const_iterator;
  const EpochIt initial_end =
      spec.ingest_restart ? std::next(ds->days.begin()) : ds->days.end();
  auto ingest_epochs = [&](EpochIt from, EpochIt to) {
    double seconds = 0;
    uint64_t rows = 0;
    for (EpochIt it = from; it != to; ++it) {
      seconds += IngestDay(dp, it->first, it->second, admin.get(), &tally);
      rows += it->second.size();
    }
    return rows / seconds;
  };
  const int reps = spec.ingest_restart ? kSetupRepsFirstDayOnly : kSetupReps;
  std::vector<double> setup_s, setup_ingest_rate;
  for (int rep = 0; rep < reps; ++rep) {
    if (server != nullptr) {
      admin.reset();
      server->Stop();
      fs::remove_all(root);
    }
    root = flags.workdir + "/root" + std::to_string(rep);
    fs::remove_all(root);
    fs::create_directories(root);
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>();
    server->Start(flags.server, root, log);
    admin = std::make_unique<concealer::net::ConcealerClient>();
    Check(admin->Connect("127.0.0.1", server->port()), "admin connect");
    Provision(*ds, admin.get(), &tally);
    setup_ingest_rate.push_back(ingest_epochs(ds->days.begin(), initial_end));
    setup_s.push_back(Seconds(t0, Clock::now()));
  }

  // --- ingest_restart: the measured ingest, one day at a time.
  const double ingest_rate =
      spec.ingest_restart ? ingest_epochs(initial_end, ds->days.end())
                          : Median(setup_ingest_rate);
  const std::string tenant_dir = root + "/" + kTenant;

  LatencySummary lat;
  double qps = 0;
  double peak_rss = 0;
  uint64_t stored_bytes = 0;

  auto measure_queries = [&](std::vector<std::unique_ptr<Session>>& sessions,
                             uint32_t phase_base, double seconds) {
    // Warm-up: the first requests after set-up pay lazy plan builds and
    // fill the work cache; they are checked but not timed.
    for (const Record& r : RunPhase(spec, *ds, sessions, flags.seed,
                                    phase_base, spec.warmup_seconds)) {
      tally.Add(*ds, r);
    }
    const std::vector<Record> timed =
        RunPhase(spec, *ds, sessions, flags.seed, phase_base + 1, seconds);
    for (const Record& r : timed) tally.Add(*ds, r);
    lat = Summarize(timed, seconds);
    qps = Throughput(timed, seconds);
    PrintKindLatencies("timed", timed);
  };

  // Each restart's probe is a BPB point at a real tuple of the last
  // acknowledged epoch, so a restart that lost it answers 0 against a
  // non-empty oracle answer.
  const std::vector<PlainTuple>& last_day = ds->days.rbegin()->second;
  concealer::Rng probe_pick(flags.seed ^ 0x9e57a27u);
  QueryGenerator probe_gen(spec, &ds->context, flags.seed, 0, /*phase=*/90);

  auto restart = [&]() -> double {
    // SIGTERM drain to the first correct answer from a new process, which
    // recovers the directory through CreateTenant.
    peak_rss = std::max(peak_rss, server->PeakRssMb());
    admin.reset();
    const auto t0 = Clock::now();
    server->Stop();
    const auto t_drained = Clock::now();
    server = std::make_unique<ServerProcess>();
    server->Start(flags.server, root, log);
    const auto t_listening = Clock::now();
    admin = std::make_unique<concealer::net::ConcealerClient>();
    Check(admin->Connect("127.0.0.1", server->port()), "admin connect");
    Provision(*ds, admin.get(), &tally);
    const auto t_provisioned = Clock::now();
    std::vector<std::unique_ptr<Session>> one = OpenSessions(*ds, server->port(), 1);
    // A BPB point: the cheapest kind, so the time is recovery, not the
    // cost of whichever heavy query the mix would draw.
    const PlainTuple& t = last_day[probe_pick.Uniform(last_day.size())];
    const Record r =
        Ask(*one[0], probe_gen.MakeAround(QueryKind::kBpbPoint,
                                          {t.keys[0], t.time}));
    const auto t_answered = Clock::now();
    if (!tally.Add(*ds, r)) {
      Die("restart probe: " + tally.last_error);
    }
    std::printf(
        "restart: drain %.3f s, start %.3f s, recover (CreateTenant) %.3f s, "
        "first answer %.3f s\n",
        Seconds(t0, t_drained), Seconds(t_drained, t_listening),
        Seconds(t_listening, t_provisioned),
        Seconds(t_provisioned, t_answered));
    return Seconds(t0, t_answered);
  };

  auto median_restart = [&] {
    std::vector<double> seconds;
    const int n = spec.ingest_restart ? kRestartsLongRecovery : kRestarts;
    for (int i = 0; i < n; ++i) seconds.push_back(restart());
    return Median(seconds);
  };
  double recovery_s = 0;
  if (!spec.ingest_restart) {
    std::vector<std::unique_ptr<Session>> sessions =
        OpenSessions(*ds, server->port(), spec.connections);
    measure_queries(sessions, 0, flags.seconds);
    sessions.clear();
    stored_bytes = DirBytes(tenant_dir);
    recovery_s = median_restart();
  } else {
    stored_bytes = DirBytes(tenant_dir);
    recovery_s = median_restart();
    // Read-back sweep, untimed: every acknowledged epoch answers one query
    // of each sweep kind, anchored on a real tuple of that epoch so the
    // oracle's answer is non-empty.
    std::vector<std::unique_ptr<Session>> sessions =
        OpenSessions(*ds, server->port(), spec.connections);
    QueryGenerator sweep(spec, &ds->context, flags.seed, 0, /*phase=*/100);
    concealer::Rng sweep_pick(flags.seed ^ 0x5a11u);
    uint64_t swept = 0;
    for (const auto& [epoch_id, tuples] : ds->days) {
      for (QueryKind kind : kSweepKinds) {
        const PlainTuple& t = tuples[sweep_pick.Uniform(tuples.size())];
        QueryGenerator::Planned planned =
            sweep.MakeAround(kind, {t.keys[0], t.time});
        StatusOr<QueryResult> expect = ds->oracle.Execute(planned.query);
        if (!expect.ok() || expect->rows_matched == 0) {
          Die(std::string("sweep: empty oracle answer for ") + KindName(kind) +
              " in epoch " + std::to_string(epoch_id));
        }
        swept += tally.Add(*ds, Ask(*sessions[0], std::move(planned)));
      }
    }
    std::printf("read-back sweep: %zu epochs x %zu kinds, %llu correct\n",
                ds->days.size(), std::size(kSweepKinds),
                static_cast<unsigned long long>(swept));
    // Then the analytic mix in a closed loop: the latency and qps of reads
    // that fetch thousands of rows, verified, from the recovered store.
    measure_queries(sessions, 0, flags.seconds);
  }
  peak_rss = std::max(peak_rss, server->PeakRssMb());
  admin.reset();
  server->Stop();
  server.reset();
  fs::remove_all(root);

  const CpuTimes cpu1 = ReadCpuTimes();
  std::printf("workload=%s seed=%llu seconds=%g\n", spec.name.c_str(),
              static_cast<unsigned long long>(flags.seed), flags.seconds);
  PrintEnvironment(cpu0, cpu1);
  std::printf(
      "latency: p50=%.3f ms p90=%.3f ms (medians over %u windows); "
      "diagnostics over all %llu samples: p50=%.3f p90=%.3f p99=%.3f ms, "
      "highest reportable percentile p%g\n",
      lat.p50, lat.p90, lat.windows,
      static_cast<unsigned long long>(lat.samples), lat.raw_p50, lat.raw_p90,
      lat.raw_p99, 100 * HighestReportablePercentile(lat.samples));
  std::printf("setup runs: ");
  for (double s : setup_s) std::printf("%.3fs ", s);
  std::printf("\nvolume gate: %zu shapes, %llu answers, %zu violations\n",
              tally.gate.shapes(),
              static_cast<unsigned long long>(tally.gate.observations()),
              tally.gate.violations().size());
  for (const std::string& v : tally.gate.violations()) {
    std::printf("  volume violation %s\n", v.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed (%.4f), %llu wrong%s%s\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.attempted ? double(tally.failed) / tally.attempted : 0.0,
              static_cast<unsigned long long>(tally.wrong),
              tally.first_error.empty() ? "" : "; first error: ",
              tally.first_error.c_str());

  Metrics m;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("p50_ms", lat.p50, "ms");
  m.Set("p90_ms", lat.p90, "ms");
  m.Set("qps", qps, "1/s");
  m.Set("ingest_rows_per_s", ingest_rate, "1/s");
  m.Set("recovery_s", recovery_s, "s");
  m.Set("stored_bytes_per_tuple",
        static_cast<double>(stored_bytes) / ds->real_tuples, "bytes");
  m.Set("peak_rss_mb", peak_rss, "MB");
  PrintResult(tally.correct(), tally.attempted, tally.failed, m);
  return tally.correct() ? 0 : 1;
}


// ---------------------------------------------------------------------------
// Traced run: the same registry configuration in-process, spans around the
// calls into each layer.
// ---------------------------------------------------------------------------

/// One timed call into a layer. Spans of one sampled query share
/// `request`; `parent` names the span whose interval contains this one.
struct Span {
  uint64_t request = 0;
  std::string name;
  std::string parent;
  double start_us = 0;
  double end_us = 0;
  double ms() const { return (end_us - start_us) / 1e3; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Times `fn` as span `name` of `request`; returns the span's ms.
  template <typename Fn>
  double Time(uint64_t request, const char* name, const char* parent,
              Fn&& fn) {
    Span span;
    span.request = request;
    span.name = name;
    span.parent = parent;
    span.start_us = Now();
    fn();
    span.end_us = Now();
    spans_.push_back(span);
    return span.ms();
  }
  /// Sum of span ms per name.
  std::map<std::string, double> Totals() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.ms();
    return out;
  }
  /// Tags a request (the query kind and its plan shape).
  void Label(uint64_t request, std::string label) {
    labels_[request] = std::move(label);
  }
  /// Writes every span as one JSON object per line.
  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (const Span& s : spans_) {
      auto label = labels_.find(s.request);
      out << "{\"request\": " << s.request << ", \"label\": \""
          << (label == labels_.end() ? "" : label->second)
          << "\", \"name\": \"" << s.name << "\", \"parent\": \""
          << s.parent << "\", \"start_us\": " << s.start_us
          << ", \"end_us\": " << s.end_us << "}\n";
    }
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<uint64_t, std::string> labels_;
};

struct DirSplit {
  uint64_t segment = 0, index = 0, meta = 0;
};

DirSplit SplitDirBytes(const std::string& dir) {
  DirSplit d;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    const uint64_t n = e.file_size();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".seg") == 0) {
      d.segment += n;
    } else if (name.rfind("index", 0) == 0) {
      d.index += n;
    } else if (name.rfind("epoch-", 0) == 0) {
      d.meta += n;
    }
  }
  return d;
}

int RunTraced(const Flags& flags, const WorkloadSpec& spec) {
  const std::unique_ptr<Dataset> ds =
      MakeDataset(spec, flags.seed, spec.connections);
  DataProvider dp(ds->config, ds->sk);
  Tally tally;
  Tracer tracer;
  uint64_t request = 0;

  const std::string root = flags.workdir + "/traced";
  fs::remove_all(root);
  fs::create_directories(root);
  concealer::TenantRegistryOptions ro;
  ro.root_dir = root;
  ro.storage.engine = concealer::StorageOptions::Engine::kMmap;
  ro.pool_threads = 4;
  ro.service.reject_over_capacity = true;
  auto registry = std::make_unique<concealer::TenantRegistry>(ro);
  concealer::net::ServerOptions so;
  so.allow_admin = true;
  auto server =
      std::make_unique<concealer::net::ConcealerServer>(registry.get(), so);
  Check(server->Start(), "in-process server");
  Check(registry->CreateTenant(kTenant, ds->config, ds->sk), "tenant");
  Check(registry->LoadRegistry(kTenant, Slice(ds->encrypted_registry)),
        "registry");

  // --- Ingest: Alg. 1 and the storage-side ingest, per day.
  std::vector<double> encrypt_ms, ingest_ms;
  uint64_t fakes = 0, shipped = 0;
  std::printf("rows shipped per epoch:");
  for (const auto& [epoch_id, tuples] : ds->days) {
    const uint64_t rid = request++;
    StatusOr<EncryptedEpoch> epoch = Status::Internal("unset");
    encrypt_ms.push_back(
        tracer.Time(rid, "data_provider.encrypt_epoch", "", [&] {
          epoch = dp.EncryptEpoch(epoch_id, epoch_id * kDaySeconds, tuples);
        }));
    Check(epoch.status(), "encrypt");
    fakes += epoch->num_fake_tuples;
    shipped += epoch->num_fake_tuples + epoch->num_real_tuples;
    std::printf(" %zu", epoch->rows.size());
    Status st;
    ingest_ms.push_back(tracer.Time(rid, "storage.ingest_epoch", "", [&] {
      st = registry->IngestEpoch(kTenant, *epoch);
    }));
    tally.AddOp(st);
    Check(st, "ingest");
  }

  std::printf("\n");
  StatusOr<concealer::QueryService*> svc = registry->tenant(kTenant);
  Check(svc.status(), "tenant lookup");
  concealer::ServiceProvider* sp = (*svc)->provider();
  concealer::NodeStore* nodes = sp->mutable_table().engine()->node_store();
  std::vector<std::unique_ptr<Session>> wire =
      OpenSessions(*ds, server->port(), 1);
  StatusOr<std::string> reg_token =
      registry->OpenSession(kTenant, ds->users[0], Slice(ds->proofs[0]));
  Check(reg_token.status(), "registry session");
  const concealer::RangePlanner planner(sp->config());
  const concealer::QueryExecutor executor(&sp->enclave(), &sp->table(),
                                          sp->config());

  // --- Sampled queries, re-issued at each boundary.
  VolumeGate table_gate;
  uint64_t replica_mismatches = 0;
  std::vector<double> plain_wire_ms, traced_wire_ms;
  double units = 0, trapdoors = 0, rows = 0, bytes = 0, matched = 0;
  double node_loads = 0, node_hits = 0, fetch_ms = 0, fetch_refs_ms = 0;
  concealer::QueryService::CacheStats wire_cache_delta;
  QueryGenerator gen(spec, &ds->context, flags.seed, 0, /*phase=*/50);
  uint64_t samples = 0;
  const auto sample_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(flags.seconds));
  auto sample_one = [&] {
    const QueryGenerator::Planned planned = gen.Next();
    const Query& q = planned.query;
    const uint64_t rid = request++;
    tracer.Label(rid, std::string(KindName(planned.kind)) + " " +
                          ShapeKey(q, ds->config));
    // First issue over the wire: the workload's own cache state, so its
    // cache-counter deltas give the hit ratios.
    const auto c0 = (*svc)->cache_stats();
    tally.Add(*ds, Ask(*wire[0], planned));
    const auto c1 = (*svc)->cache_stats();
    wire_cache_delta.trapdoor_hits += c1.trapdoor_hits - c0.trapdoor_hits;
    wire_cache_delta.trapdoor_misses += c1.trapdoor_misses - c0.trapdoor_misses;
    wire_cache_delta.filter_hits += c1.filter_hits - c0.filter_hits;
    wire_cache_delta.filter_misses += c1.filter_misses - c0.filter_misses;

    // Then the same query at each boundary, warm, in an order that rotates
    // per sample so no boundary always runs first. The plain wire call
    // records no span: it is the reference for the tracing overhead.
    concealer::TableStats ts0, ts1;
    uint64_t loads0 = 0, hits0 = 0;
    StatusOr<QueryResult> executed = Status::Internal("unset");
    auto wire_call = [&](bool traced) {
      Record r;
      auto call = [&] { r = Ask(*wire[0], planned); };
      if (traced) {
        traced_wire_ms.push_back(tracer.Time(rid, "net.wire", "", call));
      } else {
        Timer t;
        call();
        plain_wire_ms.push_back(t.ElapsedMillis());
      }
      tally.Add(*ds, r);
    };
    const std::function<void()> boundaries[] = {
        [&] { wire_call(true); },
        [&] { wire_call(false); },
        [&] {
          Record r{planned, Status::OK(), {}};
          tracer.Time(rid, "service.registry_query", "", [&] {
            StatusOr<QueryResult> res = registry->Query(kTenant, *reg_token, q);
            r.status = res.status();
            if (res.ok()) r.result = *res;
          });
          tally.Add(*ds, r);
        },
        [&] {
          ts0 = sp->table().stats();
          loads0 = nodes ? nodes->loads() : 0;
          hits0 = nodes ? nodes->cache_hits() : 0;
          tracer.Time(rid, "service_provider.execute", "",
                      [&] { executed = sp->Execute(q); });
          ts1 = sp->table().stats();
        },
    };
    for (size_t i = 0; i < 4; ++i) boundaries[(i + samples) % 4]();
    Check(executed.status(), "execute");
    if (nodes != nullptr) {
      node_loads += nodes->loads() - loads0;
      node_hits += nodes->cache_hits() - hits0;
    }
    const std::string shape = ShapeKey(q, ds->config);
    table_gate.Observe("probes " + shape, ts1.index_probes - ts0.index_probes);
    table_gate.Observe("rows " + shape, ts1.rows_fetched - ts0.rows_fetched);
    rows += ts1.rows_fetched - ts0.rows_fetched;
    bytes += ts1.bytes_fetched - ts0.bytes_fetched;
    matched += executed->rows_matched;

    // The serial replica of ServiceProvider::Execute. Each unit's fetched
    // Index keys are re-issued to FetchRefs after it, outside its span.
    concealer::QueryExecutor::AggState agg;
    concealer::QueryExecutor::UnitScratch scratch;
    std::vector<concealer::FetchedUnit> fetched_units;
    QueryResult replica;
    tracer.Time(rid, "executor.replica", "", [&] {
      for (uint64_t epoch_id : sp->EpochIdsForQuery(q)) {
        StatusOr<concealer::EpochState*> state = sp->epoch_state(epoch_id);
        Check(state.status(), "epoch state");
        StatusOr<std::vector<concealer::FetchUnit>> plan =
            Status::Internal("unset");
        tracer.Time(rid, "planner.plan", "executor.replica",
                    [&] { plan = planner.Plan(*state, q); });
        Check(plan.status(), "plan");
        units += plan->size();
        std::unordered_set<std::string> seen_rows;
        concealer::QueryExecutor::FilterCache filter_cache;
        for (const concealer::FetchUnit& unit : *plan) {
          StatusOr<concealer::FetchedUnit> fetched = Status::Internal("unset");
          fetch_ms += tracer.Time(rid, "executor.fetch", "executor.replica", [&] {
            fetched = executor.Fetch(**state, unit, q.oblivious, &scratch);
          });
          Check(fetched.status(), "fetch");
          trapdoors += fetched->trapdoors_issued;
          if (q.verify) {
            tracer.Time(rid, "executor.verify", "executor.replica", [&] {
              Check(executor.Verify(**state, *fetched), "verify");
            });
            agg.any_verified = true;
          }
          tracer.Time(rid, "executor.filter", "executor.replica", [&] {
            Check(executor.FilterInto(**state, q, *fetched, q.oblivious, &agg,
                                      &seen_rows, &filter_cache, &scratch),
                  "filter");
          });
          // Kept, as Execute's fan-out keeps them, for the FetchRefs
          // re-issue below.
          fetched_units.push_back(std::move(*fetched));
        }
      }
      tracer.Time(rid, "executor.finalize", "executor.replica", [&] {
        replica = concealer::QueryExecutor::Finalize(q, agg);
      });
    });
    for (const concealer::FetchedUnit& unit : fetched_units) {
      std::vector<Bytes> keys;
      for (const concealer::Row* row : unit.rows) {
        keys.push_back(row->columns[concealer::kColIndex].ToBytes());
      }
      std::vector<concealer::RowRef> refs;
      fetch_refs_ms += tracer.Time(rid, "storage.fetch_refs", "", [&] {
        Check(sp->table().FetchRefs(keys, &refs), "fetch refs");
      });
    }
    if (concealer::SerializeQueryResult(replica) !=
        concealer::SerializeQueryResult(*executed)) {
      ++replica_mismatches;
    }
    ++samples;
  };
  // The sampler runs on a fresh thread: on the main thread, whose malloc
  // arena holds the dataset and the oracle, the same in-process calls ran
  // markedly slower than on the server's pool workers, which skewed the
  // wire-minus-registry subtraction.
  std::thread sampler([&] {
    while (Clock::now() < sample_end || samples < 20) sample_one();
  });
  sampler.join();
  const uint64_t rejected = (*svc)->admission_stats().rejected;
  const DirSplit split = SplitDirBytes(root + "/" + kTenant);

  // --- Restart: drain, close, and recover the directory directly.
  wire.clear();
  Check(server->Drain(), "drain");
  server.reset();
  registry.reset();
  concealer::StorageOptions storage;
  storage.engine = concealer::StorageOptions::Engine::kMmap;
  storage.dir = root + "/" + kTenant;
  StatusOr<std::unique_ptr<concealer::ServiceProvider>> reopened =
      Status::Internal("unset");
  const double recover_ms = tracer.Time(request++, "storage.recover", "", [&] {
    reopened = concealer::ServiceProvider::Open(ds->config, ds->sk, storage);
  });
  Check(reopened.status(), "recover");
  const bool index_attached = (*reopened)->table().paged_index();
  concealer::NodeStore* reopened_nodes =
      (*reopened)->mutable_table().engine()->node_store();
  QueryGenerator check_gen(spec, &ds->context, flags.seed, 0, /*phase=*/91);
  for (int i = 0; i < 20; ++i) {
    const QueryGenerator::Planned planned = check_gen.Next();
    StatusOr<QueryResult> r = (*reopened)->Execute(planned.query);
    tally.Add(*ds, Record{planned, r.status(), r.ok() ? *r : QueryResult{}});
  }
  const uint64_t node_pages =
      reopened_nodes != nullptr && reopened_nodes->is_open()
          ? reopened_nodes->num_pages() : 0;
  reopened->reset();
  fs::remove_all(root);
  tracer.Write(flags.spans);

  // --- Self times by subtraction.
  const std::map<std::string, double> total = tracer.Totals();
  auto per_query = [&](const char* name) {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second / samples;
  };
  const double wire_ms = per_query("net.wire");
  const double registry_ms = per_query("service.registry_query");
  const double execute_ms = per_query("service_provider.execute");
  const double replica_ms = per_query("executor.replica");
  const double replica_children_ms =
      per_query("planner.plan") + per_query("executor.fetch") +
      per_query("executor.verify") + per_query("executor.filter") +
      per_query("executor.finalize");
  const double n = static_cast<double>(samples);
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const double plain_wire = Median(plain_wire_ms);
  const double traced_wire = Median(traced_wire_ms);

  std::printf("workload=%s seed=%llu traced samples=%llu\n", spec.name.c_str(),
              static_cast<unsigned long long>(flags.seed),
              static_cast<unsigned long long>(samples));
  std::printf(
      "per query: wire %.3f ms, registry %.3f ms, execute %.3f ms, serial "
      "replica %.3f ms (units fan out in execute, not in the replica)\n",
      wire_ms, registry_ms, execute_ms, replica_ms);
  std::printf("restart: %llu node-file pages, index attached=%d\n",
              static_cast<unsigned long long>(node_pages), index_attached);
  std::printf("volume gate: wire %zu shapes, table %zu shapes, %zu+%zu "
              "violations; replica mismatches %llu\n",
              tally.gate.shapes(), table_gate.shapes() / 2,
              tally.gate.violations().size(), table_gate.violations().size(),
              static_cast<unsigned long long>(replica_mismatches));
  for (const std::string& v : table_gate.violations()) {
    std::printf("  volume violation %s\n", v.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed, %llu wrong%s%s\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.wrong),
              tally.first_error.empty() ? "" : "; first error: ",
              tally.first_error.c_str());

  const double tuples = static_cast<double>(ds->real_tuples);
  Metrics m;
  m.Set("net.wire_ms", wire_ms, "ms");
  m.Set("net.overhead_ms", wire_ms - registry_ms, "ms");
  m.Set("service.registry_ms", registry_ms, "ms");
  m.Set("service.execute_ms", execute_ms, "ms");
  m.Set("service.overhead_ms", registry_ms - execute_ms, "ms");
  m.Set("service.trapdoor_cache_hit_ratio",
        ratio(wire_cache_delta.trapdoor_hits,
              wire_cache_delta.trapdoor_hits + wire_cache_delta.trapdoor_misses),
        "ratio");
  m.Set("service.filter_cache_hit_ratio",
        ratio(wire_cache_delta.filter_hits,
              wire_cache_delta.filter_hits + wire_cache_delta.filter_misses),
        "ratio");
  m.Set("service.admission_rejected", rejected, "count");
  m.Set("planner.plan_ms", per_query("planner.plan"), "ms");
  m.Set("planner.units_per_query", units / n, "count");
  m.Set("executor.replica_ms", replica_ms, "ms");
  m.Set("executor.trapdoor_ms", (fetch_ms - fetch_refs_ms) / n, "ms");
  m.Set("executor.verify_ms", per_query("executor.verify"), "ms");
  m.Set("executor.filter_ms", per_query("executor.filter"), "ms");
  m.Set("executor.finalize_ms", per_query("executor.finalize"), "ms");
  m.Set("executor.trapdoors_per_query", trapdoors / n, "count");
  m.Set("executor.useful_row_share", ratio(matched, rows), "ratio");
  m.Set("storage.fetch_refs_ms", fetch_refs_ms / n, "ms");
  m.Set("storage.rows_fetched_per_query", rows / n, "count");
  m.Set("storage.bytes_fetched_per_query", bytes / n, "bytes");
  m.Set("storage.node_loads_per_query", node_loads / n, "count");
  m.Set("storage.node_cache_hit_ratio",
        ratio(node_hits, node_hits + node_loads), "ratio");
  m.Set("storage.index_attached", index_attached ? 1 : 0, "bool");
  m.Set("storage.ingest_epoch_ms", Mean(ingest_ms), "ms");
  m.Set("storage.recover_ms", recover_ms, "ms");
  m.Set("storage.segment_bytes_per_tuple", split.segment / tuples, "bytes");
  m.Set("storage.index_file_bytes_per_tuple", split.index / tuples, "bytes");
  m.Set("storage.meta_bytes_per_tuple", split.meta / tuples, "bytes");
  m.Set("data_provider.encrypt_epoch_ms", Mean(encrypt_ms), "ms");
  m.Set("data_provider.fake_share", ratio(fakes, shipped), "ratio");
  m.Set("trace.samples", n, "count");
  m.Set("trace.span_coverage", ratio(replica_children_ms, replica_ms),
        "ratio");
  m.Set("trace.overhead_share", ratio(traced_wire, plain_wire) - 1, "ratio");
  const bool correct = tally.correct() && table_gate.violations().empty() &&
                       replica_mismatches == 0;
  PrintResult(correct, tally.attempted, tally.failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Flags flags = ParseFlags(argc, argv);
  WorkloadSpec spec;
  if (!FindWorkload(flags.workload, &spec)) {
    Die("unknown workload '" + flags.workload + "'");
  }
  std::filesystem::create_directories(flags.workdir);
  const int rc =
      flags.trace ? RunTraced(flags, spec) : RunUntraced(flags, spec);
  std::filesystem::remove_all(flags.workdir);
  return rc;
}
