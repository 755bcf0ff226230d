#include "bench_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/random.h"
#include "common/timer.h"

namespace concealer {
namespace bench {

uint64_t Scale() {
  const char* env = std::getenv("CONCEALER_SCALE");
  if (env == nullptr) return 100;
  const long v = std::atol(env);
  return v <= 0 ? 100 : static_cast<uint64_t>(v);
}

int Reps() {
  const char* env = std::getenv("CONCEALER_REPS");
  if (env == nullptr) return 5;
  const int v = std::atoi(env);
  return v <= 0 ? 5 : v;
}

std::string MakeTempDir(const std::string& prefix) {
  std::error_code ec;
  const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (ec) return std::string();
  std::string dir = (tmp / (prefix + "-XXXXXX")).string();
  return ::mkdtemp(dir.data()) == nullptr ? std::string() : dir;
}

std::unique_ptr<ServiceProvider> MakeProvider(const ConcealerConfig& config,
                                              Bytes sk) {
  StatusOr<std::unique_ptr<ServiceProvider>> sp =
      ServiceProvider::Open(config, std::move(sk));
  if (!sp.ok()) {
    std::fprintf(stderr, "cannot open the storage engine: %s\n",
                 sp.status().ToString().c_str());
    std::abort();
  }
  return std::move(*sp);
}

WifiDataset MakeWifiDataset(bool large) {
  WifiDataset ds;
  ds.name = large ? "large (136M/scale rows, 202 days)"
                  : "small (26M/scale rows, 44 days)";
  ds.wifi.num_access_points = 2000;  // Paper: "more than 2000 APs".
  ds.wifi.num_devices = 4000;
  ds.wifi.start_time = 0;
  ds.wifi.duration_seconds = (large ? 202ull : 44ull) * 86400;
  ds.wifi.total_rows = (large ? 136000000ull : 26000000ull) / Scale();
  ds.wifi.seed = large ? 136 : 26;

  // Grid shape: ~18-minute cells (paper: "a cell covers ≈18min"); the
  // static dataset is one epoch covering the whole collection period
  // (paper grid 490 x 16,000 over 202 days). Key buckets and cell-ids are
  // scaled to keep per-cid density near the paper's ≈1.5K rows / 87K cids
  // over 136M rows ratio.
  const uint64_t days = ds.wifi.duration_seconds / 86400;
  ds.config.key_buckets = {49};
  ds.config.key_domains = {ds.wifi.num_access_points};
  ds.config.time_buckets = static_cast<uint32_t>(days * 80);  // 18-min cells.
  ds.config.num_cell_ids =
      static_cast<uint32_t>((large ? 8700ull : 1700ull));
  ds.config.epoch_seconds = ds.wifi.duration_seconds;
  ds.config.time_quantum = 60;
  ds.config.make_hash_chains = true;
  // winSecRange interval: 8h (small) / ~1 day (large), as in Exp 2.
  ds.config.winsec_lambda_buckets = large ? 80 : 27;

  WifiGenerator gen(ds.wifi);
  ds.tuples = gen.Generate();
  return ds;
}

Pipeline BuildPipeline(const WifiDataset& dataset, bool build_oracle) {
  Pipeline p;
  p.config = dataset.config;
  p.dp = std::make_unique<DataProvider>(dataset.config, Bytes(32, 0x99));
  std::fprintf(stderr, "[bench] encrypting %zu rows (%s)...\n",
               dataset.tuples.size(), dataset.name.c_str());
  Timer t_enc;
  auto epochs = p.dp->EncryptAll(dataset.tuples);
  if (!epochs.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 epochs.status().ToString().c_str());
    std::abort();
  }
  p.encrypt_seconds = t_enc.ElapsedSeconds();

  p.sp = MakeProvider(dataset.config, p.dp->shared_secret());
  Timer t_ing;
  for (const auto& e : *epochs) {
    p.encrypted_rows += e.rows.size();
    const Status st = p.sp->IngestEpoch(e);
    if (!st.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  p.ingest_seconds = t_ing.ElapsedSeconds();
  std::fprintf(stderr,
               "[bench] encrypted %llu rows in %.1fs, ingested in %.1fs\n",
               (unsigned long long)p.encrypted_rows, p.encrypt_seconds,
               p.ingest_seconds);

  if (build_oracle) {
    p.oracle = std::make_unique<CleartextDb>(dataset.config.time_quantum);
    p.oracle->Insert(dataset.tuples);
    p.oracle->BuildIndex();
  }
  return p;
}

TpchPipeline BuildTpch(bool four_d) {
  TpchPipeline p;
  TpchConfig tpch;
  tpch.total_rows = 136000000ull / Scale();
  TpchGenerator gen(tpch);
  p.items = gen.Generate();

  if (four_d) {
    // Paper: 1500 x 100 x 10 x 7 grid, 87,000 cell-ids (scaled).
    p.config.key_buckets = {150, 10, 4, 7};
    p.config.key_domains = {gen.orderkey_domain(), gen.partkey_domain(),
                            gen.suppkey_domain(), 8};
    p.config.num_cell_ids = 8700;
  } else {
    // Paper: 112,000 x 7 grid, 87,000 cell-ids (scaled).
    p.config.key_buckets = {1120, 7};
    p.config.key_domains = {gen.orderkey_domain(), 8};
    p.config.num_cell_ids = 7800;
  }
  p.config.time_buckets = 0;
  p.config.time_quantum = 1;

  const auto tuples = four_d ? TpchGenerator::ToTuples4D(p.items)
                             : TpchGenerator::ToTuples2D(p.items);
  p.dp = std::make_unique<DataProvider>(p.config, Bytes(32, 0x8a));
  std::fprintf(stderr, "[bench] encrypting %zu TPC-H rows (%s index)...\n",
               tuples.size(), four_d ? "4D" : "2D");
  auto epochs = p.dp->EncryptAll(tuples);
  if (!epochs.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 epochs.status().ToString().c_str());
    std::abort();
  }
  p.sp = MakeProvider(p.config, p.dp->shared_secret());
  for (const auto& e : *epochs) {
    const Status st = p.sp->IngestEpoch(e);
    if (!st.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return p;
}

double TimeQuery(ServiceProvider* sp, const Query& query, int reps) {
  // Warm-up run builds lazy plans (bins/intervals), as in the paper where
  // bins are created once before the first query.
  auto warm = sp->Execute(query);
  if (!warm.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 warm.status().ToString().c_str());
    std::abort();
  }
  Timer t;
  for (int i = 0; i < reps; ++i) {
    auto r = sp->Execute(query);
    if (!r.ok()) std::abort();
  }
  return t.ElapsedSeconds() / reps;
}

double TimeCleartext(const CleartextDb* db, const Query& query, int reps) {
  Timer t;
  for (int i = 0; i < reps; ++i) {
    auto r = db->Execute(query);
    if (!r.ok()) std::abort();
  }
  return t.ElapsedSeconds() / reps;
}

std::vector<Query> PaperQueries(const WifiDataset& dataset,
                                uint64_t range_start, uint64_t range_minutes,
                                size_t extra_locations) {
  std::vector<Query> queries(5);
  const uint64_t lo = range_start;
  const uint64_t hi = range_start + range_minutes * 60 - 1;

  // Locations: Q1 uses one; Q2-Q5 "use more locations" (paper Exp 2).
  std::vector<std::vector<uint64_t>> many;
  for (size_t i = 0; i < extra_locations; ++i) {
    many.push_back({static_cast<uint64_t>(i * 7 % 2000)});
  }
  const std::string probe_obs =
      dataset.tuples[dataset.tuples.size() / 2].observation;

  // Q1: #observations at l_i during t1..tx.
  queries[0].agg = Aggregate::kCount;
  queries[0].key_values = {{42}};
  // Q2: locations with top-k observations.
  queries[1].agg = Aggregate::kTopK;
  queries[1].k = 5;
  queries[1].key_values = many;
  // Q3: locations with at least 10 observations.
  queries[2].agg = Aggregate::kThresholdKeys;
  queries[2].threshold = 10;
  queries[2].key_values = many;
  // Q4: which locations have observation o_i.
  queries[3].agg = Aggregate::kKeysWithObservation;
  queries[3].observation = probe_obs;
  queries[3].key_values = many;
  // Q5: #times observation o_i happened at l_i.
  queries[4].agg = Aggregate::kCount;
  queries[4].key_values = {dataset.tuples[dataset.tuples.size() / 2].keys};
  queries[4].observation = probe_obs;

  for (Query& q : queries) {
    q.time_lo = lo;
    q.time_hi = hi;
  }
  return queries;
}

std::vector<Query> RandomPointQueries(const WifiDataset& dataset, int count,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (int i = 0; i < count; ++i) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{rng.Uniform(dataset.wifi.num_access_points)}};
    const uint64_t t =
        rng.Uniform(dataset.wifi.duration_seconds / 60) * 60;
    q.time_lo = q.time_hi = t;
    out.push_back(std::move(q));
  }
  return out;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Scale: paper row counts / %llu (CONCEALER_SCALE)\n",
              (unsigned long long)Scale());
  std::printf("================================================================\n");
}

void PrintFooter() {
  std::printf("----------------------------------------------------------------\n\n");
}

void JsonWriter::Sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_) out_ += ',';
  first_ = false;
}

void JsonWriter::Key(const std::string& k) {
  Sep();
  out_ += '"';
  out_ += k;  // Keys are caller-controlled identifiers; no escaping needed.
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::String(const std::string& v) {
  Sep();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

void JsonWriter::Number(double v) {
  Sep();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out_ += buf;
}

void JsonWriter::Number(uint64_t v) {
  Sep();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
  out_ += buf;
}

void JsonWriter::Bool(bool v) {
  Sep();
  out_ += v ? "true" : "false";
}

void JsonWriter::Null() {
  Sep();
  out_ += "null";
}

const char* BenchJsonPath(int argc, char** argv) {
  if (argc > 1 && argv[1][0] != '-') return argv[1];
  return std::getenv("CONCEALER_BENCH_JSON");
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::abort();
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  if (written != content.size() || std::fclose(f) != 0) {
    std::fprintf(stderr, "short write: %s\n", path.c_str());
    std::abort();
  }
  std::printf("wrote JSON results to %s\n", path.c_str());
}

void DropFileCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

}  // namespace bench
}  // namespace concealer
