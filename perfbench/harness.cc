#include "harness.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace perfbench {

namespace {

// splitmix64 finalizer: decorrelates (seed, connection, phase) streams.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b) {
  return Mix(Mix(Mix(seed) ^ a) ^ (b << 32));
}

const char* MethodName(RangeMethod method) {
  switch (method) {
    case RangeMethod::kBPB:
      return "bpb";
    case RangeMethod::kEBPB:
      return "ebpb";
    case RangeMethod::kWinSecRange:
      return "winsec";
  }
  return "?";
}

}  // namespace

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBpbPoint:
      return "bpb_point";
    case QueryKind::kEbpbQ1:
      return "q1_20min";
    case QueryKind::kOwnDevice:
      return "q5_own_device";
    case QueryKind::kObliviousPoint:
      return "plus_point";
    case QueryKind::kTopK:
      return "q2_top5";
    case QueryKind::kSum:
      return "sum_8h";
    case QueryKind::kObliviousTopK:
      return "plus_top3";
    case QueryKind::kMax:
      return "max_winsec";
  }
  return "?";
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  // analytic and ingest_restart both time this mix: reads that fetch
  // thousands of rows in several units with verification on.
  const std::vector<MixEntry> analytic_mix = {
      {QueryKind::kTopK, 40},
      {QueryKind::kSum, 30},
      {QueryKind::kObliviousTopK, 15},
      {QueryKind::kMax, 15}};
  WorkloadSpec s;
  s.name = name;
  if (name == "interactive") {
    s.days = 7;
    s.connections = 4;
    s.warmup_seconds = 5;
    s.mix = {{QueryKind::kBpbPoint, 50},
             {QueryKind::kEbpbQ1, 25},
             {QueryKind::kOwnDevice, 15},
             {QueryKind::kObliviousPoint, 10}};
  } else if (name == "analytic") {
    s.days = 7;
    s.connections = 2;
    s.verify = true;
    s.mix = analytic_mix;
  } else if (name == "ingest_restart") {
    s.days = 28;
    s.connections = 2;
    s.verify = true;
    s.ingest_restart = true;
    s.mix = analytic_mix;
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"interactive", "analytic", "ingest_restart"};
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const uint64_t n = sorted.size();
  const uint64_t rank = n - SamplesBeyond(n, p);
  return sorted[rank == 0 ? 0 : rank - 1];
}

uint64_t SamplesBeyond(uint64_t n, double p) {
  // The tolerance keeps p*n exact for whole ranks (0.9 * 100 is not 90 in
  // binary floating point).
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const uint64_t r = rank < 1 ? 1 : static_cast<uint64_t>(rank);
  return r >= n ? 0 : n - r;
}

double HighestReportablePercentile(uint64_t n) {
  for (double p : {0.999, 0.99, 0.9, 0.5}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

uint32_t WindowCount(uint64_t n, uint64_t min_per_window,
                     uint32_t max_windows) {
  const uint64_t w = min_per_window == 0 ? max_windows : n / min_per_window;
  return static_cast<uint32_t>(std::clamp<uint64_t>(w, 1, max_windows));
}

namespace {

size_t WindowOf(double at, double duration, uint32_t windows) {
  if (at <= 0) return 0;
  const double w = at / duration * windows;
  return std::min<size_t>(windows - 1, static_cast<size_t>(w));
}

}  // namespace

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

std::vector<double> WindowFigures(const std::vector<TimedSample>& samples,
                                  double duration, uint32_t windows, double p) {
  std::vector<double> figures;
  if (windows == 0 || duration <= 0) return figures;
  std::vector<std::vector<double>> per(windows);
  for (const TimedSample& s : samples) {
    per[WindowOf(s.at, duration, windows)].push_back(s.value);
  }
  for (std::vector<double>& w : per) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    figures.push_back(Percentile(w, p));
  }
  return figures;
}

double WindowedPercentile(const std::vector<TimedSample>& samples,
                          double duration, uint32_t windows, double p) {
  return Median(WindowFigures(samples, duration, windows, p));
}

double WindowedRate(const std::vector<double>& completions, double duration,
                    uint32_t windows) {
  if (windows == 0 || duration <= 0) return 0;
  std::vector<double> counts(windows, 0);
  for (double at : completions) {
    if (at < duration) counts[WindowOf(at, duration, windows)] += 1;
  }
  for (double& c : counts) c /= duration / windows;
  return Median(std::move(counts));
}

QueryGenerator::QueryGenerator(const WorkloadSpec& spec,
                               const GeneratorContext* context, uint64_t seed,
                               uint32_t connection, uint32_t phase)
    : spec_(&spec),
      context_(context),
      connection_(connection),
      rng_(StreamSeed(seed, connection, phase)) {
  uint32_t unit = 0;
  for (const MixEntry& entry : spec.mix) unit = std::gcd(unit, entry.weight);
  for (const MixEntry& entry : spec.mix) {
    deck_.insert(deck_.end(), entry.weight / unit, entry.kind);
  }
  deck_pos_ = deck_.size();
}

void QueryGenerator::ShuffleDeck() {
  for (size_t i = deck_.size(); i > 1; --i) {
    std::swap(deck_[i - 1], deck_[rng_.Uniform(i)]);
  }
  deck_pos_ = 0;
}

uint64_t QueryGenerator::DrawStart(uint64_t length_seconds) {
  const uint64_t minutes =
      (context_->data_end - context_->data_start - length_seconds) / 60;
  return context_->data_start + 60 * rng_.Uniform(minutes + 1);
}

void QueryGenerator::WindowAround(uint64_t time, uint64_t seconds, Query* q) {
  uint64_t lo = time / 60 * 60 - 60 * rng_.Uniform(seconds / 60);
  lo = std::min(std::max(lo, context_->data_start),
                context_->data_end - seconds);
  q->time_lo = lo;
  q->time_hi = lo + seconds - 1;
}

std::vector<std::vector<uint64_t>> QueryGenerator::DistinctColumnKeys(
    size_t n) {
  std::vector<std::vector<uint64_t>> keys;
  std::set<uint32_t> columns;
  while (keys.size() < n) {
    const uint64_t ap = rng_.Uniform(kAccessPoints);
    if (columns.insert(context_->column_of_ap[ap]).second) keys.push_back({ap});
  }
  return keys;
}

QueryGenerator::Planned QueryGenerator::Next() {
  if (deck_pos_ == deck_.size()) ShuffleDeck();
  return Make(deck_[deck_pos_++]);
}

QueryGenerator::Planned QueryGenerator::Make(QueryKind kind) {
  return Build(kind, nullptr);
}

QueryGenerator::Planned QueryGenerator::MakeAround(QueryKind kind,
                                                   const Sighting& at) {
  return Build(kind, &at);
}

QueryGenerator::Planned QueryGenerator::Build(QueryKind kind,
                                              const Sighting* at) {
  Planned out;
  out.kind = kind;
  Query& q = out.query;
  q.verify = spec_->verify;
  // Single-AP kinds: the anchor's AP and a window around its time, else a
  // random AP and start.
  auto one_ap = [&]() -> std::vector<std::vector<uint64_t>> {
    return {{at != nullptr ? at->ap : rng_.Uniform(kAccessPoints)}};
  };
  auto range = [&](uint64_t seconds) {
    if (at != nullptr) return WindowAround(at->time, seconds, &q);
    q.time_lo = DrawStart(seconds);
    q.time_hi = q.time_lo + seconds - 1;
  };
  switch (kind) {
    case QueryKind::kBpbPoint:
    case QueryKind::kObliviousPoint:
      q.agg = Aggregate::kCount;
      q.method = RangeMethod::kBPB;
      q.oblivious = kind == QueryKind::kObliviousPoint;
      q.key_values = one_ap();
      q.time_lo = q.time_hi =
          at != nullptr ? at->time / 60 * 60 : DrawStart(60);
      break;
    case QueryKind::kEbpbQ1:
      q.agg = Aggregate::kCount;
      q.method = RangeMethod::kEBPB;
      q.key_values = one_ap();
      range(20 * 60);
      break;
    case QueryKind::kOwnDevice: {
      // A 1 h window around a real sighting of the user's own device.
      const std::vector<Sighting>& seen =
          context_->own_sightings[connection_];
      const Sighting& s = seen[rng_.Uniform(seen.size())];
      q.agg = Aggregate::kCount;
      q.method = RangeMethod::kEBPB;
      q.key_values = {{s.ap}};
      q.observation = context_->own_device[connection_];
      WindowAround(s.time, 3600, &q);
      break;
    }
    case QueryKind::kTopK:
      q.agg = Aggregate::kTopK;
      q.k = 5;
      q.method = RangeMethod::kEBPB;
      q.key_values = DistinctColumnKeys(10);
      range(2 * 3600);
      break;
    case QueryKind::kSum:
      q.agg = Aggregate::kSum;
      q.method = RangeMethod::kEBPB;
      q.key_values = DistinctColumnKeys(4);
      range(8 * 3600);
      break;
    case QueryKind::kObliviousTopK:
      q.agg = Aggregate::kTopK;
      q.k = 3;
      q.method = RangeMethod::kEBPB;
      q.oblivious = true;
      q.key_values = DistinctColumnKeys(5);
      range(3600);
      break;
    case QueryKind::kMax:
      q.agg = Aggregate::kMax;
      q.method = RangeMethod::kWinSecRange;
      q.key_values = one_ap();
      range(20 * 60);
      break;
  }
  return out;
}

std::string ShapeKey(const Query& query,
                     const concealer::ConcealerConfig& config) {
  std::string key = MethodName(query.method);
  if (query.oblivious) key += "+";
  key += "/k" + std::to_string(query.key_values.size());
  const uint64_t epoch = config.epoch_seconds;
  const uint64_t bucket = epoch / config.time_buckets;
  const uint32_t lambda = config.winsec_lambda_buckets;
  for (uint64_t e = query.time_lo / epoch; e <= query.time_hi / epoch; ++e) {
    const uint64_t start = e * epoch;
    const uint64_t lo = std::max(query.time_lo, start) - start;
    const uint64_t hi = std::min(query.time_hi, start + epoch - 1) - start;
    const uint64_t b_lo = lo / bucket;
    const uint64_t b_hi = hi / bucket;
    key += "|e" + std::to_string(e);
    if (query.method == RangeMethod::kWinSecRange) {
      key += ":i" + std::to_string(b_hi / lambda - b_lo / lambda + 1);
    } else {
      key += ":w" + std::to_string(b_hi - b_lo + 1);
    }
  }
  return key;
}

bool VerifiedAsAsked(const Query& query, const concealer::QueryResult& result) {
  if (!query.verify) return !result.verified;
  return result.verified || result.rows_fetched == 0;
}

bool VolumeGate::Observe(const std::string& shape, uint64_t volume) {
  ++observations_;
  auto [it, inserted] = volume_.emplace(shape, volume);
  if (inserted || it->second == volume) return true;
  violations_.push_back(shape + ": " + std::to_string(it->second) + " vs " +
                        std::to_string(volume));
  return false;
}

}  // namespace perfbench
