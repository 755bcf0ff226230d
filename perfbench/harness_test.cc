// Tests for the benchmark harness's own logic: the percentile rule, seeded
// determinism of queries and arrivals, the volume gate's grouping and the
// verification check.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <set>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.9), 90);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(OneTo(7), 0.5), 4);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({3.5}, 0.9), 3.5);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(1, 0.5), 0u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PercentileTest, ReportableOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(HighestReportablePercentile(19), 0);
  EXPECT_EQ(HighestReportablePercentile(20), 0.5);
  EXPECT_EQ(HighestReportablePercentile(99), 0.5);
  EXPECT_EQ(HighestReportablePercentile(100), 0.9);
  EXPECT_EQ(HighestReportablePercentile(999), 0.9);
  EXPECT_EQ(HighestReportablePercentile(1000), 0.99);
  EXPECT_EQ(HighestReportablePercentile(10000), 0.999);
}

TEST(WindowTest, WindowCountKeepsSamplesPerWindow) {
  EXPECT_EQ(WindowCount(50, 100, 10), 1u);
  EXPECT_EQ(WindowCount(250, 100, 10), 2u);
  EXPECT_EQ(WindowCount(5000, 100, 10), 10u);
  EXPECT_EQ(WindowCount(0, 100, 10), 1u);
}

TEST(WindowTest, AStallInOneWindowDoesNotMoveTheMedian) {
  std::vector<TimedSample> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) {
      // Window 3 stalls: every sample 50x slower.
      samples.push_back({w + i / 101.0, (w == 3 ? 50.0 : 1.0) * i});
    }
  }
  EXPECT_EQ(WindowedPercentile(samples, 5.0, 5, 0.5), 50);
  EXPECT_EQ(WindowedPercentile(samples, 5.0, 5, 0.9), 90);
  // Unwindowed, the stall owns the tail.
  std::vector<double> all;
  for (const TimedSample& s : samples) all.push_back(s.value);
  std::sort(all.begin(), all.end());
  EXPECT_GT(Percentile(all, 0.9), 1000);
  // Late samples land in the last window; empty windows are skipped.
  EXPECT_EQ(WindowedPercentile({{9.0, 7.0}}, 5.0, 5, 0.5), 7);
}

TEST(WindowTest, WindowedRate) {
  std::vector<double> done;
  for (int i = 0; i < 1000; ++i) done.push_back(i / 100.0);  // 100/s for 10 s.
  EXPECT_NEAR(WindowedRate(done, 10.0, 10), 100.0, 1e-9);
  // A 1 s outage in one window leaves the median rate alone.
  std::vector<double> gap;
  for (double t : done) {
    if (t < 4.0 || t >= 5.0) gap.push_back(t);
  }
  EXPECT_NEAR(WindowedRate(gap, 10.0, 10), 100.0, 1e-9);
  // Completions after the phase end are not counted.
  done.push_back(10.5);
  EXPECT_NEAR(WindowedRate(done, 10.0, 1), 100.0, 1e-9);
}

GeneratorContext Context(const WorkloadSpec& spec) {
  GeneratorContext c;
  c.data_start = kDataStart;
  c.data_end = DataEnd(spec);
  for (uint32_t ap = 0; ap < kAccessPoints; ++ap) c.column_of_ap.push_back(ap % 49);
  c.own_device = {"dev-1", "dev-2"};
  c.own_sightings = {{{7, kDataStart + 4000}, {8, kDataStart + 90000}},
                     {{9, kDataStart + 100}}};
  return c;
}

std::vector<QueryGenerator::Planned> Draw(const WorkloadSpec& spec,
                                          const GeneratorContext& c,
                                          uint64_t seed, uint32_t conn,
                                          int n) {
  QueryGenerator gen(spec, &c, seed, conn, /*phase=*/1);
  std::vector<QueryGenerator::Planned> out;
  for (int i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

bool SameQuery(const Query& a, const Query& b) {
  return a.agg == b.agg && a.key_values == b.key_values &&
         a.time_lo == b.time_lo && a.time_hi == b.time_hi &&
         a.observation == b.observation && a.k == b.k &&
         a.method == b.method && a.oblivious == b.oblivious &&
         a.verify == b.verify;
}

TEST(GeneratorTest, SameSeedSameQueries) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec;
    ASSERT_TRUE(FindWorkload(name, &spec));
    const GeneratorContext c = Context(spec);
    const auto a = Draw(spec, c, 7, 1 % spec.connections, 500);
    const auto b = Draw(spec, c, 7, 1 % spec.connections, 500);
    const auto other = Draw(spec, c, 8, 1 % spec.connections, 500);
    size_t differs = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_TRUE(SameQuery(a[i].query, b[i].query)) << name << " #" << i;
      differs += SameQuery(a[i].query, other[i].query) ? 0 : 1;
    }
    EXPECT_GT(differs, 400u) << name;
  }
}

TEST(GeneratorTest, MixAndRangesStayInTheDataset) {
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("analytic", &spec));
  const GeneratorContext c = Context(spec);
  std::map<QueryKind, int> kinds;
  for (const auto& p : Draw(spec, c, 3, 0, 4000)) {
    ++kinds[p.kind];
    EXPECT_TRUE(p.query.verify);
    EXPECT_GE(p.query.time_lo, kDataStart);
    EXPECT_LT(p.query.time_hi, DataEnd(spec));
    std::set<uint32_t> columns;
    for (const auto& key : p.query.key_values) {
      columns.insert(c.column_of_ap[key[0]]);
    }
    EXPECT_EQ(columns.size(), p.query.key_values.size());
  }
  // Exactly 40/30/15/15: the kinds come from a deck of 20.
  EXPECT_EQ(kinds[QueryKind::kTopK], 1600);
  EXPECT_EQ(kinds[QueryKind::kSum], 1200);
  EXPECT_EQ(kinds[QueryKind::kObliviousTopK], 600);
  EXPECT_EQ(kinds[QueryKind::kMax], 600);
}

TEST(GeneratorTest, EveryDeckCarriesTheExactShares) {
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("interactive", &spec));
  const GeneratorContext c = Context(spec);
  const auto drawn = Draw(spec, c, 9, 1, 200);
  for (size_t deck = 0; deck < 10; ++deck) {
    std::map<QueryKind, int> kinds;
    for (size_t i = deck * 20; i < deck * 20 + 20; ++i) ++kinds[drawn[i].kind];
    EXPECT_EQ(kinds[QueryKind::kBpbPoint], 10);
    EXPECT_EQ(kinds[QueryKind::kEbpbQ1], 5);
    EXPECT_EQ(kinds[QueryKind::kOwnDevice], 3);
    EXPECT_EQ(kinds[QueryKind::kObliviousPoint], 2);
  }
  // The order within decks still varies.
  size_t same = 0;
  for (size_t i = 0; i < 20; ++i) same += drawn[i].kind == drawn[20 + i].kind;
  EXPECT_LT(same, 20u);
}

TEST(GeneratorTest, OwnDeviceQueriesNameTheSessionDevice) {
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("interactive", &spec));
  const GeneratorContext c = Context(spec);
  QueryGenerator gen(spec, &c, 5, /*connection=*/1, 0);
  for (int i = 0; i < 20; ++i) {
    const Query q = gen.Make(QueryKind::kOwnDevice).query;
    EXPECT_EQ(q.observation, "dev-2");
    EXPECT_EQ(q.key_values, (std::vector<std::vector<uint64_t>>{{9}}));
    EXPECT_LE(q.time_lo, kDataStart + 100);
    EXPECT_GE(q.time_hi, kDataStart + 100);
    EXPECT_GE(q.time_lo, kDataStart);
  }
}

TEST(GeneratorTest, MakeAroundCoversTheAnchor) {
  WorkloadSpec spec;
  ASSERT_TRUE(FindWorkload("ingest_restart", &spec));
  const GeneratorContext c = Context(spec);
  QueryGenerator gen(spec, &c, 5, 0, 0);
  // Mid-period, at the first minute and at the last one.
  const std::vector<Sighting> anchors = {
      {17, kDataStart + 12 * kDaySeconds + 4321},
      {3, kDataStart + 5},
      {1999, DataEnd(spec) - 1}};
  for (const Sighting& at : anchors) {
    for (int i = 0; i < 50; ++i) {
      for (QueryKind kind : kSweepKinds) {
        const Query q = gen.MakeAround(kind, at).query;
        EXPECT_EQ(q.key_values, (std::vector<std::vector<uint64_t>>{{at.ap}}));
        EXPECT_LE(q.time_lo, at.time / 60 * 60) << KindName(kind);
        EXPECT_GE(q.time_hi, at.time / 60 * 60) << KindName(kind);
        EXPECT_GE(q.time_lo, kDataStart);
        EXPECT_LT(q.time_hi, DataEnd(spec));
        EXPECT_EQ(q.time_lo % 60, 0u);
      }
    }
  }
  const Query point = gen.MakeAround(QueryKind::kBpbPoint, anchors[0]).query;
  EXPECT_EQ(point.time_lo, point.time_hi);
  const Query q1 = gen.MakeAround(QueryKind::kEbpbQ1, anchors[0]).query;
  EXPECT_EQ(q1.time_hi - q1.time_lo + 1, 20u * 60);
}

TEST(VerificationTest, VerifiedOnlyAsAsked) {
  Query q;
  concealer::QueryResult r;
  r.rows_fetched = 512;
  q.verify = true;
  r.verified = true;
  EXPECT_TRUE(VerifiedAsAsked(q, r));
  // Asked for and fetched rows, but not verified: a skipped Verify.
  r.verified = false;
  EXPECT_FALSE(VerifiedAsAsked(q, r));
  // Nothing fetched, nothing to verify.
  r.rows_fetched = 0;
  EXPECT_TRUE(VerifiedAsAsked(q, r));
  // Not asked for: must not claim it.
  q.verify = false;
  r.rows_fetched = 512;
  EXPECT_TRUE(VerifiedAsAsked(q, r));
  r.verified = true;
  EXPECT_FALSE(VerifiedAsAsked(q, r));
}

Query Make(RangeMethod method, uint64_t lo, uint64_t hi, size_t keys = 1,
           bool oblivious = false) {
  Query q;
  q.method = method;
  q.time_lo = lo;
  q.time_hi = hi;
  q.oblivious = oblivious;
  for (size_t i = 0; i < keys; ++i) q.key_values.push_back({i});
  return q;
}

TEST(ShapeTest, GroupsByPublicPlanShape) {
  const concealer::ConcealerConfig config = DatasetConfig();
  const uint64_t day = kDatasetStart;  // Bucket = 1080 s.
  // Points in one day share a shape; another day or Concealer+ does not.
  const std::string p = ShapeKey(Make(RangeMethod::kBPB, day + 60, day + 60), config);
  EXPECT_EQ(p, ShapeKey(Make(RangeMethod::kBPB, day + 5000, day + 5000), config));
  EXPECT_NE(p, ShapeKey(Make(RangeMethod::kBPB, day + kDaySeconds + 60,
                             day + kDaySeconds + 60), config));
  EXPECT_NE(p, ShapeKey(Make(RangeMethod::kBPB, day + 60, day + 60, 1, true),
                        config));
  // A 20-minute eBPB window covers 2 or 3 buckets depending on alignment.
  const std::string two = ShapeKey(Make(RangeMethod::kEBPB, day, day + 1199), config);
  EXPECT_EQ(two, ShapeKey(Make(RangeMethod::kEBPB, day + 1080, day + 2279), config));
  EXPECT_NE(two, ShapeKey(Make(RangeMethod::kEBPB, day + 1000, day + 2199), config));
  // The number of key values is part of the shape.
  EXPECT_NE(two, ShapeKey(Make(RangeMethod::kEBPB, day, day + 1199, 2), config));
  // A range across midnight touches two epochs.
  const std::string across = ShapeKey(
      Make(RangeMethod::kEBPB, day + kDaySeconds - 600, day + kDaySeconds + 599),
      config);
  EXPECT_NE(across.find("|e18506:"), std::string::npos);
  EXPECT_NE(across.find("|e18507:"), std::string::npos);
  // winSecRange groups by λ-intervals (4 buckets here), not buckets.
  EXPECT_EQ(ShapeKey(Make(RangeMethod::kWinSecRange, day, day + 1199), config),
            ShapeKey(Make(RangeMethod::kWinSecRange, day + 1080, day + 2279),
                     config));
  EXPECT_NE(ShapeKey(Make(RangeMethod::kWinSecRange, day, day + 1199), config),
            ShapeKey(Make(RangeMethod::kWinSecRange, day + 3 * 1080,
                          day + 3 * 1080 + 1199), config));
  // λ comes from the config: at 8 buckets both windows are one interval.
  concealer::ConcealerConfig wide = config;
  wide.winsec_lambda_buckets = 8;
  EXPECT_EQ(ShapeKey(Make(RangeMethod::kWinSecRange, day, day + 1199), wide),
            ShapeKey(Make(RangeMethod::kWinSecRange, day + 3 * 1080,
                          day + 3 * 1080 + 1199), wide));
}

TEST(VolumeGateTest, FlagsAShapeWhoseVolumeVaries) {
  VolumeGate gate;
  EXPECT_TRUE(gate.Observe("a", 512));
  EXPECT_TRUE(gate.Observe("a", 512));
  EXPECT_TRUE(gate.Observe("b", 100));
  EXPECT_TRUE(gate.violations().empty());
  EXPECT_FALSE(gate.Observe("a", 511));
  ASSERT_EQ(gate.violations().size(), 1u);
  EXPECT_EQ(gate.violations()[0], "a: 512 vs 511");
  EXPECT_EQ(gate.shapes(), 2u);
  EXPECT_EQ(gate.observations(), 4u);
}

}  // namespace
}  // namespace perfbench
