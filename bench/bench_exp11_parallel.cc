// Exp 11 (implementation extension, no paper counterpart): parallel fetch
// of independent FetchUnits. The paper's enclave executes Step 3/Step 4
// serially; since BPB bins, eBPB cell covers and winSecRange intervals are
// independent volume-constant retrievals, each can run as one task (fetch,
// verify, filter/aggregate into its own state). Answers stay byte-identical
// (the unit states fold in unit order, and a row counts only in the first
// unit of the plan that lists its cell).
//
// Shape to hold: wall-clock drops as threads grow until the per-query unit
// count is exhausted; winSecRange (most units per query) scales best,
// speedup at 4 threads >= 1.5x on range workloads.

#include <cstdio>
#include <thread>

#include "bench_util.h"

using namespace concealer;

int main() {
  bench::PrintHeader(
      "Exp 11: parallel fetch-unit execution, 20-minute range queries "
      "(1/2/4/8 threads)",
      "extension beyond the paper (single-threaded enclave)");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", hw);
  if (hw < 4) {
    std::printf(
        "WARNING: fewer than 4 hardware threads — wall-clock speedup cannot "
        "manifest here;\nthe interesting column on this host is the overhead "
        "(N-thread vs 1-thread ratio ~1.0)\n");
  }

  bench::WifiDataset ds = bench::MakeWifiDataset(/*large=*/false);
  bench::Pipeline p = bench::BuildPipeline(ds, /*build_oracle=*/false);

  const uint64_t range_start = 10ull * 86400 + 9 * 3600;  // Day 10, 9am.
  auto queries = bench::PaperQueries(ds, range_start, 20,
                                     /*extra_locations=*/40);
  const int reps = bench::Reps();
  const uint32_t thread_counts[] = {1, 2, 4, 8};

  struct MethodRow {
    RangeMethod method;
    const char* name;
  };
  const MethodRow methods[] = {{RangeMethod::kBPB, "BPB"},
                               {RangeMethod::kEBPB, "eBPB"},
                               {RangeMethod::kWinSecRange, "winSecRange"}};

  std::printf("%-14s %10s %10s %10s %10s %12s\n", "method", "1thr(s)",
              "2thr(s)", "4thr(s)", "8thr(s)", "speedup@4");
  for (const MethodRow& m : methods) {
    // Q1 over the default range; verification on so the parallel stage
    // covers both trapdoor formulation and chain checking.
    Query q = queries[0];
    q.method = m.method;
    q.verify = true;

    double secs[4] = {0, 0, 0, 0};
    for (int ti = 0; ti < 4; ++ti) {
      p.sp->set_num_threads(thread_counts[ti]);
      secs[ti] = bench::TimeQuery(p.sp.get(), q, reps);
    }
    p.sp->set_num_threads(1);
    std::printf("%-14s %10.4f %10.4f %10.4f %10.4f %11.2fx\n", m.name,
                secs[0], secs[1], secs[2], secs[3], secs[0] / secs[2]);
  }

  std::printf(
      "\nexpected shape: speedup grows with per-query unit count "
      "(winSecRange > eBPB > BPB);\nanswers are byte-identical across all "
      "thread counts\n");
  bench::PrintFooter();
  return 0;
}
