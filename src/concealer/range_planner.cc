#include "concealer/range_planner.h"

#include <algorithm>
#include <map>
#include <set>

namespace concealer {

namespace {

// #max of every oblivious slot shape (§4.3): the epoch's largest per-cell-id
// tuple count, so any unit's counters fit.
uint32_t MaxCounter(const std::vector<uint32_t>& c_tuple) {
  uint32_t slots_counters = 1;
  for (uint32_t w : c_tuple) slots_counters = std::max(slots_counters, w);
  return slots_counters;
}

// Oblivious slot shape for a BPB plan (§4.3): the same #C_max / #max /
// #f_max for every bin of the plan.
void FillBpbSlots(const BinPlan& plan,
                  const std::vector<uint32_t>& c_tuple, FetchUnit* unit) {
  uint32_t slots_cids = 1, slots_fakes = 1;
  for (const Bin& bin : plan.bins) {
    slots_cids = std::max<uint32_t>(slots_cids, bin.cell_ids.size());
    slots_fakes = std::max(slots_fakes, bin.fake_count);
  }
  unit->slots_cids = slots_cids;
  unit->slots_counters = MaxCounter(c_tuple);
  unit->slots_fakes = slots_fakes;
}

}  // namespace

StatusOr<std::vector<uint32_t>> RangePlanner::CoverCellsForQuery(
    const EpochState& state, const Query& query, uint32_t* bucket_lo,
    uint32_t* bucket_hi) const {
  const Grid& grid = state.grid();
  *bucket_lo = 0;
  *bucket_hi = 0;
  if (config_.time_buckets > 0) {
    const uint64_t epoch_lo = state.epoch_start();
    const uint64_t epoch_hi = epoch_lo + config_.epoch_seconds - 1;
    const uint64_t lo = std::max(query.time_lo, epoch_lo);
    const uint64_t hi = std::min(query.time_hi, epoch_hi);
    if (lo > hi) return std::vector<uint32_t>{};  // Epoch outside range.
    grid.TimeBucketRange(lo, hi, bucket_lo, bucket_hi);
  }
  return grid.CoverCells(query.key_values, *bucket_lo, *bucket_hi);
}

StatusOr<std::vector<uint32_t>> RangePlanner::BpbBinIndexes(
    EpochState* state, const Query& query) const {
  uint32_t lo, hi;
  StatusOr<std::vector<uint32_t>> cells =
      CoverCellsForQuery(*state, query, &lo, &hi);
  if (!cells.ok()) return cells.status();
  StatusOr<const BinPlan*> plan = state->GetBinPlan(pack_algorithm());
  if (!plan.ok()) return plan.status();

  std::set<uint32_t> bins;
  for (uint32_t cell : *cells) {
    const uint32_t cid = state->grid().CellIdOf(cell);
    bins.insert((*plan)->bin_of_cell_id[cid]);
  }
  return std::vector<uint32_t>(bins.begin(), bins.end());
}

StatusOr<FetchUnit> RangePlanner::UnitForBin(EpochState* state,
                                             uint32_t bin_index) const {
  StatusOr<const BinPlan*> plan = state->GetBinPlan(pack_algorithm());
  if (!plan.ok()) return plan.status();
  if (bin_index >= (*plan)->bins.size()) {
    return Status::InvalidArgument("bin index out of range");
  }
  const Bin& bin = (*plan)->bins[bin_index];
  FetchUnit unit;
  unit.cell_ids = bin.cell_ids;
  unit.fake_lo = bin.fake_id_lo;
  unit.fake_count = bin.fake_count;
  unit.cycle_fakes = false;
  unit.key_version = state->bin_key_version(bin_index);
  FillBpbSlots(**plan, state->layout().count_per_cell_id, &unit);
  return unit;
}

StatusOr<std::vector<FetchUnit>> RangePlanner::Plan(EpochState* state,
                                                    const Query& query) const {
  std::vector<FetchUnit> units;
  uint32_t bucket_lo, bucket_hi;

  switch (query.method) {
    case RangeMethod::kBPB: {
      StatusOr<std::vector<uint32_t>> bins = BpbBinIndexes(state, query);
      if (!bins.ok()) return bins.status();
      for (uint32_t b : *bins) {
        StatusOr<FetchUnit> unit = UnitForBin(state, b);
        if (!unit.ok()) return unit.status();
        units.push_back(std::move(*unit));
      }
      return units;
    }

    case RangeMethod::kEBPB: {
      StatusOr<std::vector<uint32_t>> cells =
          CoverCellsForQuery(*state, query, &bucket_lo, &bucket_hi);
      if (!cells.ok()) return cells.status();
      if (cells->empty()) return units;
      const uint32_t window = bucket_hi - bucket_lo + 1;
      StatusOr<uint32_t> bsize = state->GetEbpbBinSize(window);
      if (!bsize.ok()) return bsize.status();

      // One fetch unit per key column touched by the range: the column's
      // covered cell-ids, padded to the top-ℓ window volume so every
      // column/window of the same length looks identical.
      const uint32_t buckets =
          config_.time_buckets == 0 ? 1 : config_.time_buckets;
      const uint32_t key_cells = state->grid().num_cells() / buckets;
      std::map<uint32_t, std::set<uint32_t>> cids_by_column;
      for (uint32_t cell : *cells) {
        cids_by_column[cell % key_cells].insert(state->grid().CellIdOf(cell));
      }
      const auto& c_tuple = state->layout().count_per_cell_id;
      const uint32_t slots_counters = MaxCounter(c_tuple);
      for (const auto& [col, cids] : cids_by_column) {
        FetchUnit unit;
        unit.cell_ids.assign(cids.begin(), cids.end());
        uint32_t real = 0;
        for (uint32_t cid : cids) real += c_tuple[cid];
        unit.fake_count = real < *bsize ? *bsize - real : 0;
        // Deterministic per (column, window start): repeated identical
        // queries reuse the same fakes; overlapping windows share fakes —
        // exactly the leakage Example 5.2.2 attributes to eBPB.
        const uint64_t pool = std::max<uint64_t>(1, state->num_fake_tuples());
        unit.fake_lo = 1 + (uint64_t{col} * 1315423911ull +
                            uint64_t{bucket_lo} * 2654435761ull) %
                               pool;
        unit.cycle_fakes = true;
        // A column covers exactly `window` cells, so at most that many
        // cell-ids, whichever column the query names.
        unit.slots_cids = window;
        unit.slots_counters = slots_counters;
        unit.slots_fakes = *bsize;
        units.push_back(std::move(unit));
      }
      return units;
    }

    case RangeMethod::kWinSecRange: {
      if (config_.time_buckets == 0) {
        return Status::InvalidArgument(
            "winSecRange requires a time axis");
      }
      StatusOr<std::vector<uint32_t>> cells =
          CoverCellsForQuery(*state, query, &bucket_lo, &bucket_hi);
      if (!cells.ok()) return cells.status();
      if (cells->empty()) return units;
      uint32_t lambda = config_.winsec_lambda_buckets;
      if (lambda == 0) lambda = std::max<uint32_t>(1, config_.time_buckets / 20);
      StatusOr<const EpochState::IntervalPlan*> plan =
          state->GetIntervalPlan(lambda);
      if (!plan.ok()) return plan.status();

      const auto& c_tuple = state->layout().count_per_cell_id;
      // Slot shape of every interval of the epoch: its largest interval.
      uint32_t slots_cids = 1;
      for (const std::vector<uint32_t>& cids : (*plan)->interval_cell_ids) {
        slots_cids = std::max<uint32_t>(slots_cids, cids.size());
      }
      const uint32_t slots_counters = MaxCounter(c_tuple);
      const uint32_t first = bucket_lo / lambda;
      const uint32_t last = bucket_hi / lambda;
      for (uint32_t i = first;
           i <= last && i < (*plan)->interval_cell_ids.size(); ++i) {
        FetchUnit unit;
        unit.cell_ids = (*plan)->interval_cell_ids[i];
        uint32_t real = 0;
        for (uint32_t cid : unit.cell_ids) real += c_tuple[cid];
        unit.fake_count =
            real < (*plan)->bin_size ? (*plan)->bin_size - real : 0;
        const uint64_t pool = std::max<uint64_t>(1, state->num_fake_tuples());
        unit.fake_lo = 1 + (uint64_t{i} * 2654435761ull) % pool;
        unit.cycle_fakes = true;
        unit.slots_cids = slots_cids;
        unit.slots_counters = slots_counters;
        unit.slots_fakes = (*plan)->bin_size;
        units.push_back(std::move(unit));
      }
      return units;
    }
  }
  return Status::Internal("unknown range method");
}

}  // namespace concealer
