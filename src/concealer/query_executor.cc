#include "concealer/query_executor.h"

#include <algorithm>

#include "common/coding.h"
#include "concealer/wire.h"
#include "crypto/det_cipher.h"
#include "crypto/hmac.h"
#include "enclave/oblivious.h"

namespace concealer {

namespace {

std::string_view View(Slice b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

// Stages `count` Index(cid, ctr(j)) plaintexts (j = 0..count-1) in
// scratch->plain_bufs / plain_views, ready for one DetCipher::EncryptBatch
// call. The buffers are worker-slot scratch, so the per-trapdoor plaintext
// assembly allocates only until the high-water mark is reached.
template <typename Counter>
void StageIndexPlains(QueryExecutor::UnitScratch* scratch, uint32_t cid,
                      size_t count, const Counter& ctr) {
  if (scratch->plain_bufs.size() < count) scratch->plain_bufs.resize(count);
  scratch->plain_views.resize(count);
  for (size_t j = 0; j < count; ++j) {
    IndexPlainTo(&scratch->plain_bufs[j], cid, ctr(j));
    scratch->plain_views[j] = Slice(scratch->plain_bufs[j]);
  }
}

// A real cell-id's counters 1..count.
uint64_t CellCounter(size_t j) { return j + 1; }

// One cell-id's real trapdoors E_k(cid‖1..count), in counter order — the
// unit of work the EnclaveWorkCache memoizes. Derived through the multi-lane
// EncryptBatch pipeline; DET is deterministic, so the bytes are identical to
// the serial per-counter loop.
std::vector<Bytes> CellTrapdoors(const DetCipher& det, uint32_t cid,
                                 uint32_t count,
                                 QueryExecutor::UnitScratch* scratch) {
  std::vector<Bytes> tds(count);
  if (count == 0) return tds;
  StageIndexPlains(scratch, cid, count, CellCounter);
  det.EncryptBatch(scratch->plain_views.data(), count, tds.data());
  return tds;
}

// Chunk size for batched Er decryption: bounds scratch growth while keeping
// the multi-lane CMAC pipeline full.
constexpr size_t kDecryptChunk = 64;

// Runs DetCipher::DecryptBatch over the ciphertext views staged in
// scratch->ct_views and feeds each parsed tuple to `absorb` in order —
// identical outcomes (values, error, error position) to a serial
// decrypt-parse loop. Shared by the plain and oblivious filter paths.
template <typename Absorb>
Status DecryptAndAbsorb(const DetCipher& det,
                        QueryExecutor::UnitScratch* scratch,
                        const Absorb& absorb) {
  const size_t total = scratch->ct_views.size();
  if (scratch->pt_bufs.size() < std::min(total, kDecryptChunk)) {
    scratch->pt_bufs.resize(std::min(total, kDecryptChunk));
  }
  for (size_t base = 0; base < total; base += kDecryptChunk) {
    const size_t n = std::min(kDecryptChunk, total - base);
    CONCEALER_RETURN_IF_ERROR(det.DecryptBatch(
        scratch->ct_views.data() + base, n, scratch->pt_bufs.data()));
    for (size_t i = 0; i < n; ++i) {
      StatusOr<PlainTuple> tuple = ParseTuplePlain(scratch->pt_bufs[i]);
      if (!tuple.ok()) return tuple.status();
      CONCEALER_RETURN_IF_ERROR(absorb(*tuple));
    }
  }
  return Status::OK();
}

// Key of one (epoch, key version, cell-id): the EnclaveWorkCache's
// trapdoor lists, and a query's cell ownership (FilterInto's `seen_cells`,
// ExecuteUnitsParallel's owner map).
std::string CellKey(uint64_t epoch_id, uint64_t key_version,
                    uint32_t cell_id) {
  Bytes key;
  PutFixed64(&key, epoch_id);
  PutFixed64(&key, key_version);
  PutFixed32(&key, cell_id);
  return std::string(View(key));
}

// Sets `fresh` (parallel to fetched.rows) to 1, then to 0 for the rows
// aligned to each cell-id `owns(cid)` says this unit does not own. Called
// once per listed cell-id. Rows no trapdoor aligns are fakes (or damaged),
// which stay fresh.
template <typename Owns>
void MarkFresh(const FetchedUnit& fetched, const Owns& owns,
               std::vector<uint64_t>* fresh) {
  fresh->assign(fetched.rows.size(), 1);
  for (const auto& [cid, rows] : fetched.real_row_of_cid) {
    if (owns(cid)) continue;
    for (size_t i : rows) (*fresh)[i] = 0;
  }
}

// Quantized timestamps of a query's time range clipped to one epoch.
std::vector<uint64_t> QuantizedTimes(const EpochState& state,
                                     const ConcealerConfig& config,
                                     const Query& query) {
  std::vector<uint64_t> times;
  if (config.time_buckets == 0) {
    times.push_back(0);  // Non-time-series data: single pseudo-timestamp.
    return times;
  }
  const uint64_t quantum = config.time_quantum == 0 ? 1 : config.time_quantum;
  const uint64_t epoch_lo = state.epoch_start();
  const uint64_t epoch_hi = state.epoch_start() + config.epoch_seconds - 1;
  uint64_t lo = std::max(query.time_lo, epoch_lo);
  uint64_t hi = std::min(query.time_hi, epoch_hi);
  if (lo > hi) return times;
  lo = lo / quantum * quantum;
  hi = hi / quantum * quantum;
  for (uint64_t t = lo; t <= hi; t += quantum) times.push_back(t);
  return times;
}

// All key coordinate vectors a query constrains: the explicit predicate, or
// the full (public) domain for whole-domain queries.
StatusOr<std::vector<std::vector<uint64_t>>> KeyUniverse(
    const ConcealerConfig& config, const Query& query) {
  if (!query.key_values.empty()) return query.key_values;
  if (config.key_domains.size() != config.key_buckets.size()) {
    return Status::FailedPrecondition(
        "whole-domain query requires key_domains in the config");
  }
  uint64_t total = 1;
  for (uint64_t d : config.key_domains) {
    if (d == 0) return Status::InvalidArgument("empty key domain");
    total *= d;
    if (total > 1000000) {
      return Status::InvalidArgument(
          "whole-domain filter enumeration too large");
    }
  }
  std::vector<std::vector<uint64_t>> out;
  out.reserve(total);
  std::vector<uint64_t> cur(config.key_domains.size(), 0);
  for (uint64_t i = 0; i < total; ++i) {
    out.push_back(cur);
    for (size_t axis = 0; axis < cur.size(); ++axis) {
      if (++cur[axis] < config.key_domains[axis]) break;
      cur[axis] = 0;
    }
  }
  return out;
}

}  // namespace

Status QueryExecutor::MakeTrapdoors(const EpochState& state,
                                    const FetchUnit& unit, bool oblivious,
                                    UnitScratch* scratch) const {
  StatusOr<DetCipher> det =
      enclave_->EpochDetCipher(state.epoch_id(), unit.key_version);
  if (!det.ok()) return det.status();

  const auto& c_tuple = state.layout().count_per_cell_id;
  const uint64_t fake_pool = state.num_fake_tuples();
  for (uint32_t cid : unit.cell_ids) {
    if (cid >= c_tuple.size()) {
      return Status::InvalidArgument("cell-id out of range");
    }
  }
  std::vector<Slice>& trapdoors = scratch->trapdoors;
  trapdoors.clear();
  scratch->borrowed.clear();

  if (!oblivious) {
    // Plain Step 3: one trapdoor per (cid, counter) plus the fake range.
    // With a work cache attached, each cell-id's trapdoor list is computed
    // once per (epoch, key version) and borrowed by every later query that
    // touches the cell — the issued bytes (and their order) are identical
    // either way, since DET encryption is deterministic. Derived trapdoors
    // land in scratch->derived, sized up front so the views stay valid.
    const bool fakes = fake_pool > 0 && unit.fake_count > 0;
    size_t to_derive = fakes ? unit.fake_count : 0;
    if (work_cache_ == nullptr) {
      for (uint32_t cid : unit.cell_ids) to_derive += c_tuple[cid];
    }
    if (scratch->derived.size() < to_derive) {
      scratch->derived.resize(to_derive);
    }
    Bytes* out = scratch->derived.data();
    for (uint32_t cid : unit.cell_ids) {
      const uint32_t count = c_tuple[cid];
      if (work_cache_ != nullptr) {
        std::shared_ptr<const std::vector<Bytes>> cell =
            work_cache_->cell_trapdoors.GetOrCompute(
                CellKey(state.epoch_id(), unit.key_version, cid),
                [&] { return CellTrapdoors(*det, cid, count, scratch); });
        trapdoors.insert(trapdoors.end(), cell->begin(), cell->end());
        scratch->borrowed.push_back(std::move(cell));
        continue;
      }
      if (count == 0) continue;
      StageIndexPlains(scratch, cid, count, CellCounter);
      det->EncryptBatch(scratch->plain_views.data(), count, out);
      trapdoors.insert(trapdoors.end(), out, out + count);
      out += count;
    }
    // Fakes degrade gracefully when no pool is provisioned (fake_pool == 0:
    // issue none), matching the per-item loop this batch replaced.
    if (fakes) {
      StageIndexPlains(scratch, kFakeCellId, unit.fake_count, [&](size_t j) {
        const uint64_t fid = unit.fake_lo + j;
        return unit.cycle_fakes ? (fid - 1) % fake_pool + 1 : fid;
      });
      det->EncryptBatch(scratch->plain_views.data(), unit.fake_count, out);
      trapdoors.insert(trapdoors.end(), out, out + unit.fake_count);
    }
    return Status::OK();
  }

  // Oblivious Step 3 (§4.3): generate the same number of trapdoor slots for
  // every unit of the plan — #C_max x #max real slots plus #f_max fake
  // slots — flag valid ones branchlessly, obliviously sort by the flag, and
  // send only the valid prefix. A shape that does not cover its unit would
  // silently drop trapdoors, so fail closed.
  const uint32_t slots_cids = unit.slots_cids;
  const uint32_t slots_counters = unit.slots_counters;
  const uint32_t slots_fakes = unit.slots_fakes;
  bool covered = unit.cell_ids.size() <= slots_cids &&
                 unit.fake_count <= slots_fakes;
  for (uint32_t cid : unit.cell_ids) {
    covered = covered && c_tuple[cid] <= slots_counters;
  }
  if (!covered) {
    return Status::Internal("oblivious slot shape does not cover its unit");
  }

  std::vector<SortRecord> slots;
  slots.reserve(uint64_t{slots_cids} * slots_counters + slots_fakes);
  uint64_t valid = 0;
  const size_t td_len = det->Encrypt(IndexPlain(0, 1)).size();
  for (uint32_t ci = 0; ci < slots_cids; ++ci) {
    const bool have_cid = ci < unit.cell_ids.size();
    // For absent cid slots encrypt a dummy plaintext — the work done per
    // slot is identical either way.
    const uint32_t cid = have_cid ? unit.cell_ids[ci] : kFakeCellId - 1;
    const uint32_t limit = have_cid ? c_tuple[cid] : 0;
    for (uint32_t j = 1; j <= slots_counters; ++j) {
      SortRecord rec;
      rec.payload = det->Encrypt(IndexPlain(cid, j));
      rec.payload.resize(td_len, 0);
      const uint64_t v = OMove(OGreater(j, limit), 0, 1);  // j<=limit -> 1.
      rec.key = v;
      valid += v;
      slots.push_back(std::move(rec));
    }
  }
  for (uint32_t j = 1; j <= slots_fakes; ++j) {
    uint64_t fid = unit.fake_lo + j - 1;
    if (unit.cycle_fakes && fake_pool > 0) fid = (fid - 1) % fake_pool + 1;
    SortRecord rec;
    rec.payload = det->Encrypt(IndexPlain(kFakeCellId, fid));
    rec.payload.resize(td_len, 0);
    const uint64_t in_range = OMove(OGreater(j, unit.fake_count), 0, 1);
    const uint64_t have_pool = fake_pool > 0 ? 1 : 0;
    rec.key = in_range & have_pool;
    valid += rec.key;
    slots.push_back(std::move(rec));
  }
  ObliviousPartitionByFlag(&slots);

  // The partition is stable and the planner's slot shapes cover every
  // listed cell-id's count, so the valid prefix is the plain trapdoor list
  // in the plain order.
  if (scratch->derived.size() < valid) scratch->derived.resize(valid);
  for (uint64_t i = 0; i < valid; ++i) {
    scratch->derived[i] = std::move(slots[i].payload);
    trapdoors.push_back(Slice(scratch->derived[i]));
  }
  return Status::OK();
}

StatusOr<FetchedUnit> QueryExecutor::Fetch(const EpochState& state,
                                           const FetchUnit& unit,
                                           bool oblivious,
                                           UnitScratch* scratch) const {
  UnitScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  CONCEALER_RETURN_IF_ERROR(MakeTrapdoors(state, unit, oblivious, scratch));
  const std::vector<Slice>& trapdoors = scratch->trapdoors;

  FetchedUnit fetched;
  fetched.trapdoors_issued = trapdoors.size();
  fetched.key_version = unit.key_version;

  // Zero-copy fetch: borrow the matched rows from the store instead of
  // copying each one (see FetchedUnit's borrow rules).
  std::vector<RowRef>& refs = scratch->refs;
  refs.clear();
  CONCEALER_RETURN_IF_ERROR(
      table_->FetchRefs(trapdoors.data(), trapdoors.size(), &refs));
  fetched.rows.reserve(refs.size());
  fetched.row_ids.reserve(refs.size());
  for (const RowRef& ref : refs) {
    fetched.row_ids.push_back(ref.row_id);
    // Checked borrow handoff: asserts (debug builds) that the store has not
    // invalidated the ref between fetch and use.
    fetched.rows.push_back(ref.get());
  }

  // Align rows back to cell-ids for verification. Both modes issue each
  // listed cell-id's real trapdoors cell-major in counter order, so a ref's
  // probe position names its cell and counter; the row aligns only if its
  // Index column is that trapdoor's bytes, so a damaged row fails its
  // cell's count alone. Refs come back in probe order: one cursor suffices.
  const auto& c_tuple = state.layout().count_per_cell_id;
  const RowPrefetcher prefetch(
      fetched.rows.size(), [&](size_t i) { return fetched.rows[i]; },
      {kColIndex});
  size_t r = 0;
  size_t cell_end = 0;
  for (uint32_t cid : unit.cell_ids) {
    // The map entry must exist even for empty cells: Verify walks every
    // entry and checks the expected count (0 included).
    std::vector<size_t>& list = fetched.real_row_of_cid[cid];
    cell_end += c_tuple[cid];
    for (; r < refs.size() && refs[r].probe < cell_end; ++r) {
      prefetch.Ahead(r);
      if (Slice(fetched.rows[r]->columns[kColIndex]) ==
          trapdoors[refs[r].probe]) {
        list.push_back(r);
      }
    }
  }
  scratch->borrowed.clear();
  return fetched;
}

Status QueryExecutor::Verify(const EpochState& state,
                             const FetchedUnit& fetched) const {
  // Re-encrypted units carry enclave-updated tags keyed by (cid, version);
  // version 0 tags come from DP. A missing tag for a non-empty cid means
  // the adversary dropped the whole cell-id — also corruption.
  //
  // The chains read each row's El, Eo and Er once, cell by cell in counter
  // order; the prefetch runs ahead along that order across cell
  // boundaries.
  std::vector<const Row*> chain_order;
  for (const auto& [cid, row_idxs] : fetched.real_row_of_cid) {
    for (size_t idx : row_idxs) chain_order.push_back(fetched.rows[idx]);
  }
  const RowPrefetcher prefetch(
      chain_order.size(), [&](size_t i) { return chain_order[i]; },
      {kColEl, kColEo, kColEr});
  size_t pos = 0;
  for (const auto& [cid, row_idxs] : fetched.real_row_of_cid) {
    const uint32_t expected = state.layout().count_per_cell_id[cid];
    if (row_idxs.size() != expected) {
      return Status::Corruption("cell-id " + std::to_string(cid) +
                                " returned " +
                                std::to_string(row_idxs.size()) + " of " +
                                std::to_string(expected) + " rows");
    }
    if (expected == 0) continue;
    auto tag_it = state.tags().find(cid);
    if (tag_it == state.tags().end()) {
      return Status::Corruption("no verifiable tag for cell-id " +
                                std::to_string(cid));
    }
    ChainTags got{};
    bool started = false;
    for (size_t k = 0; k < row_idxs.size(); ++k, ++pos) {
      prefetch.Ahead(pos);
      ChainStepRow(*chain_order[pos], started, &got);
      started = true;
    }
    const ChainTags& tags = tag_it->second;
    if (!ConstantTimeEqual(Slice(got.el.data(), got.el.size()),
                           Slice(tags.el.data(), tags.el.size())) ||
        !ConstantTimeEqual(Slice(got.eo.data(), got.eo.size()),
                           Slice(tags.eo.data(), tags.eo.size())) ||
        !ConstantTimeEqual(Slice(got.er.data(), got.er.size()),
                           Slice(tags.er.data(), tags.er.size()))) {
      return Status::Corruption("hash chain mismatch for cell-id " +
                                std::to_string(cid));
    }
  }
  return Status::OK();
}

StatusOr<QueryExecutor::FilterSet> QueryExecutor::BuildFilterSet(
    const EpochState& state, const Query& query, uint64_t key_version) const {
  StatusOr<DetCipher> det =
      enclave_->EpochDetCipher(state.epoch_id(), key_version);
  if (!det.ok()) return det.status();

  FilterSet filters;
  const std::vector<uint64_t> times = QuantizedTimes(state, config_, query);

  // Q4 matches on the observation column alone; every other aggregate
  // constrains the key column (and optionally the observation).
  filters.use_el = query.agg != Aggregate::kKeysWithObservation;
  filters.use_eo = !query.observation.empty();

  std::vector<std::vector<uint64_t>> keys;
  if (filters.use_el) {
    StatusOr<std::vector<std::vector<uint64_t>>> universe =
        KeyUniverse(config_, query);
    if (!universe.ok()) return universe.status();
    keys = std::move(*universe);
  }
  // Every El then Eo filter through one EncryptBatch call (bytes identical
  // to one Encrypt each). `cts` is never resized after this, so the views
  // the lookups key on stay valid.
  std::vector<Bytes> plains;
  plains.reserve(keys.size() * times.size() +
                 (filters.use_eo ? times.size() : 0));
  for (const auto& kv : keys) {
    for (uint64_t t : times) plains.push_back(KeyTimePlain(kv, t));
  }
  if (filters.use_eo) {
    for (uint64_t t : times) {
      plains.push_back(ObsTimePlain(query.observation, t));
    }
  }
  const std::vector<Slice> views(plains.begin(), plains.end());
  filters.cts.resize(views.size());
  det->EncryptBatch(views.data(), views.size(), filters.cts.data());
  size_t i = 0;
  filters.el_index.reserve(keys.size() * times.size());
  for (const auto& kv : keys) {
    for (size_t t = 0; t < times.size(); ++t) {
      const std::string_view ct = View(filters.cts[i++]);
      if (filters.el_index.emplace(ct, filters.el_ordered.size()).second) {
        filters.el_ordered.emplace_back(ct, kv);
      }
    }
  }
  for (; i < filters.cts.size(); ++i) {
    filters.eo_set.insert(View(filters.cts[i]));
  }
  return StatusOr<FilterSet>(std::move(filters));
}

Status QueryExecutor::FilterInto(const EpochState& state, const Query& query,
                                 const FetchedUnit& fetched, bool oblivious,
                                 AggState* agg,
                                 std::unordered_set<std::string>* seen_cells,
                                 FilterCache* filter_cache,
                                 UnitScratch* scratch) const {
  FilterCache local_cache;
  if (filter_cache == nullptr) filter_cache = &local_cache;
  auto it = filter_cache->find(fetched.key_version);
  if (it == filter_cache->end()) {
    StatusOr<FilterSet> built =
        BuildFilterSet(state, query, fetched.key_version);
    if (!built.ok()) return built.status();
    it = filter_cache->emplace(fetched.key_version, std::move(*built)).first;
  }
  UnitScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  MarkFresh(
      fetched,
      [&](uint32_t cid) {
        return seen_cells == nullptr ||
               seen_cells
                   ->insert(CellKey(state.epoch_id(), fetched.key_version, cid))
                   .second;
      },
      &scratch->fresh);
  return MatchInto(state, query, fetched, it->second, oblivious, agg,
                   scratch);
}

Status QueryExecutor::MatchInto(const EpochState& state, const Query& query,
                                const FetchedUnit& fetched,
                                const FilterSet& filters, bool oblivious,
                                AggState* agg, UnitScratch* scratch) const {
  StatusOr<DetCipher> det =
      enclave_->EpochDetCipher(state.epoch_id(), fetched.key_version);
  if (!det.ok()) return det.status();

  agg->rows_fetched += fetched.rows.size();

  const bool needs_value = query.agg == Aggregate::kSum ||
                           query.agg == Aggregate::kMin ||
                           query.agg == Aggregate::kMax;
  const bool q4 = query.agg == Aggregate::kKeysWithObservation;
  const std::vector<uint64_t>& fresh = scratch->fresh;

  // Value aggregates absorb decrypted tuples; the decryption itself runs
  // batched (one enclave "transition" worth of rows per DecryptBatch call)
  // over ciphertext views staged during the match scan. sum/min/max and the
  // group-count map are order-insensitive, so batching changes no answer
  // byte relative to the seed's decrypt-per-row loop.
  auto absorb_tuple = [&](const PlainTuple& tuple) -> Status {
    const uint64_t v = PayloadValue(tuple);
    agg->sum += v;
    agg->min = std::min(agg->min, v);
    agg->max = std::max(agg->max, v);
    if (q4 || !oblivious) agg->group_counts[tuple.keys] += 1;
    return Status::OK();
  };

  if (!oblivious) {
    // Lookups hash views of the stored columns: no per-row allocation.
    // The prefetch runs ahead over the rows the scan reads (the fresh ones)
    // and the columns it looks up: El (Eo alone for Q4), then Eo when the
    // query filters on it.
    const size_t n = fetched.rows.size();
    const auto fresh_row = [&](size_t i) {
      return fresh[i] == 0 ? nullptr : fetched.rows[i];
    };
    const RowPrefetcher prefetch =
        q4 || !filters.use_eo
            ? RowPrefetcher(n, fresh_row, {q4 ? kColEo : kColEl})
            : RowPrefetcher(n, fresh_row, {kColEl, kColEo});
    scratch->ct_views.clear();
    for (size_t i = 0; i < n; ++i) {
      prefetch.Ahead(i);
      if (fresh[i] == 0) continue;
      const Row& row = *fetched.rows[i];
      const std::vector<uint64_t>* key_coords = nullptr;
      if (q4) {
        if (filters.eo_set.count(View(row.columns[kColEo])) == 0) continue;
      } else {
        auto it = filters.el_index.find(View(row.columns[kColEl]));
        if (it == filters.el_index.end()) continue;
        if (filters.use_eo &&
            filters.eo_set.count(View(row.columns[kColEo])) == 0) {
          continue;
        }
        key_coords = &filters.el_ordered[it->second].second;
      }
      ++agg->rows_matched;
      ++agg->count;
      if (needs_value || q4) {
        scratch->ct_views.push_back(Slice(row.columns[kColEr]));
      } else {
        agg->group_counts[*key_coords] += 1;
      }
    }
    if (needs_value || q4) {
      CONCEALER_RETURN_IF_ERROR(
          DecryptAndAbsorb(*det, scratch, absorb_tuple));
    }
    return Status::OK();
  }

  // Oblivious Step 4 (§4.3): every row is compared against every filter
  // with branchless flag updates — a row another unit owns only has its
  // fresh flag zeroed; per-filter counters accumulate the grouped counts;
  // rows are then obliviously partitioned by the match flag and only the
  // matched prefix is decrypted (when decryption is needed).
  const size_t n = fetched.rows.size();
  std::vector<uint64_t> flags(n, 0);
  std::vector<uint64_t> filter_hits(filters.el_ordered.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const Row& row = *fetched.rows[i];
    const Slice el(row.columns[kColEl]);
    const Slice eo(row.columns[kColEo]);
    uint64_t eo_ok = filters.use_eo ? 0 : 1;
    for (std::string_view f : filters.eo_set) {
      const uint64_t eq =
          ConstantTimeEqual(eo, Slice(f.data(), f.size())) ? 1 : 0;
      eo_ok = OMove(eq, 1, eo_ok);
    }
    if (q4) {
      flags[i] = (filters.use_eo ? eo_ok : 0) & fresh[i];
      continue;
    }
    uint64_t el_hit = 0;
    for (size_t fi = 0; fi < filters.el_ordered.size(); ++fi) {
      const std::string_view f = filters.el_ordered[fi].first;
      const uint64_t eq =
          ConstantTimeEqual(el, Slice(f.data(), f.size())) ? 1 : 0;
      const uint64_t hit = eq & eo_ok & fresh[i];
      el_hit = OMove(hit, 1, el_hit);
      filter_hits[fi] += hit;
    }
    flags[i] = el_hit;
  }

  uint64_t matched = 0;
  for (uint64_t f : flags) matched += f;
  agg->rows_matched += matched;
  agg->count += matched;
  if (!q4) {
    for (size_t fi = 0; fi < filters.el_ordered.size(); ++fi) {
      if (filter_hits[fi] > 0) {
        agg->group_counts[filters.el_ordered[fi].second] += filter_hits[fi];
      }
    }
  }

  if (needs_value || q4) {
    // Oblivious partition by flag, then batch-decrypt the matched prefix
    // (one DecryptBatch per kDecryptChunk rows instead of one enclave
    // decrypt per row).
    size_t max_len = 1;
    for (const Row* row : fetched.rows) {
      max_len = std::max(max_len, row->columns[kColEr].size());
    }
    std::vector<SortRecord> recs(n);
    for (size_t i = 0; i < n; ++i) {
      recs[i].key = flags[i];
      Bytes payload;
      PutFixed32(&payload, static_cast<uint32_t>(
                               fetched.rows[i]->columns[kColEr].size()));
      PutBytes(&payload, fetched.rows[i]->columns[kColEr]);
      payload.resize(4 + max_len, 0);
      recs[i].payload = std::move(payload);
    }
    ObliviousPartitionByFlag(&recs);
    scratch->ct_views.clear();
    for (uint64_t i = 0; i < matched; ++i) {
      const uint32_t len = DecodeFixed32(recs[i].payload.data());
      scratch->ct_views.push_back(Slice(recs[i].payload.data() + 4, len));
    }
    CONCEALER_RETURN_IF_ERROR(DecryptAndAbsorb(*det, scratch, absorb_tuple));
  }
  return Status::OK();
}

void QueryExecutor::AggState::Merge(const AggState& other) {
  count += other.count;
  for (const auto& [keys, c] : other.group_counts) group_counts[keys] += c;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  rows_fetched += other.rows_fetched;
  rows_matched += other.rows_matched;
  any_verified = any_verified || other.any_verified;
}

Status QueryExecutor::ExecuteUnitsParallel(const EpochState& state,
                                           const Query& query,
                                           const std::vector<FetchUnit>& units,
                                           ThreadPool* pool,
                                           AggState* agg) const {
  const size_t n = units.size();
  if (n == 0) return Status::OK();

  // Settled before the fan-out and read-only during it: one FilterSet per
  // key version, and the owner of each (cell-id, key version) — the first
  // unit in plan order that lists it. A unit fetches every counter of each
  // cell it lists, so counting a cell's rows only in its owner counts each
  // row once, as FilterInto's `seen_cells` does in unit order.
  std::map<uint64_t, StatusOr<FilterSet>> filters;
  std::unordered_map<std::string, size_t> owner;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t version = units[i].key_version;
    if (filters.count(version) == 0) {
      filters.emplace(version, BuildFilterSet(state, query, version));
    }
    for (uint32_t cid : units[i].cell_ids) {
      owner.emplace(CellKey(state.epoch_id(), version, cid), i);
    }
  }

  // One task per unit: it writes only its own AggState and status, and
  // its worker slot's scratch (each slot is driven by one thread at a
  // time, per the ParallelFor contract).
  std::vector<AggState> partial(n);
  std::vector<Status> status(n);
  std::vector<UnitScratch> slots(pool == nullptr ? 1 : pool->num_threads());
  auto run_unit = [&](size_t i, UnitScratch* scratch) -> Status {
    const FetchUnit& unit = units[i];
    StatusOr<FetchedUnit> fetched =
        Fetch(state, unit, query.oblivious, scratch);
    if (!fetched.ok()) return fetched.status();
    if (query.verify) {
      CONCEALER_RETURN_IF_ERROR(Verify(state, *fetched));
      partial[i].any_verified = true;
    }
    const StatusOr<FilterSet>& unit_filters = filters.at(unit.key_version);
    if (!unit_filters.ok()) return unit_filters.status();
    const auto owns = [&](uint32_t cid) {
      return owner.at(CellKey(state.epoch_id(), unit.key_version, cid)) == i;
    };
    MarkFresh(*fetched, owns, &scratch->fresh);
    return MatchInto(state, query, *fetched, *unit_filters, query.oblivious,
                     &partial[i], scratch);
  };
  auto run = [&](size_t i, size_t worker) {
    status[i] = run_unit(i, &slots[worker]);
  };
  if (pool == nullptr || n == 1) {
    for (size_t i = 0; i < n && (i == 0 || status[i - 1].ok()); ++i) run(i, 0);
  } else {
    pool->ParallelFor(n, run);
  }

  // Fold in unit order; the first failing unit's error surfaces.
  for (size_t i = 0; i < n; ++i) {
    CONCEALER_RETURN_IF_ERROR(status[i]);
    agg->Merge(partial[i]);
  }
  return Status::OK();
}

QueryResult QueryExecutor::Finalize(const Query& query, const AggState& agg) {
  QueryResult result;
  result.rows_fetched = agg.rows_fetched;
  result.rows_matched = agg.rows_matched;
  result.verified = agg.any_verified;
  switch (query.agg) {
    case Aggregate::kCount:
      result.count = agg.count;
      break;
    case Aggregate::kSum:
      result.count = agg.sum;
      break;
    case Aggregate::kMin:
      result.count = agg.rows_matched == 0 ? 0 : agg.min;
      break;
    case Aggregate::kMax:
      result.count = agg.rows_matched == 0 ? 0 : agg.max;
      break;
    case Aggregate::kTopK: {
      std::vector<std::pair<std::vector<uint64_t>, uint64_t>> all(
          agg.group_counts.begin(), agg.group_counts.end());
      std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
      });
      if (all.size() > query.k) all.resize(query.k);
      result.keyed_counts = std::move(all);
      result.count = agg.count;
      break;
    }
    case Aggregate::kThresholdKeys: {
      for (const auto& [keys, count] : agg.group_counts) {
        if (count >= query.threshold) {
          result.keyed_counts.emplace_back(keys, count);
        }
      }
      result.count = agg.count;
      break;
    }
    case Aggregate::kKeysWithObservation: {
      for (const auto& [keys, count] : agg.group_counts) {
        result.keyed_counts.emplace_back(keys, count);
      }
      result.count = agg.count;
      break;
    }
  }
  return result;
}

}  // namespace concealer
