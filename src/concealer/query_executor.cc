#include "concealer/query_executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/coding.h"
#include "concealer/wire.h"
#include "crypto/det_cipher.h"
#include "crypto/hmac.h"
#include "enclave/oblivious.h"

namespace concealer {

namespace {

std::string ToStringKey(Slice b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// Stages `count` Index(cid, ctr) plaintexts (ctr = first..first+count-1) in
// scratch->plain_bufs / plain_views, ready for one DetCipher::EncryptBatch
// call. The buffers are worker-slot scratch, so the per-trapdoor plaintext
// assembly allocates only until the high-water mark is reached.
void StageIndexPlains(QueryExecutor::UnitScratch* scratch, uint32_t cid,
                      uint64_t first, size_t count) {
  if (scratch->plain_bufs.size() < count) scratch->plain_bufs.resize(count);
  scratch->plain_views.resize(count);
  for (size_t i = 0; i < count; ++i) {
    IndexPlainTo(&scratch->plain_bufs[i], cid, first + i);
    scratch->plain_views[i] = Slice(scratch->plain_bufs[i]);
  }
}

// One cell-id's real trapdoors E_k(cid‖1..count), in counter order — the
// unit of work the EnclaveWorkCache memoizes. Derived through the multi-lane
// EncryptBatch pipeline; DET is deterministic, so the bytes are identical to
// the serial per-counter loop.
std::vector<Bytes> CellTrapdoors(const DetCipher& det, uint32_t cid,
                                 uint32_t count,
                                 QueryExecutor::UnitScratch* scratch) {
  std::vector<Bytes> tds(count);
  if (count == 0) return tds;
  StageIndexPlains(scratch, cid, 1, count);
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

// Cache key for one cell-id's trapdoor list (EnclaveWorkCache).
std::string TrapdoorCacheKey(uint64_t epoch_id, uint64_t key_version,
                             uint32_t cell_id) {
  Bytes key;
  PutFixed64(&key, epoch_id);
  PutFixed64(&key, key_version);
  PutFixed32(&key, cell_id);
  return ToStringKey(key);
}

// E_k of every plaintext through one EncryptBatch call: a query's filter
// ciphertexts get their synthetic IVs from the multi-lane CMAC pipeline
// together. Bytes identical to one Encrypt per plaintext.
std::vector<Bytes> EncryptAll(const DetCipher& det,
                              const std::vector<Bytes>& plains) {
  const std::vector<Slice> views(plains.begin(), plains.end());
  std::vector<Bytes> cts(plains.size());
  det.EncryptBatch(views.data(), views.size(), cts.data());
  return cts;
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

StatusOr<std::vector<Bytes>> QueryExecutor::MakeTrapdoors(
    const EpochState& state, const FetchUnit& unit, bool oblivious,
    uint64_t* issued, UnitScratch* scratch) const {
  StatusOr<DetCipher> det =
      enclave_->EpochDetCipher(state.epoch_id(), unit.key_version);
  if (!det.ok()) return det.status();

  const auto& c_tuple = state.layout().count_per_cell_id;
  const uint64_t fake_pool = state.num_fake_tuples();

  if (!oblivious) {
    // Plain Step 3: one trapdoor per (cid, counter) plus the fake range.
    // With a work cache attached, each cell-id's trapdoor list is computed
    // once per (epoch, key version) and reused by every later query that
    // touches the cell — the issued bytes (and their order) are identical
    // either way, since DET encryption is deterministic.
    std::vector<Bytes> trapdoors;
    for (uint32_t cid : unit.cell_ids) {
      if (cid >= c_tuple.size()) {
        return Status::InvalidArgument("cell-id out of range");
      }
      if (work_cache_ != nullptr) {
        std::shared_ptr<const std::vector<Bytes>> cell =
            work_cache_->cell_trapdoors.GetOrCompute(
                TrapdoorCacheKey(state.epoch_id(), unit.key_version, cid),
                [&] {
                  return CellTrapdoors(*det, cid, c_tuple[cid], scratch);
                });
        trapdoors.insert(trapdoors.end(), cell->begin(), cell->end());
        continue;
      }
      const uint32_t count = c_tuple[cid];
      if (count == 0) continue;
      const size_t base = trapdoors.size();
      trapdoors.resize(base + count);
      StageIndexPlains(scratch, cid, 1, count);
      det->EncryptBatch(scratch->plain_views.data(), count, &trapdoors[base]);
    }
    // Fakes degrade gracefully when no pool is provisioned (fake_pool == 0:
    // issue none), matching the per-item loop this batch replaced.
    if (fake_pool > 0 && unit.fake_count > 0) {
      const size_t count = unit.fake_count;
      const size_t base = trapdoors.size();
      trapdoors.resize(base + count);
      if (scratch->plain_bufs.size() < count) {
        scratch->plain_bufs.resize(count);
      }
      scratch->plain_views.resize(count);
      for (size_t j = 0; j < count; ++j) {
        uint64_t fid = unit.fake_lo + j;
        if (unit.cycle_fakes) fid = (fid - 1) % fake_pool + 1;
        IndexPlainTo(&scratch->plain_bufs[j], kFakeCellId, fid);
        scratch->plain_views[j] = Slice(scratch->plain_bufs[j]);
      }
      det->EncryptBatch(scratch->plain_views.data(), count, &trapdoors[base]);
    }
    *issued = trapdoors.size();
    return trapdoors;
  }

  // Oblivious Step 3 (§4.3): generate the same number of trapdoor slots for
  // every unit of the plan — #C_max x #max real slots plus #f_max fake
  // slots — flag valid ones branchlessly, obliviously sort by the flag, and
  // send only the valid prefix.
  uint32_t slots_cids = unit.slots_cids;
  uint32_t slots_counters = unit.slots_counters;
  uint32_t slots_fakes = unit.slots_fakes;
  if (slots_cids == 0) slots_cids = static_cast<uint32_t>(unit.cell_ids.size());
  if (slots_counters == 0) {
    for (uint32_t cid : unit.cell_ids) {
      slots_counters = std::max(slots_counters, c_tuple[cid]);
    }
    slots_counters = std::max<uint32_t>(slots_counters, 1);
  }
  if (slots_fakes == 0) {
    slots_fakes = static_cast<uint32_t>(unit.fake_count);
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

  std::vector<Bytes> trapdoors;
  trapdoors.reserve(valid);
  for (uint64_t i = 0; i < valid; ++i) {
    trapdoors.push_back(std::move(slots[i].payload));
  }
  *issued = trapdoors.size();
  return trapdoors;
}

StatusOr<FetchedUnit> QueryExecutor::FetchWithIds(
    const EpochState& state, const FetchUnit& unit, bool oblivious,
    std::vector<uint64_t>* row_ids, UnitScratch* scratch) const {
  UnitScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;

  uint64_t issued = 0;
  StatusOr<std::vector<Bytes>> trapdoors =
      MakeTrapdoors(state, unit, oblivious, &issued, scratch);
  if (!trapdoors.ok()) return trapdoors.status();

  FetchedUnit fetched;
  fetched.trapdoors_issued = issued;
  fetched.key_version = unit.key_version;

  // Zero-copy fetch: borrow the matched rows from the store instead of
  // copying each one (see FetchedUnit's borrow rules).
  std::vector<RowRef> refs;
  CONCEALER_RETURN_IF_ERROR(table_->FetchRefs(*trapdoors, &refs));
  fetched.rows.reserve(refs.size());
  if (row_ids != nullptr) row_ids->reserve(refs.size());
  for (const RowRef& ref : refs) {
    if (row_ids != nullptr) row_ids->push_back(ref.row_id);
    // Checked borrow handoff: asserts (debug builds) that the store has not
    // invalidated the ref between fetch and use.
    fetched.rows.push_back(ref.get());
  }

  // Align rows back to cell-ids for verification: a row's Index column is
  // byte-identical to the trapdoor that fetched it. The map is per-worker
  // scratch — cleared here, its buckets reused across units.
  std::unordered_map<std::string, size_t>& by_index = scratch->by_index;
  by_index.clear();
  by_index.reserve(fetched.rows.size());
  for (size_t i = 0; i < fetched.rows.size(); ++i) {
    by_index.emplace(ToStringKey(fetched.rows[i]->columns[kColIndex]), i);
  }
  const auto& c_tuple = state.layout().count_per_cell_id;
  if (!oblivious) {
    // Plain Step 3 laid `trapdoors` out cell-major in counter order (reals
    // first, fakes after), so the alignment probes are direct slices of the
    // vector just issued — no repeated DET work, cached or not.
    size_t offset = 0;
    for (uint32_t cid : unit.cell_ids) {
      auto& list = fetched.real_row_of_cid[cid];
      for (uint32_t ctr = 0; ctr < c_tuple[cid]; ++ctr) {
        auto it = by_index.find(ToStringKey((*trapdoors)[offset + ctr]));
        if (it != by_index.end()) list.push_back(it->second);
      }
      offset += c_tuple[cid];
    }
    return fetched;
  }
  // Oblivious Step 3 reorders its slots, so recompute the per-cell probes.
  StatusOr<DetCipher> det =
      enclave_->EpochDetCipher(state.epoch_id(), unit.key_version);
  if (!det.ok()) return det.status();
  for (uint32_t cid : unit.cell_ids) {
    // The map entry must exist even for empty cells: Verify walks every
    // entry and checks the expected count (0 included).
    auto& list = fetched.real_row_of_cid[cid];
    const uint32_t count = c_tuple[cid];
    if (count == 0) continue;
    StageIndexPlains(scratch, cid, 1, count);
    if (scratch->td_bufs.size() < count) scratch->td_bufs.resize(count);
    det->EncryptBatch(scratch->plain_views.data(), count,
                      scratch->td_bufs.data());
    for (uint32_t ctr = 0; ctr < count; ++ctr) {
      auto it = by_index.find(ToStringKey(scratch->td_bufs[ctr]));
      if (it != by_index.end()) list.push_back(it->second);
    }
  }
  return fetched;
}

StatusOr<FetchedUnit> QueryExecutor::Fetch(const EpochState& state,
                                           const FetchUnit& unit,
                                           bool oblivious,
                                           UnitScratch* scratch) const {
  return FetchWithIds(state, unit, oblivious, nullptr, scratch);
}

Status QueryExecutor::Verify(const EpochState& state,
                             const FetchedUnit& fetched) const {
  // Re-encrypted units carry enclave-updated tags keyed by (cid, version);
  // version 0 tags come from DP. A missing tag for a non-empty cid means
  // the adversary dropped the whole cell-id — also corruption.
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
    for (size_t idx : row_idxs) {
      ChainStepRow(*fetched.rows[idx], started, &got);
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

  if (filters.use_el) {
    StatusOr<std::vector<std::vector<uint64_t>>> keys =
        KeyUniverse(config_, query);
    if (!keys.ok()) return keys.status();
    std::vector<Bytes> plains;
    for (const auto& kv : *keys) {
      for (uint64_t t : times) plains.push_back(KeyTimePlain(kv, t));
    }
    const std::vector<Bytes> cts = EncryptAll(*det, plains);
    size_t i = 0;
    for (const auto& kv : *keys) {
      for (size_t t = 0; t < times.size(); ++t) {
        std::string sk = ToStringKey(cts[i++]);
        if (filters.el_to_key.emplace(sk, kv).second) {
          filters.el_ordered.emplace_back(std::move(sk), kv);
        }
      }
    }
  }
  if (filters.use_eo) {
    std::vector<Bytes> plains;
    for (uint64_t t : times) {
      plains.push_back(ObsTimePlain(query.observation, t));
    }
    for (const Bytes& ct : EncryptAll(*det, plains)) {
      filters.eo_set.insert(ToStringKey(ct));
    }
  }
  return filters;
}

Status QueryExecutor::FilterInto(const EpochState& state, const Query& query,
                                 const FetchedUnit& fetched, bool oblivious,
                                 AggState* agg,
                                 std::unordered_set<std::string>* seen_rows,
                                 FilterCache* filter_cache,
                                 UnitScratch* scratch) const {
  const FilterSet* filters_ptr = nullptr;
  FilterSet local;
  if (filter_cache != nullptr) {
    auto it = filter_cache->find(fetched.key_version);
    if (it == filter_cache->end()) {
      StatusOr<FilterSet> built =
          BuildFilterSet(state, query, fetched.key_version);
      if (!built.ok()) return built.status();
      it = filter_cache->emplace(fetched.key_version, std::move(*built))
               .first;
    }
    filters_ptr = &it->second;
  } else {
    StatusOr<FilterSet> built =
        BuildFilterSet(state, query, fetched.key_version);
    if (!built.ok()) return built.status();
    local = std::move(*built);
    filters_ptr = &local;
  }
  const FilterSet& filters = *filters_ptr;

  StatusOr<DetCipher> det =
      enclave_->EpochDetCipher(state.epoch_id(), fetched.key_version);
  if (!det.ok()) return det.status();

  agg->rows_fetched += fetched.rows.size();

  const bool needs_value = query.agg == Aggregate::kSum ||
                           query.agg == Aggregate::kMin ||
                           query.agg == Aggregate::kMax;
  const bool q4 = query.agg == Aggregate::kKeysWithObservation;

  UnitScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;

  // Dedup across fetch units: the Index column identifies a row uniquely
  // within a key version (DET over distinct (cid, ctr) plaintexts).
  auto is_fresh = [&](const Row& row) -> bool {
    if (seen_rows == nullptr) return true;
    return seen_rows
        ->insert(ToStringKey(row.columns[kColIndex]) + '#' +
                 std::to_string(fetched.key_version))
        .second;
  };

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
    scratch->ct_views.clear();
    for (const Row* row_ptr : fetched.rows) {
      const Row& row = *row_ptr;
      if (!is_fresh(row)) continue;
      const std::string el = ToStringKey(row.columns[kColEl]);
      const std::string eo = ToStringKey(row.columns[kColEo]);
      const bool eo_ok = !filters.use_eo || filters.eo_set.count(eo) > 0;
      bool matched = false;
      const std::vector<uint64_t>* key_coords = nullptr;
      if (q4) {
        matched = filters.eo_set.count(eo) > 0;
      } else {
        auto it = filters.el_to_key.find(el);
        if (it != filters.el_to_key.end() && eo_ok) {
          matched = true;
          key_coords = &it->second;
        }
      }
      if (!matched) continue;
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

  // Oblivious Step 4 (§4.3): every row is string-matched against every
  // filter with branchless flag updates; per-filter counters accumulate the
  // grouped counts; rows are then obliviously partitioned by the match flag
  // and only the matched prefix is decrypted (when decryption is needed).
  const size_t n = fetched.rows.size();
  std::vector<uint64_t> flags(n, 0);
  std::vector<uint64_t> filter_hits(filters.el_ordered.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const Row& row = *fetched.rows[i];
    const Slice el(row.columns[kColEl]);
    const Slice eo(row.columns[kColEo]);
    const uint64_t fresh = is_fresh(row) ? 1 : 0;
    uint64_t eo_ok = filters.use_eo ? 0 : 1;
    for (const std::string& f : filters.eo_set) {
      const uint64_t eq = ConstantTimeEqual(eo, Slice(f)) ? 1 : 0;
      eo_ok = OMove(eq, 1, eo_ok);
    }
    if (q4) {
      flags[i] = (filters.use_eo ? eo_ok : 0) & fresh;
      continue;
    }
    uint64_t el_hit = 0;
    for (size_t fi = 0; fi < filters.el_ordered.size(); ++fi) {
      const uint64_t eq =
          ConstantTimeEqual(el, Slice(filters.el_ordered[fi].first)) ? 1 : 0;
      const uint64_t hit = eq & eo_ok & fresh;
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

Status QueryExecutor::ExecuteUnitsParallel(
    const EpochState& state, const Query& query,
    const std::vector<FetchUnit>& units, ThreadPool* pool, AggState* agg,
    std::unordered_set<std::string>* seen_rows,
    FilterCache* filter_cache) const {
  const size_t n = units.size();
  if (n == 0) return Status::OK();

  FilterCache local_cache;
  if (filter_cache == nullptr) filter_cache = &local_cache;

  if (pool == nullptr || n == 1) {
    // Serial loop — the reference semantics the parallel path must match.
    // One scratch serves every unit (single thread).
    UnitScratch scratch;
    for (const FetchUnit& unit : units) {
      StatusOr<FetchedUnit> fetched =
          Fetch(state, unit, query.oblivious, &scratch);
      if (!fetched.ok()) return fetched.status();
      if (query.verify) {
        CONCEALER_RETURN_IF_ERROR(Verify(state, *fetched));
        agg->any_verified = true;
      }
      CONCEALER_RETURN_IF_ERROR(FilterInto(state, query, *fetched,
                                           query.oblivious, agg, seen_rows,
                                           filter_cache, &scratch));
    }
    return Status::OK();
  }

  // Distinct key versions whose FilterSets are not cached yet: build them on
  // the pool alongside the fetches instead of lazily on the merge path.
  std::vector<uint64_t> versions;
  for (const FetchUnit& unit : units) {
    if (filter_cache->count(unit.key_version) == 0 &&
        std::find(versions.begin(), versions.end(), unit.key_version) ==
            versions.end()) {
      versions.push_back(unit.key_version);
    }
  }

  // Fan out: tasks [0, n) fetch (and optionally verify) one unit each;
  // tasks [n, n+versions) each build one FilterSet. All tasks touch only
  // their own output slot, their worker slot's scratch, the const
  // table/enclave, and `state` read-only. Scratch is per worker slot — each
  // slot is driven by one thread at a time (ParallelFor contract), so the
  // reused crypto buffers never race.
  std::vector<StatusOr<FetchedUnit>> fetched(
      n, StatusOr<FetchedUnit>(Status::Internal("unit not fetched")));
  std::vector<Status> verify_status(n);
  std::vector<StatusOr<FilterSet>> filters(
      versions.size(), StatusOr<FilterSet>(Status::Internal("not built")));
  std::vector<UnitScratch> scratch(pool->num_threads());
  pool->ParallelFor(n + versions.size(), [&](size_t i, size_t worker) {
    if (i < n) {
      fetched[i] = Fetch(state, units[i], query.oblivious, &scratch[worker]);
      if (query.verify && fetched[i].ok()) {
        verify_status[i] = Verify(state, *fetched[i]);
      }
    } else {
      filters[i - n] = BuildFilterSet(state, query, versions[i - n]);
    }
  });

  // Serial merge in unit order: cross-unit dedup (`seen_rows`) and the
  // aggregation state evolve exactly as in the serial loop above. Errors
  // surface in the same order too — a unit's fetch/verify error first, then
  // a filter-build error at the first unit needing that key version (where
  // the serial path's lazy build would have hit it). The merge runs on the
  // calling thread, whose worker slot is 0 — its scratch is free again.
  UnitScratch& merge_scratch = scratch[0];
  for (size_t i = 0; i < n; ++i) {
    if (!fetched[i].ok()) return fetched[i].status();
    if (query.verify) {
      CONCEALER_RETURN_IF_ERROR(verify_status[i]);
      agg->any_verified = true;
    }
    if (filter_cache->count(units[i].key_version) == 0) {
      const size_t vi =
          std::find(versions.begin(), versions.end(), units[i].key_version) -
          versions.begin();
      if (!filters[vi].ok()) return filters[vi].status();
      filter_cache->emplace(versions[vi], std::move(*filters[vi]));
    }
    CONCEALER_RETURN_IF_ERROR(FilterInto(state, query, *fetched[i],
                                         query.oblivious, agg, seen_rows,
                                         filter_cache, &merge_scratch));
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
