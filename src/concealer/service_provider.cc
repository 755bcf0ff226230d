#include "concealer/service_provider.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

#include "concealer/epoch_io.h"
#include "concealer/result_seal.h"
#include "concealer/super_bins.h"
#include "concealer/wire.h"
#include "crypto/det_cipher.h"
#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"

namespace concealer {

namespace {

std::string DynamicWalPath(const std::string& dir) {
  return dir + "/dynamic.wal";
}

std::string EpochMetaPath(const std::string& dir, uint64_t epoch_id) {
  char name[40];
  std::snprintf(name, sizeof(name), "epoch-%020llu.meta",
                static_cast<unsigned long long>(epoch_id));
  return dir + "/" + name;
}

}  // namespace

ServiceProvider::ServiceProvider(ConcealerConfig config, Bytes sk,
                                 StorageOptions storage,
                                 std::unique_ptr<StorageEngine> engine)
    : config_(config),
      enclave_(std::move(sk)),
      storage_options_(std::move(storage)),
      table_("concealer", kNumRowColumns, kColIndex, std::move(engine)),
      executor_(&enclave_, &table_, config_),
      planner_(config_),
      rng_(0xc0ffee) {
  persistent_ = table_.engine()->persistent();
  if (persistent_) {
    // Open never fails (it only stats the file); the log is created on the
    // first dynamic append.
    StatusOr<std::unique_ptr<DynamicWal>> wal =
        DynamicWal::Open(DynamicWalPath(storage_options_.dir));
    if (wal.ok()) wal_ = std::move(*wal);
  }
}

StatusOr<std::unique_ptr<ServiceProvider>> ServiceProvider::Open(
    ConcealerConfig config, Bytes sk, const StorageOptions& storage,
    ThreadPool* pool) {
  StatusOr<std::unique_ptr<StorageEngine>> engine =
      MakeStorageEngine(storage, pool);
  if (!engine.ok()) return engine.status();
  std::unique_ptr<ServiceProvider> provider(new ServiceProvider(
      std::move(config), std::move(sk), storage, std::move(*engine)));
  // An ephemeral directory (empty dir) starts empty: nothing to recover.
  if (provider->persistent_) CONCEALER_RETURN_IF_ERROR(provider->Recover());
  return provider;
}

Status ServiceProvider::Recover() {
  // Re-adopt every persisted epoch: the meta file carries the encrypted
  // enclave blobs (layout, tags, checkpointed dynamic state) plus the row
  // span and segment range; the rows themselves were already recovered by
  // the engine's segment scan.
  std::vector<std::string> meta_files;
  DIR* d = ::opendir(storage_options_.dir.c_str());
  if (d == nullptr) {
    return Status::Internal("cannot open storage dir: " +
                            storage_options_.dir);
  }
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() > 11 && name.compare(0, 6, "epoch-") == 0 &&
        name.compare(name.size() - 5, 5, ".meta") == 0) {
      meta_files.push_back(storage_options_.dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(meta_files.begin(), meta_files.end());
  for (const std::string& path : meta_files) {
    StatusOr<EpochMeta> meta = ReadEpochMetaFile(path);
    if (!meta.ok()) return meta.status();
    // The frame checksum does not vouch for these fields: the host can
    // re-frame a tampered meta. Check the span without wraparound and the
    // segment range against the recovered segments, so a bad meta fails
    // here instead of later, in a query.
    if (meta->num_rows > table_.num_rows() ||
        meta->first_row_id > table_.num_rows() - meta->num_rows) {
      return Status::Corruption("epoch meta row span exceeds recovered rows: " +
                                path);
    }
    if (meta->num_rows > 0 &&
        (meta->seg_lo > meta->seg_hi ||
         meta->seg_hi >= table_.engine()->NumSegments())) {
      return Status::Corruption(
          "epoch meta segment range exceeds recovered segments: " + path);
    }
    StatusOr<EpochState> state =
        EpochState::CreateFromMeta(enclave_, config_, *meta);
    if (!state.ok()) return state.status();
    const uint64_t eid = meta->epoch.epoch_id;
    if (!epochs_.emplace(eid, std::move(*state)).second) {
      return Status::Corruption("duplicate epoch meta: " + path);
    }
    if (meta->num_rows > 0) {
      epoch_segments_[eid] = {meta->seg_lo, meta->seg_hi};
    }
  }
  // Dynamic-mode WAL: re-apply whatever the metas have not absorbed yet.
  // Must run before the index recovery below — replayed rewrites change
  // row bytes, and the index has to be rebuilt over the final bytes.
  CONCEALER_RETURN_IF_ERROR(ReplayWal());
  if (table_.num_rows() > 0) {
    CONCEALER_RETURN_IF_ERROR(table_.RecoverIndex());
    // The recovered index covers every current row, so the geometric
    // persist schedule in IngestEpoch resumes from here — without this,
    // the first ingest after every restart would rewrite the node file.
    node_file_rows_ = table_.num_rows();
  }
  return Status::OK();
}

Status ServiceProvider::ReplayWal() {
  if (wal_ == nullptr) return Status::OK();
  StatusOr<std::vector<Bytes>> bodies = wal_->ReadAll();
  if (!bodies.ok()) return bodies.status();
  if (bodies->empty()) return Status::OK();

  // Two-phase replay: validate and decrypt EVERY record before applying
  // anything, so a corrupt log never leaves a partially bumped key version
  // behind (fail closed — the fuzz tests hold this line).
  struct Pending {
    WalRecord record;
    TagUpdate update;
  };
  std::vector<Pending> pending;
  pending.reserve(bodies->size());
  for (const Bytes& body : *bodies) {
    StatusOr<WalRecord> record = DeserializeWalRecord(body);
    if (!record.ok()) return record.status();
    if (epochs_.find(record->epoch_id) == epochs_.end()) {
      return Status::Corruption("wal record for unknown epoch " +
                                std::to_string(record->epoch_id));
    }
    Pending p;
    if (!record->enc_tag_update.empty()) {
      StatusOr<Bytes> update_blob = enclave_.DecryptEpochBlob(
          record->epoch_id, record->enc_tag_update);
      if (!update_blob.ok()) return update_blob.status();
      StatusOr<TagUpdate> update = DeserializeTagUpdate(*update_blob);
      if (!update.ok()) return update.status();
      p.update = std::move(*update);
    }
    for (const auto& rewrite : record->rewrites) {
      if (rewrite.first >= table_.num_rows()) {
        return Status::Corruption("wal rewrite beyond recovered rows");
      }
    }
    p.record = std::move(*record);
    pending.push_back(std::move(p));
  }

  // Apply in append order. Records carry absolute post-state, so replaying
  // entries a checkpoint already folded into the metas converges on the
  // same final value; rows whose stored bytes already match are skipped,
  // so a clean restart replays without growing the segments.
  StorageEngine* engine = table_.engine();
  for (const Pending& p : pending) {
    EpochState& state = epochs_.find(p.record.epoch_id)->second;
    for (const auto& rewrite : p.record.rewrites) {
      const Row* current = engine->GetRef(rewrite.first);
      bool same = current != nullptr &&
                  current->columns.size() == rewrite.second.columns.size();
      if (same) {
        for (size_t c = 0; c < rewrite.second.columns.size(); ++c) {
          if (current->columns[c] != rewrite.second.columns[c]) {
            same = false;
            break;
          }
        }
      }
      if (same) continue;
      CONCEALER_RETURN_IF_ERROR(engine->Replace(rewrite.first,
                                                rewrite.second));
    }
    state.set_bin_key_version(
        p.record.bin_index,
        std::max(state.bin_key_version(p.record.bin_index),
                 p.record.new_version));
    state.set_reenc_counter(
        std::max(state.reenc_counter(), p.record.reenc_counter_after));
    for (uint32_t cid : p.update.erased) state.tags().erase(cid);
    for (const auto& entry : p.update.set) {
      state.tags()[entry.first] = entry.second;
    }
    // The replayed state is ahead of the meta sidecar until the next
    // checkpoint folds it back in.
    wal_dirty_epochs_.insert(p.record.epoch_id);
  }
  return Status::OK();
}

Status ServiceProvider::CheckpointDynamicState() {
  if (wal_ == nullptr) return Status::OK();
  for (uint64_t eid : wal_dirty_epochs_) {
    auto it = epochs_.find(eid);
    if (it == epochs_.end()) continue;
    const EpochState& state = it->second;
    StatusOr<EpochMeta> meta =
        ReadEpochMetaFile(EpochMetaPath(storage_options_.dir, eid));
    if (!meta.ok()) return meta.status();
    meta->bin_key_versions = state.bin_key_versions();
    meta->reenc_counter = state.reenc_counter();
    StatusOr<RandCipher> cipher = enclave_.EpochRandCipher(eid, 0);
    if (!cipher.ok()) return cipher.status();
    meta->enc_dynamic_tags = cipher->Encrypt(SerializeTags(state.tags()));
    // Write-then-rename: a crash mid-checkpoint leaves either the old meta
    // (the un-truncated WAL still replays the delta) or the new one (the
    // WAL replays idempotently over it). Either way Open converges.
    CONCEALER_RETURN_IF_ERROR(WriteEpochMetaFile(
        EpochMetaPath(storage_options_.dir, eid), *meta));
  }
  CONCEALER_RETURN_IF_ERROR(wal_->Reset());
  wal_dirty_epochs_.clear();
  return Status::OK();
}

Status ServiceProvider::MaintainStorage() {
  if (wal_ != nullptr && wal_->SizeBytes() >= wal_checkpoint_bytes_) {
    CONCEALER_RETURN_IF_ERROR(CheckpointDynamicState());
  }
  StatusOr<uint64_t> reclaimed =
      table_.engine()->Compact(compaction_dead_ratio_);
  return reclaimed.status();
}

Status ServiceProvider::LoadRegistry(Slice encrypted_registry) {
  return enclave_.LoadRegistry(encrypted_registry);
}

Status ServiceProvider::IngestEpoch(const EncryptedEpoch& epoch) {
  if (epochs_.count(epoch.epoch_id) > 0) {
    return Status::InvalidArgument("epoch already ingested");
  }
  const uint64_t first_row_id = table_.num_rows();
  StatusOr<EpochState> state =
      EpochState::Create(enclave_, config_, epoch, first_row_id);
  if (!state.ok()) return state.status();
  StorageEngine* engine = table_.engine();
  // Close out any unsealed active segment (a §6 dynamic-mode Replace opens
  // one for its rewritten rows) so the epoch about to land really starts
  // at segment index NumSegments() — otherwise the recorded range would
  // miss the rows appended into the leftover active segment.
  CONCEALER_RETURN_IF_ERROR(engine->SealSegment());
  const uint32_t seg_lo = engine->NumSegments();
  CONCEALER_RETURN_IF_ERROR(table_.InsertBatch(epoch.rows));
  epochs_.emplace(epoch.epoch_id, std::move(*state));
  if (!epoch.rows.empty()) {
    CONCEALER_RETURN_IF_ERROR(engine->SealSegment());
    epoch_segments_[epoch.epoch_id] = {seg_lo, engine->NumSegments() - 1};
  }
  if (persistent_) {
    EpochMeta meta;
    // Only the metadata fields are persisted; copying the full epoch here
    // would duplicate hundreds of MB of row data at paper scale.
    meta.epoch = StripRows(epoch);
    meta.first_row_id = first_row_id;
    meta.num_rows = epoch.rows.size();
    auto seg_it = epoch_segments_.find(epoch.epoch_id);
    if (seg_it != epoch_segments_.end()) {
      meta.seg_lo = seg_it->second.first;
      meta.seg_hi = seg_it->second.second;
    }
    // Crash-consistency boundary: the rows are already durable in sealed
    // segments, so a failure from here on leaves the epoch served from
    // memory but meta-less on disk — absent after a restart, its rows
    // unqueryable orphans. WriteFileBytes' write-then-rename narrows the
    // window to real I/O failures (a torn meta can never appear).
    CONCEALER_RETURN_IF_ERROR(WriteEpochMetaFile(
        EpochMetaPath(storage_options_.dir, epoch.epoch_id), meta));
  }
  // Index persistence into the node file (ephemeral directories too).
  // After PersistPagedIndex the tree reads leaves in place from the mapped
  // node file instead of resident vectors, and a restart attaches in two
  // small reads. A persist rewrites the WHOLE index, so persisting on
  // every ingest would cost O(K^2) cumulative bytes over a provider's
  // lifetime. Persist geometrically (first epoch, then each time the table
  // has doubled): total index I/O stays O(total rows), and a restart whose
  // stamp is stale simply rebuilds the index from the recovered rows.
  const uint64_t rows_now = table_.num_rows();
  if (rows_now > 0 &&
      (node_file_rows_ == 0 || rows_now >= 2 * node_file_rows_)) {
    CONCEALER_RETURN_IF_ERROR(table_.PersistPagedIndex());
    node_file_rows_ = rows_now;
  }
  return Status::OK();
}

std::vector<uint64_t> ServiceProvider::EpochIdsForQuery(
    const Query& query) const {
  std::vector<uint64_t> out;
  for (const auto& [eid, state] : epochs_) {
    if (config_.time_buckets != 0) {
      const uint64_t lo = state.epoch_start();
      const uint64_t hi = lo + config_.epoch_seconds - 1;
      if (query.time_hi < lo || query.time_lo > hi) continue;
    }
    out.push_back(eid);
  }
  return out;
}

StatusOr<EpochState*> ServiceProvider::epoch_state(uint64_t epoch_id) {
  auto it = epochs_.find(epoch_id);
  if (it == epochs_.end()) return Status::NotFound("epoch not ingested");
  return &it->second;
}

std::vector<EpochRowRange> ServiceProvider::EpochRowRanges() const {
  std::vector<EpochRowRange> ranges;
  ranges.reserve(epochs_.size());
  for (const auto& [eid, state] : epochs_) {
    ranges.push_back(EpochRowRange{eid, state.epoch_start(),
                                   state.first_row_id(), state.num_rows()});
  }
  return ranges;
}

Status ServiceProvider::ExecuteOnEpoch(EpochState* state, const Query& query,
                                       QueryExecutor::AggState* agg) {
  StatusOr<std::vector<FetchUnit>> units = planner_.Plan(state, query);
  if (!units.ok()) return units.status();

  // §8 super-bin routing: widen each BPB bin fetch to its whole super-bin
  // so retrieval frequency stops tracking per-bin unique-value counts.
  if (super_bin_factor_ > 0 && query.method == RangeMethod::kBPB) {
    StatusOr<const BinPlan*> plan =
        state->GetBinPlan(planner_.pack_algorithm());
    if (!plan.ok()) return plan.status();
    StatusOr<SuperBinPlan> sbp = MakeSuperBins(
        EstimateUniqueValuesPerBin(**plan, state->layout()),
        super_bin_factor_);
    if (!sbp.ok()) return sbp.status();
    StatusOr<std::vector<uint32_t>> needed =
        planner_.BpbBinIndexes(state, query);
    if (!needed.ok()) return needed.status();
    std::set<uint32_t> widened;
    for (uint32_t b : *needed) {
      for (uint32_t member : sbp->super_bins[sbp->super_of_bin[b]]) {
        widened.insert(member);
      }
    }
    units->clear();
    for (uint32_t b : widened) {
      StatusOr<FetchUnit> unit = planner_.UnitForBin(state, b);
      if (!unit.ok()) return unit.status();
      units->push_back(std::move(*unit));
    }
  }

  // Units of one query may fetch overlapping cell-ids (winSecRange
  // intervals, eBPB columns); the executor counts each row once. With a
  // pool borrowed, each unit runs as one task on it; the per-unit states
  // fold in unit order, so answers are identical to the single-threaded
  // path.
  return executor_.ExecuteUnitsParallel(*state, query, *units, pool_, agg);
}

Status ServiceProvider::ExecuteOnEpochDynamic(EpochState* state,
                                              const Query& query,
                                              QueryExecutor::AggState* agg) {
  if (query.method != RangeMethod::kBPB) {
    return Status::InvalidArgument(
        "dynamic mode supports the BPB method only");
  }
  StatusOr<const BinPlan*> plan = state->GetBinPlan(planner_.pack_algorithm());
  if (!plan.ok()) return plan.status();
  const uint32_t num_bins = static_cast<uint32_t>((*plan)->bins.size());

  StatusOr<std::vector<uint32_t>> needed =
      planner_.BpbBinIndexes(state, query);
  if (!needed.ok()) return needed.status();

  // §6: every touched round contributes exactly max(needed, ceil(log2(|Bin|)))
  // bins — rounds whose data does not satisfy the query still fetch
  // log2(|Bin|) random bins, hiding which rounds matched.
  uint32_t target = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::ceil(std::log2(std::max(2u, num_bins)))));
  target = std::max(target, static_cast<uint32_t>(needed->size()));
  target = std::min(target, num_bins);

  std::set<uint32_t> bins(needed->begin(), needed->end());
  while (bins.size() < target) {
    bins.insert(static_cast<uint32_t>(rng_.Uniform(num_bins)));
  }

  for (uint32_t b : bins) {
    StatusOr<FetchUnit> unit = planner_.UnitForBin(state, b);
    if (!unit.ok()) return unit.status();
    StatusOr<FetchedUnit> fetched =
        executor_.Fetch(*state, *unit, query.oblivious);
    if (!fetched.ok()) return fetched.status();
    if (query.verify) {
      CONCEALER_RETURN_IF_ERROR(executor_.Verify(*state, *fetched));
      agg->any_verified = true;
    }
    CONCEALER_RETURN_IF_ERROR(
        executor_.FilterInto(*state, query, *fetched, query.oblivious, agg));
    CONCEALER_RETURN_IF_ERROR(ReencryptBin(state, b, *fetched));
  }
  return Status::OK();
}

Status ServiceProvider::ReencryptBin(EpochState* state, uint32_t bin_index,
                                     const FetchedUnit& fetched) {
  const uint64_t old_version = state->bin_key_version(bin_index);
  const uint64_t new_version = old_version + 1;

  StatusOr<DetCipher> old_det =
      enclave_.EpochDetCipher(state->epoch_id(), old_version);
  if (!old_det.ok()) return old_det.status();
  StatusOr<DetCipher> new_det =
      enclave_.EpochDetCipher(state->epoch_id(), new_version);
  if (!new_det.ok()) return new_det.status();
  StatusOr<RandCipher> new_rand =
      enclave_.EpochRandCipher(state->epoch_id(), new_version);
  if (!new_rand.ok()) return new_rand.status();

  // Re-encrypt every fetched row: real rows decrypt-then-encrypt, fake rows
  // get fresh random payloads; the Index column keeps its (cid, ctr)
  // plaintext under the new key so future trapdoors still match.
  std::vector<Row> new_rows(fetched.rows.size());
  for (size_t i = 0; i < fetched.rows.size(); ++i) {
    // Borrowed pointer into the row store: read fully before ReindexRows
    // below rewrites these very slots.
    const Row& old_row = *fetched.rows[i];
    StatusOr<Bytes> index_plain =
        old_det->Decrypt(old_row.columns[kColIndex]);
    if (!index_plain.ok()) return index_plain.status();

    Row row;
    row.columns.resize(kNumRowColumns);
    row.columns[kColIndex] = new_det->Encrypt(*index_plain);
    StatusOr<Bytes> er = old_det->Decrypt(old_row.columns[kColEr]);
    if (er.ok()) {
      StatusOr<Bytes> el = old_det->Decrypt(old_row.columns[kColEl]);
      StatusOr<Bytes> eo = old_det->Decrypt(old_row.columns[kColEo]);
      if (!el.ok() || !eo.ok()) {
        return Status::Corruption("real row with undecryptable filters");
      }
      row.columns[kColEl] = new_det->Encrypt(*el);
      row.columns[kColEo] = new_det->Encrypt(*eo);
      row.columns[kColEr] = new_det->Encrypt(*er);
    } else {
      // Fake row (random payload cannot authenticate): refresh it.
      row.columns[kColEl] = new_rand->RandomBytes(old_row.columns[kColEl].size());
      row.columns[kColEo] = new_rand->RandomBytes(old_row.columns[kColEo].size());
      row.columns[kColEr] = new_rand->RandomBytes(old_row.columns[kColEr].size());
    }
    new_rows[i] = std::move(row);
  }

  // Permute the physical placement of the rewritten rows (the Path-ORAM-
  // inspired shuffle of §6 step iii): row content i lands at a random
  // row id from the fetched set.
  std::vector<uint64_t> shuffled_ids = fetched.row_ids;
  rng_.Shuffle(&shuffled_ids);
  std::vector<std::pair<uint64_t, Row>> rewrites;
  rewrites.reserve(new_rows.size());
  for (size_t i = 0; i < new_rows.size(); ++i) {
    rewrites.emplace_back(shuffled_ids[i], std::move(new_rows[i]));
  }

  // Compute the refreshed tags of the bin's cell-ids against the new
  // ciphertexts (chains stay in counter order) before anything mutates —
  // the WAL record below must carry the complete post-state of this bin.
  TagUpdate update;
  for (const auto& [cid, row_idxs] : fetched.real_row_of_cid) {
    if (row_idxs.empty()) {
      update.erased.push_back(cid);
      continue;
    }
    ChainTags& chains = update.set[cid];
    bool started = false;
    for (size_t idx : row_idxs) {
      // The rewritten row for fetched.rows[idx] is rewrites[idx].second
      // (same position; only the placement id was shuffled).
      ChainStepRow(rewrites[idx].second, started, &chains);
      started = true;
    }
  }

  // WAL first (persistent providers): the record — key-version bump,
  // counter, rewritten rows, encrypted tag refresh — is fsynced before any
  // row or enclave state changes. A failure here aborts the whole bin
  // rewrite with nothing applied; a crash right after is replayed by Open.
  if (wal_ != nullptr) {
    WalRecord record;
    record.epoch_id = state->epoch_id();
    record.bin_index = bin_index;
    record.new_version = new_version;
    record.reenc_counter_after = state->reenc_counter() + 1;
    StatusOr<RandCipher> cipher =
        enclave_.EpochRandCipher(state->epoch_id(), 0);
    if (!cipher.ok()) return cipher.status();
    record.enc_tag_update = cipher->Encrypt(SerializeTagUpdate(update));
    record.rewrites = std::move(rewrites);
    CONCEALER_RETURN_IF_ERROR(wal_->Append(SerializeWalRecord(record)));
    rewrites = std::move(record.rewrites);
    wal_dirty_epochs_.insert(state->epoch_id());
  }

  CONCEALER_RETURN_IF_ERROR(table_.ReindexRows(rewrites));

  for (uint32_t cid : update.erased) state->tags().erase(cid);
  for (const auto& entry : update.set) {
    state->tags()[entry.first] = entry.second;
  }
  state->set_bin_key_version(bin_index, new_version);
  state->bump_reenc_counter();
  return Status::OK();
}

StatusOr<QueryResult> ServiceProvider::Execute(const Query& query) {
  QueryExecutor::AggState agg;
  for (uint64_t eid : EpochIdsForQuery(query)) {
    EpochState* state = &epochs_.find(eid)->second;
    if (dynamic_mode_) {
      CONCEALER_RETURN_IF_ERROR(ExecuteOnEpochDynamic(state, query, &agg));
    } else {
      CONCEALER_RETURN_IF_ERROR(ExecuteOnEpoch(state, query, &agg));
    }
  }
  return QueryExecutor::Finalize(query, agg);
}

StatusOr<Bytes> ServiceProvider::ExecuteForUser(const std::string& user_id,
                                                Slice proof,
                                                const Query& query) {
  StatusOr<Session> session = enclave_.Authenticate(user_id, proof);
  if (!session.ok()) return session.status();

  CONCEALER_RETURN_IF_ERROR(
      CheckObservationAccess(query, session->owned_observation));

  StatusOr<QueryResult> result = Execute(query);
  if (!result.ok()) return result.status();

  // Clock-mixed: rng_ keeps its fixed seed for the (reproducible) dynamic
  // path, but nonce seeds must differ across provider instances.
  uint64_t nonce_seed;
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    nonce_seed = rng_.Next() ^
                 static_cast<uint64_t>(std::chrono::steady_clock::now()
                                           .time_since_epoch()
                                           .count());
  }
  return SealResult(*result, DeriveResultKey(proof, user_id), nonce_seed);
}

}  // namespace concealer
