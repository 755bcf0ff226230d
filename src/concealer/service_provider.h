#ifndef CONCEALER_CONCEALER_SERVICE_PROVIDER_H_
#define CONCEALER_CONCEALER_SERVICE_PROVIDER_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "concealer/dynamic_wal.h"
#include "concealer/epoch_state.h"
#include "concealer/query_executor.h"
#include "concealer/range_planner.h"
#include "concealer/types.h"
#include "enclave/enclave.h"
#include "storage/encrypted_table.h"

namespace concealer {

/// The untrusted service provider (paper §2.1-§2.2): hosts the DBMS
/// (EncryptedTable) and the enclave, ingests DP epochs (Phase 1), and
/// executes user queries (Phase 3). The class boundary mirrors the trust
/// boundary: everything keyed lives in `enclave_` / `EpochState`; the
/// table and its stats are the adversary's view.
///
/// Thread safety: with dynamic mode off, `Execute`, `ExecuteForUser` and
/// the read-only accessors (`table()`, `EpochRowRanges()`, `epoch_state`,
/// `config()`, `enclave()`, `num_epochs()`) are safe to call concurrently
/// from many threads once setup (LoadRegistry + all IngestEpoch calls,
/// plus any set_* mutator) has completed — the read path only builds
/// internally locked lazy plans and touches lock-batched/atomic counters.
/// Ingesting, the set_* mutators, `mutable_table()`, and any query in
/// dynamic mode (§6 rewrites rows, tags and key versions) require
/// exclusive access; the multi-tenant front end (service/query_service.h)
/// enforces exactly that split with an epoch-level reader/writer lock.
class ServiceProvider {
 public:
  /// The one way to a provider. `sk` models the DP-provisioned enclave
  /// secret (remote attestation and key exchange are out of the paper's
  /// scope, §1.2). The table lives in the mmap segment engine. An empty
  /// `storage.dir` (the default) opens an ephemeral temp directory, removed
  /// with the provider. A non-empty dir is opened and RECOVERED: Open
  /// re-maps the segments, attaches the B+-tree's node file (or rebuilds
  /// the index from the rows), and re-adopts every ingested epoch from its
  /// epoch-meta file — queries then answer byte-identically to the
  /// pre-restart provider. Engine and recovery errors are returned.
  /// `pool` (borrowed, may be null) runs the segment checksum pass of that
  /// recovery (SegmentEngine::Open); the provider does not keep it —
  /// set_pool lends the pool its queries run on.
  ///
  /// Restart fidelity covers the dynamic path too: §6 key-version bumps
  /// and refreshed tags are write-ahead logged (dynamic_wal.h) before each
  /// rewritten bin is acknowledged, and Open replays the log over the
  /// checkpointed epoch metas — so a crash at ANY I/O point restores a
  /// provider whose answers and tags are byte-identical to one that never
  /// crashed.
  static StatusOr<std::unique_ptr<ServiceProvider>> Open(
      ConcealerConfig config, Bytes sk, const StorageOptions& storage = {},
      ThreadPool* pool = nullptr);

  /// Installs the DP's encrypted user registry (Phase 0).
  Status LoadRegistry(Slice encrypted_registry);

  /// Ingests one encrypted epoch into the DBMS and decodes its metadata
  /// inside the enclave.
  Status IngestEpoch(const EncryptedEpoch& epoch);

  /// Phase 3: authenticates the user, enforces that individualized queries
  /// only touch the user's own observation, executes the query, and
  /// returns the result encrypted under a key only the proving user can
  /// derive. `Execute` (below) is the unencrypted variant used by tests
  /// and benches.
  StatusOr<Bytes> ExecuteForUser(const std::string& user_id, Slice proof,
                                 const Query& query);

  /// Executes an already-authorized query (bench/test surface).
  StatusOr<QueryResult> Execute(const Query& query);

  /// Enables the dynamic-insertion query path (§6): every epoch touched by
  /// a query contributes exactly max(needed, ceil(log2(#bins))) bins, and
  /// all fetched bins are re-encrypted under a fresh key and rewritten.
  /// While on, any attached work cache is detached and cleared: each query
  /// bumps the touched bins' key versions, so cached entries die as fast
  /// as they are created — caching would only accumulate dead-version
  /// entries without bound.
  void set_dynamic_mode(bool on) {
    dynamic_mode_ = on;
    if (work_cache_ != nullptr && on) work_cache_->Clear();
    executor_.set_work_cache(on ? nullptr : work_cache_);
  }

  /// Routes every retrieval through super-bins built with factor `f`
  /// (§8); 0 disables. Requires f to divide each epoch's bin count.
  void set_super_bin_factor(uint32_t f) { super_bin_factor_ = f; }

  /// Borrows the pool that runs each query's fetch units, one task per
  /// unit (null, the default, runs them inline; answers are identical
  /// either way). Not owned: the pool must outlive this provider. The
  /// tenant registry passes its one process-wide pool, so the per-pool
  /// nesting guard (common/thread_pool.h) covers the registry's batch
  /// fan-out and the fetch path together. No effect in dynamic mode (§6),
  /// whose per-bin re-encryption loop is serial. Call during setup only,
  /// like set_work_cache.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Attaches the cross-query enclave-work cache shared by the service
  /// layer (null detaches). Call during setup only — not concurrently with
  /// queries. Held back while dynamic mode is on (see set_dynamic_mode).
  /// See EnclaveWorkCache for the leakage argument.
  void set_work_cache(EnclaveWorkCache* cache) {
    work_cache_ = cache;
    executor_.set_work_cache(dynamic_mode_ ? nullptr : cache);
  }

  /// Read-only view of the DBMS. Safe to call (and to read stats through)
  /// concurrently with static-mode Execute calls; see the class comment.
  const EncryptedTable& table() const { return table_; }
  EncryptedTable& mutable_table() { return table_; }
  const Enclave& enclave() const { return enclave_; }
  const ConcealerConfig& config() const { return config_; }
  size_t num_epochs() const { return epochs_.size(); }

  /// Enclave-side epoch state (tests introspect bins/tags through this).
  /// The returned pointer is OWNED BY this ServiceProvider and stays valid
  /// until the provider is destroyed (epochs are never evicted). Reading
  /// through it is safe concurrently with static-mode Execute calls;
  /// writing through it (tags(), set_bin_key_version, ...) — like dynamic
  /// mode itself — requires exclusive access to the provider.
  StatusOr<EpochState*> epoch_state(uint64_t epoch_id);

  /// Public setup metadata: which row-id span each epoch occupies (the
  /// Opaque baseline scans these). Safe concurrently with static-mode
  /// Execute calls.
  std::vector<EpochRowRange> EpochRowRanges() const;

  /// Ids of the epochs a query's time range touches, in the order Execute
  /// visits them (the benchmark's serial replica of Execute walks these).
  /// Safe concurrently with static-mode Execute calls.
  std::vector<uint64_t> EpochIdsForQuery(const Query& query) const;

  /// True when this provider persists to a reopenable directory.
  bool persistent() const { return persistent_; }
  const StorageOptions& storage_options() const { return storage_options_; }

  // --- Dynamic-mode durability (persistent dirs; no-ops when ephemeral) --

  /// Folds the dynamic state (key versions, re-encryption counters,
  /// refreshed tags) of every WAL-dirty epoch into its epoch-meta sidecar,
  /// then truncates the WAL. Crash-safe at any point: metas swap in via
  /// write-then-rename, and replaying a not-yet-truncated WAL over already
  /// checkpointed metas is idempotent (records carry absolute state).
  /// Exclusive access required.
  Status CheckpointDynamicState();

  /// Periodic storage upkeep, called by the service layer after dynamic
  /// queries (under the exclusive epoch lock): checkpoints once the WAL
  /// exceeds the size threshold, then lets the engine compact mostly-dead
  /// segments (an ephemeral directory too: it has no WAL, but §6 rewrites
  /// leave dead records there as well). Together these bound disk growth
  /// under sustained churn.
  Status MaintainStorage();

  /// WAL size that triggers a checkpoint in MaintainStorage.
  void set_wal_checkpoint_bytes(uint64_t bytes) {
    wal_checkpoint_bytes_ = bytes;
  }
  /// Dead-byte ratio above which MaintainStorage compacts a segment.
  void set_compaction_dead_ratio(double ratio) {
    compaction_dead_ratio_ = ratio;
  }
  /// The WAL's current on-disk size (0 when not persistent).
  uint64_t wal_size_bytes() const {
    return wal_ != nullptr ? wal_->SizeBytes() : 0;
  }

 private:
  ServiceProvider(ConcealerConfig config, Bytes sk, StorageOptions storage,
                  std::unique_ptr<StorageEngine> engine);

  /// Restart recovery over a reopened engine: epoch metas, then the
  /// dynamic WAL, then the index (in that order — replay needs the epoch
  /// states, and the index must cover the replayed rewrites).
  Status Recover();

  /// Replays the dynamic WAL over the recovered epochs: re-applies any
  /// rewritten rows the crash kept out of the segments and installs the
  /// logged key versions, counters and tags. Fails closed on in-place log
  /// corruption; tolerates only the tear a mid-append crash leaves.
  Status ReplayWal();

  // Per-epoch execution, merging into `agg`.
  Status ExecuteOnEpoch(EpochState* state, const Query& query,
                        QueryExecutor::AggState* agg);

  // §6: fetch-and-rewrite path for one epoch in dynamic mode.
  Status ExecuteOnEpochDynamic(EpochState* state, const Query& query,
                               QueryExecutor::AggState* agg);

  // Re-encrypts one fetched bin under the next key version, permutes the
  // row placement, rewrites the DBMS rows and refreshes the enclave tags.
  Status ReencryptBin(EpochState* state, uint32_t bin_index,
                      const FetchedUnit& fetched);

  ConcealerConfig config_;
  Enclave enclave_;
  StorageOptions storage_options_;
  /// True when the engine persists under storage_options_.dir (the epoch
  /// meta files are maintained there too).
  bool persistent_ = false;
  EncryptedTable table_;
  QueryExecutor executor_;
  RangePlanner planner_;
  std::map<uint64_t, EpochState> epochs_;
  /// Segment range each epoch's rows occupy (written into the epoch meta
  /// files and checked at Recover).
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> epoch_segments_;
  /// Table size at the last node-file persist (geometric schedule — see
  /// IngestEpoch).
  uint64_t node_file_rows_ = 0;
  /// Dynamic-mode write-ahead log (persistent providers only; see
  /// dynamic_wal.h for the protocol).
  std::unique_ptr<DynamicWal> wal_;
  /// Epochs whose in-memory dynamic state is ahead of their meta sidecar
  /// (rewinds to empty at each checkpoint).
  std::set<uint64_t> wal_dirty_epochs_;
  uint64_t wal_checkpoint_bytes_ = 4ull << 20;
  double compaction_dead_ratio_ = 0.5;
  /// Borrowed fetch-unit pool (null = inline). Lives on the untrusted side
  /// of the simulated boundary — see docs/ARCHITECTURE.md — but workers
  /// only run enclave-side per-unit work on disjoint state.
  ThreadPool* pool_ = nullptr;
  bool dynamic_mode_ = false;
  uint32_t super_bin_factor_ = 0;
  /// The service layer's cache, remembered so mode switches can
  /// detach/reattach it on the executor.
  EnclaveWorkCache* work_cache_ = nullptr;
  /// Guards rng_ on the concurrent read path (result-nonce draws in
  /// ExecuteForUser); the dynamic write path uses rng_ under the exclusive
  /// access it already requires.
  std::mutex rng_mu_;
  Rng rng_;
};

}  // namespace concealer

#endif  // CONCEALER_CONCEALER_SERVICE_PROVIDER_H_
