#ifndef CONCEALER_SERVICE_EPOCH_LIFECYCLE_H_
#define CONCEALER_SERVICE_EPOCH_LIFECYCLE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "concealer/service_provider.h"
#include "concealer/types.h"

namespace concealer {

/// Process-wide hot-epoch budget shared by every tenant's lifecycle
/// manager (service/tenant_registry.h): the registry serves N tenants from
/// one machine, so the number of row-resident (mapped) epochs must be
/// bounded globally, not per tenant — otherwise N tenants each within
/// their local cap could still exhaust memory together.
///
/// The budget keeps one global recency order over all resident epochs of
/// all registered tenants. When residency exceeds the cap, the globally
/// coldest epochs are selected as victims and their owner tenants accrue
/// "reclaim debt" — an LRU steal: a tenant ingesting or reloading under
/// load takes its slot from whichever tenant has gone coldest, not from a
/// fixed per-tenant quota. Victims are bookkeeping only; the physical
/// eviction happens when the owing tenant's manager runs ReclaimToBudget
/// under that tenant's exclusive epoch lock (its own admit/load path, or
/// the registry's drain after traffic). Residency can therefore overshoot
/// the cap transiently — by at most the in-flight operations — and
/// converges as soon as debtors reclaim.
///
/// Why debt instead of evicting the victim directly: eviction requires the
/// victim tenant's exclusive epoch lock, and a thread already holding
/// tenant A's lock taking tenant B's would deadlock against the symmetric
/// steal. With debt, every thread only ever holds one tenant's epoch lock
/// at a time.
///
/// Thread safety: all methods are safe from any thread (one internal
/// mutex). Managers call in while holding their own internal mutex; the
/// budget never calls back out, so lock order is always
/// epoch lock -> manager mutex -> budget mutex.
class HotEpochBudget {
 public:
  /// `max_hot_epochs` caps resident epochs across ALL registered tenants;
  /// 0 = unbounded — every call becomes a no-op (no recency bookkeeping
  /// is kept, so stats() reports zero residents), keeping the default
  /// configuration off the query fast path entirely.
  explicit HotEpochBudget(size_t max_hot_epochs) : cap_(max_hot_epochs) {}

  HotEpochBudget(const HotEpochBudget&) = delete;
  HotEpochBudget& operator=(const HotEpochBudget&) = delete;

  /// Joins a tenant (one lifecycle manager); returns its handle.
  uint64_t Register();

  /// Releases every slot the tenant still holds (DropTenant / teardown).
  void Unregister(uint64_t tenant);

  /// Marks (tenant, epoch) resident-and-hottest; inserts it if new. Over
  /// the cap, the globally coldest epochs are (re)selected as victims and
  /// their owners' debt adjusted. A touch on a previously selected victim
  /// rescues it — the steal falls on the next-coldest instead.
  void Touch(uint64_t tenant, uint64_t epoch_id);

  /// Removes an epoch that was physically evicted (or dropped).
  void OnEvicted(uint64_t tenant, uint64_t epoch_id);

  /// Number of epochs `tenant` must evict to bring the process back under
  /// the cap (its epochs are the current globally-coldest victims).
  size_t PendingReclaim(uint64_t tenant) const;

  /// Total evictions owed across all tenants (cheap drain predicate).
  size_t TotalDebt() const;

  struct Stats {
    size_t cap = 0;
    size_t resident = 0;  // Epochs currently counted resident.
    size_t debt = 0;      // Evictions currently owed.
    uint64_t steals = 0;  // Victim selections ever made (LRU slot steals).
  };
  Stats stats() const;

 private:
  struct Entry {
    uint64_t tenant = 0;
    uint64_t epoch = 0;
    bool marked = false;  // Selected as an eviction victim.
  };

  /// Restores the invariant: #marked == max(0, resident - cap), marks on
  /// the globally coldest epochs. Caller holds mu_.
  void RebalanceLocked();

  const size_t cap_;
  mutable std::mutex mu_;
  uint64_t next_tenant_ = 1;
  uint64_t clock_ = 0;
  /// Resident epochs by recency stamp — coldest first.
  std::map<uint64_t, Entry> by_stamp_;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> stamp_of_;
  /// tenant -> number of its epochs currently marked as victims.
  std::unordered_map<uint64_t, size_t> debt_;
  size_t marked_ = 0;
  uint64_t steals_ = 0;
};

/// Tiered epoch lifecycle for a tenant's table: a production service
/// accrues epochs indefinitely (one per collection period, paper §2.2), but
/// queries concentrate on recent data — so the manager keeps a bounded hot
/// set of epochs row-resident and evicts the coldest to disk, reloading
/// them on demand through the storage engine's segment hooks
/// (SegmentEngine unmaps the epoch's segment range and drops its row
/// table; the enclave-side EpochState meta-index stays resident either
/// way, mirroring §6's "meta-index kept at the trusted entity").
///
/// A HotEpochBudget bounds the hot set: the registry's one budget covers
/// all its tenants together, and a standalone service that wants a cap
/// passes a budget of its own (for one tenant its recency order is this
/// manager's LRU, since every bump touches both). Without a budget the hot
/// set is unbounded.
///
/// Locking contract (enforced by QueryService, the only caller):
///  - ResidentForQuery / TouchForQuery run under the SHARED epoch lock —
///    they never change residency (Touch only reorders recency state under
///    the internal mutexes).
///  - OnEpochAdmitted / EnsureResidentForQuery / ReclaimToBudget change
///    residency and must run under the EXCLUSIVE epoch lock (ingest and
///    the cold-query path already hold it).
///
/// With the in-memory engine every epoch is trivially resident and the
/// manager degenerates to bookkeeping — the fetch path is engine-agnostic.
class EpochLifecycleManager {
 public:
  /// `budget` may be null (unbounded); it must outlive the manager.
  EpochLifecycleManager(ServiceProvider* provider, HotEpochBudget* budget)
      : provider_(provider), budget_(budget) {
    if (budget_ != nullptr) tenant_ = budget_->Register();
  }

  ~EpochLifecycleManager() {
    if (budget_ != nullptr) budget_->Unregister(tenant_);
  }

  EpochLifecycleManager(const EpochLifecycleManager&) = delete;
  EpochLifecycleManager& operator=(const EpochLifecycleManager&) = delete;

  /// Marks a freshly ingested (or restart-recovered) epoch hottest and
  /// evicts this tenant's share of the budget's debt. Exclusive epoch lock
  /// required.
  Status OnEpochAdmitted(uint64_t epoch_id);

  /// True iff every epoch the query touches has resident rows.
  bool ResidentForQuery(const Query& query) const;

  /// Reloads any cold epochs the query touches, bumps them hottest, then
  /// evicts the coldest beyond the budget (never one this query needs).
  /// Exclusive epoch lock required.
  Status EnsureResidentForQuery(const Query& query);

  /// LRU bump for a query's epochs (shared epoch lock; internal mutex).
  void TouchForQuery(const Query& query);

  /// Pays off this tenant's share of the budget's reclaim debt by
  /// evicting its coldest epochs (no-op without a budget or debt). The
  /// registry drains debtors through this after traffic; exclusive epoch
  /// lock required.
  Status ReclaimToBudget();

  /// Dynamic-mode storage upkeep (WAL checkpointing + segment compaction,
  /// see ServiceProvider::MaintainStorage). Compaction only touches
  /// RESIDENT sealed segments — an evicted epoch's dead bytes wait until a
  /// query faults it back in, so upkeep composes with the hot-epoch budget
  /// instead of fighting it. Exclusive epoch lock required.
  Status MaintainStorage();

  /// Evictions this tenant currently owes the budget (0 without one).
  /// Safe under the shared lock.
  size_t pending_reclaim() const {
    return budget_ == nullptr ? 0 : budget_->PendingReclaim(tenant_);
  }

  struct Stats {
    uint64_t loads = 0;      // Cold epochs reloaded on demand.
    uint64_t evictions = 0;  // Epochs pushed out of the hot set.
    size_t resident_epochs = 0;
  };
  Stats stats() const;

 private:
  /// Moves `epoch_id` to the LRU front (inserting if new) and refreshes
  /// its global recency in the budget. Caller holds mu_.
  void BumpLocked(uint64_t epoch_id);
  /// Evicts this tenant's coldest epochs while it owes the budget,
  /// skipping `keep` (a query's own epochs are immune — the budget can
  /// overshoot transiently instead). Caller holds mu_ and the exclusive
  /// epoch lock.
  Status EvictForBudgetLocked(const std::vector<uint64_t>& keep);
  /// Evicts one resident epoch (provider + both recency structures).
  /// Caller holds mu_ and the exclusive epoch lock.
  Status EvictOneLocked(std::list<uint64_t>::iterator victim);

  ServiceProvider* provider_;
  HotEpochBudget* budget_;
  uint64_t tenant_ = 0;  // Handle in the budget, if any.
  mutable std::mutex mu_;
  /// Resident epochs only, hottest first.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> pos_;
  uint64_t loads_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace concealer

#endif  // CONCEALER_SERVICE_EPOCH_LIFECYCLE_H_
