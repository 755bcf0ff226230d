#include "service/epoch_lifecycle.h"

#include <algorithm>

namespace concealer {

// --- HotEpochBudget ---------------------------------------------------------

uint64_t HotEpochBudget::Register() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_tenant_++;
}

void HotEpochBudget::Unregister(uint64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = by_stamp_.begin(); it != by_stamp_.end();) {
    if (it->second.tenant != tenant) {
      ++it;
      continue;
    }
    if (it->second.marked) --marked_;
    stamp_of_.erase({tenant, it->second.epoch});
    it = by_stamp_.erase(it);
  }
  debt_.erase(tenant);
  RebalanceLocked();
}

void HotEpochBudget::RebalanceLocked() {
  const size_t want =
      (cap_ > 0 && by_stamp_.size() > cap_) ? by_stamp_.size() - cap_ : 0;
  if (marked_ > want) {
    // Fewer victims needed (an eviction or drop landed): rescue the
    // hottest marked epochs first.
    for (auto it = by_stamp_.rbegin(); it != by_stamp_.rend() && marked_ > want;
         ++it) {
      if (!it->second.marked) continue;
      it->second.marked = false;
      --marked_;
      --debt_[it->second.tenant];
    }
  }
  // More victims needed: one cold-to-hot pass marking unmarked slots
  // until enough are selected (the marked set stays the coldness prefix).
  for (auto it = by_stamp_.begin(); it != by_stamp_.end() && marked_ < want;
       ++it) {
    if (it->second.marked) continue;
    it->second.marked = true;
    ++marked_;
    ++debt_[it->second.tenant];
    ++steals_;
  }
}

void HotEpochBudget::Touch(uint64_t tenant, uint64_t epoch_id) {
  // Unbounded budget: no mark can ever be assigned, so skip the global
  // bookkeeping entirely — Touch sits on every query's shared-lock fast
  // path, and cap 0 is the registry default.
  if (cap_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::pair<uint64_t, uint64_t> key{tenant, epoch_id};
  auto it = stamp_of_.find(key);
  if (it != stamp_of_.end()) {
    auto ent = by_stamp_.find(it->second);
    if (ent->second.marked) {
      --marked_;
      --debt_[tenant];
    }
    by_stamp_.erase(ent);
    stamp_of_.erase(it);
  }
  const uint64_t stamp = ++clock_;
  by_stamp_[stamp] = Entry{tenant, epoch_id, false};
  stamp_of_[key] = stamp;
  RebalanceLocked();
}

void HotEpochBudget::OnEvicted(uint64_t tenant, uint64_t epoch_id) {
  if (cap_ == 0) return;  // Nothing was ever recorded (see Touch).
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stamp_of_.find({tenant, epoch_id});
  if (it == stamp_of_.end()) return;
  auto ent = by_stamp_.find(it->second);
  if (ent->second.marked) {
    --marked_;
    --debt_[tenant];
  }
  by_stamp_.erase(ent);
  stamp_of_.erase(it);
  RebalanceLocked();
}

size_t HotEpochBudget::PendingReclaim(uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = debt_.find(tenant);
  return it == debt_.end() ? 0 : it->second;
}

size_t HotEpochBudget::TotalDebt() const {
  std::lock_guard<std::mutex> lock(mu_);
  return marked_;
}

HotEpochBudget::Stats HotEpochBudget::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.cap = cap_;
  stats.resident = by_stamp_.size();
  stats.debt = marked_;
  stats.steals = steals_;
  return stats;
}

// --- EpochLifecycleManager --------------------------------------------------

void EpochLifecycleManager::BumpLocked(uint64_t epoch_id) {
  auto it = pos_.find(epoch_id);
  if (it != pos_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(epoch_id);
    pos_[epoch_id] = lru_.begin();
  }
  if (budget_ != nullptr) budget_->Touch(tenant_, epoch_id);
}

Status EpochLifecycleManager::EvictOneLocked(
    std::list<uint64_t>::iterator victim) {
  const uint64_t epoch_id = *victim;
  CONCEALER_RETURN_IF_ERROR(provider_->EvictEpochRows(epoch_id));
  pos_.erase(epoch_id);
  lru_.erase(victim);
  ++evictions_;
  if (budget_ != nullptr) budget_->OnEvicted(tenant_, epoch_id);
  return Status::OK();
}

Status EpochLifecycleManager::EvictForBudgetLocked(
    const std::vector<uint64_t>& keep) {
  if (budget_ == nullptr) return Status::OK();
  // The budget marked this tenant's globally-coldest epochs as victims; pay
  // the debt by evicting from the local cold end (the orders agree: both
  // are bumped by the same touches). Skipping `keep` can leave debt unpaid
  // — transient overshoot the next reclaim settles.
  while (budget_->PendingReclaim(tenant_) > 0 && !lru_.empty()) {
    auto it = lru_.end();
    bool evicted = false;
    while (it != lru_.begin()) {
      --it;
      if (std::find(keep.begin(), keep.end(), *it) != keep.end()) continue;
      CONCEALER_RETURN_IF_ERROR(EvictOneLocked(it));
      evicted = true;
      break;
    }
    if (!evicted) break;  // Every resident epoch is needed right now.
  }
  return Status::OK();
}

Status EpochLifecycleManager::OnEpochAdmitted(uint64_t epoch_id) {
  std::lock_guard<std::mutex> lock(mu_);
  BumpLocked(epoch_id);
  return EvictForBudgetLocked({epoch_id});
}

bool EpochLifecycleManager::ResidentForQuery(const Query& query) const {
  for (uint64_t eid : provider_->EpochIdsForQuery(query)) {
    if (!provider_->EpochRowsResident(eid)) return false;
  }
  return true;
}

Status EpochLifecycleManager::EnsureResidentForQuery(const Query& query) {
  const std::vector<uint64_t> needed = provider_->EpochIdsForQuery(query);
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t eid : needed) {
    if (!provider_->EpochRowsResident(eid)) {
      CONCEALER_RETURN_IF_ERROR(provider_->LoadEpochRows(eid));
      ++loads_;
    }
    BumpLocked(eid);
  }
  return EvictForBudgetLocked(needed);
}

void EpochLifecycleManager::TouchForQuery(const Query& query) {
  const std::vector<uint64_t> needed = provider_->EpochIdsForQuery(query);
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t eid : needed) BumpLocked(eid);
}

Status EpochLifecycleManager::ReclaimToBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  return EvictForBudgetLocked({});
}

Status EpochLifecycleManager::MaintainStorage() {
  // No residency bookkeeping changes: the provider checkpoints the WAL and
  // compacts resident segments; evicted ranges are skipped by the engine.
  return provider_->MaintainStorage();
}

EpochLifecycleManager::Stats EpochLifecycleManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.loads = loads_;
  stats.evictions = evictions_;
  stats.resident_epochs = lru_.size();
  return stats;
}

}  // namespace concealer
