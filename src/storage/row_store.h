#ifndef CONCEALER_STORAGE_ROW_STORE_H_
#define CONCEALER_STORAGE_ROW_STORE_H_

#include <cstdint>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/row.h"
#include "storage/storage_engine.h"

namespace concealer {

/// The in-memory StorageEngine: an append-only heap of rows addressed by
/// dense 64-bit row ids — the original table storage underneath the
/// B+-tree index (a deliberately simple stand-in for the DBMS heap file),
/// extracted behind the engine interface behavior-identical. Rows are
/// immutable once appended except through `Replace`, which the
/// dynamic-insertion path uses to overwrite a round's re-encrypted tuples
/// in place (paper §6 step iii).
class RowStore : public StorageEngine {
 public:
  RowStore() = default;

  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  StatusOr<uint64_t> Append(Row row) override;
  const Row* GetRef(uint64_t row_id) const override;
  Status Replace(uint64_t row_id, Row row) override;

  uint64_t size() const override { return rows_.size(); }
  uint64_t TotalBytes() const override { return total_bytes_; }
  uint64_t generation() const override { return generation_; }
  const char* name() const override { return "memory"; }

 private:
  std::vector<Row> rows_;
  uint64_t total_bytes_ = 0;
  /// Borrow-invalidation counter (see StorageEngine): one bump per
  /// Append/Replace, i.e. the record count a persistent engine would have.
  uint64_t generation_ = 0;
};

}  // namespace concealer

#endif  // CONCEALER_STORAGE_ROW_STORE_H_
