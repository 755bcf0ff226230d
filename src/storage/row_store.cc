#include "storage/row_store.h"

namespace concealer {

StatusOr<uint64_t> RowStore::Append(Row row) {
  total_bytes_ += RowByteSize(row);
  rows_.push_back(std::move(row));
  ++generation_;
  return rows_.size() - 1;
}

const Row* RowStore::GetRef(uint64_t row_id) const {
  if (row_id >= rows_.size()) return nullptr;
  return &rows_[row_id];
}

Status RowStore::Replace(uint64_t row_id, Row row) {
  if (row_id >= rows_.size()) {
    return Status::NotFound("row id out of range");
  }
  total_bytes_ -= RowByteSize(rows_[row_id]);
  total_bytes_ += RowByteSize(row);
  rows_[row_id] = std::move(row);
  ++generation_;
  return Status::OK();
}

}  // namespace concealer
