#ifndef CONCEALER_STORAGE_ROW_H_
#define CONCEALER_STORAGE_ROW_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/slice.h"

namespace concealer {

/// One column value of a stored row: an opaque encrypted byte string.
///
/// A Column either OWNS its bytes (the DP pipeline, deserialized epochs and
/// every copied row) or BORROWS them from storage it does not manage — the
/// mmap'd segment of the storage engine, where the ciphertext is read in
/// place and never duplicated on the heap. The distinction is invisible to
/// readers: both modes expose the same data()/size()/Slice view, so the
/// zero-copy decrypt/verify loop is engine-agnostic.
///
/// Value semantics: COPYING always materializes an owned deep copy (a copy
/// must not silently alias storage whose lifetime the copier does not
/// control); MOVING preserves the mode. Borrowed columns follow the borrow
/// rules of the engine that lent them (see RowRef / StorageEngine).
class Column {
 public:
  Column() = default;
  /// Owning; implicit so existing `row.columns[i] = SomeBytes(...)`
  /// assignments and `Row{{Bytes{...}, ...}}` literals keep working.
  Column(Bytes b)  // NOLINT: implicit by design.
      : owned_(std::move(b)), data_(owned_.data()), size_(owned_.size()) {}

  /// Borrowing view into storage managed elsewhere (an mmap'd segment).
  /// The referenced bytes must stay valid and unchanged for the Column's
  /// lifetime.
  static Column Borrowed(const uint8_t* data, size_t size) {
    Column c;
    c.data_ = data;
    c.size_ = size;
    c.borrowed_ = true;
    return c;
  }

  Column(const Column& o) : owned_(o.data_, o.data_ + o.size_) {
    data_ = owned_.data();
    size_ = owned_.size();
  }
  Column& operator=(const Column& o) {
    if (this != &o) {
      owned_.assign(o.data_, o.data_ + o.size_);
      data_ = owned_.data();
      size_ = owned_.size();
      borrowed_ = false;
    }
    return *this;
  }
  Column(Column&& o) noexcept { MoveFrom(std::move(o)); }
  Column& operator=(Column&& o) noexcept {
    if (this != &o) MoveFrom(std::move(o));
    return *this;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool borrowed() const { return borrowed_; }

  uint8_t operator[](size_t i) const { return data_[i]; }
  /// Mutable access requires an owned column (tests corrupt ciphertexts in
  /// copied rows; borrowed bytes belong to the engine and must not change).
  uint8_t& operator[](size_t i) {
    assert(!borrowed_);
    return owned_[i];
  }

  operator Slice() const { return Slice(data_, size_); }  // NOLINT: implicit.
  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }

 private:
  void MoveFrom(Column&& o) {
    if (o.borrowed_) {
      owned_.clear();
      data_ = o.data_;
      size_ = o.size_;
      borrowed_ = true;
    } else {
      owned_ = std::move(o.owned_);
      data_ = owned_.data();
      size_ = owned_.size();
      borrowed_ = false;
    }
    o.data_ = nullptr;
    o.size_ = 0;
    o.borrowed_ = false;
  }

  Bytes owned_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool borrowed_ = false;
};

inline bool operator==(const Column& a, const Column& b) {
  return Slice(a) == Slice(b);
}
inline bool operator!=(const Column& a, const Column& b) { return !(a == b); }
inline bool operator<(const Column& a, const Column& b) {
  return Slice(a).Compare(Slice(b)) < 0;
}

/// A stored row: the ordered encrypted column values of one tuple.
/// For the WiFi schema this is ⟨El, Eo, Er, Index⟩ (Table 2c); for TPC-H,
/// filter columns + value column + Index. The storage layer treats every
/// column as an opaque byte string.
struct Row {
  std::vector<Column> columns;
};

/// Total bytes across a row's columns (storage-size accounting).
inline uint64_t RowByteSize(const Row& row) {
  uint64_t n = 0;
  for (const Column& col : row.columns) n += col.size();
  return n;
}

}  // namespace concealer

#endif  // CONCEALER_STORAGE_ROW_H_
