#ifndef CONCEALER_STORAGE_ROW_H_
#define CONCEALER_STORAGE_ROW_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
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

/// Software-pipelined prefetch for a pass over a known sequence of rows
/// (Chen, Ailamaki, Gibbons and Mowry, "Improving Hash Join Performance
/// through Prefetching", ICDE 2004). Reading a stored row is a chain of
/// three dependent loads — the Row object, its heap Column array, the
/// column bytes in the mapped segment — and a fetch unit's rows lie
/// scattered over their epoch (Alg. 1 line 24 permutes each epoch), so a
/// pass that walks them in order stalls on all three misses per row. Call
/// Ahead(i) at the top of iteration i: it touches row i+16's Row object,
/// row i+8's Column array and the bytes of row i+4's `byte_columns`, each
/// stage reading only what an earlier stage already brought in. The
/// touches are prefetch hints: they read only bytes the pass reads next,
/// in its own order, and change no result.
///
/// `row_at(j)` returns the pass's j-th row, or nullptr for a position the
/// pass skips (a prefetch never goes through it); it is called for
/// positions below `n` only.
template <typename RowAt>
class RowPrefetcher {
 public:
  static constexpr size_t kRowDistance = 16;
  static constexpr size_t kColumnsDistance = 8;
  static constexpr size_t kBytesDistance = 4;

  RowPrefetcher(size_t n, RowAt row_at,
                std::initializer_list<size_t> byte_columns = {})
      : n_(n), row_at_(std::move(row_at)) {
    assert(byte_columns.size() <= kMaxByteColumns);
    for (size_t c : byte_columns) byte_columns_[num_byte_columns_++] = c;
  }

  // Always inlined, as is Touch: GCC finds a call whose body is only
  // loads and prefetches free of side effects, and deletes it.
  [[gnu::always_inline]] void Ahead(size_t i) const {
    if (i + kRowDistance < n_) {
      if (const Row* row = row_at_(i + kRowDistance)) Touch(row, sizeof(Row));
    }
    if (i + kColumnsDistance < n_) {
      if (const Row* row = row_at_(i + kColumnsDistance)) {
        Touch(row->columns.data(), row->columns.size() * sizeof(Column));
      }
    }
    if (num_byte_columns_ == 0 || i + kBytesDistance >= n_) return;
    if (const Row* row = row_at_(i + kBytesDistance)) {
      for (size_t k = 0; k < num_byte_columns_; ++k) {
        const Column& col = row->columns[byte_columns_[k]];
        Touch(col.data(), col.size());
      }
    }
  }

 private:
  static constexpr size_t kMaxByteColumns = 4;
  static constexpr size_t kLine = 64;

  // Prefetches the cache lines of [p, p + size): all of them up to 193
  // bytes, which covers a Row, a four-column array and a column's bytes.
  [[gnu::always_inline]] static void Touch(const void* p, size_t size) {
    if (size == 0) return;
    const char* c = static_cast<const char*>(p);
    __builtin_prefetch(c);
    if (size > kLine) __builtin_prefetch(c + kLine);
    if (size > 2 * kLine) __builtin_prefetch(c + 2 * kLine);
    __builtin_prefetch(c + size - 1);
  }

  size_t n_;
  RowAt row_at_;
  size_t byte_columns_[kMaxByteColumns] = {};
  size_t num_byte_columns_ = 0;
};

}  // namespace concealer

#endif  // CONCEALER_STORAGE_ROW_H_
