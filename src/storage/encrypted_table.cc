#include "storage/encrypted_table.h"

#include <algorithm>
#include <utility>

#include "storage/node_store.h"

namespace concealer {

namespace {

// One key of a batch to sort: an 8-byte big-endian prefix of the key
// (zero-padded), which orders entries the same way the full compare does
// wherever two prefixes differ, the key, and the caller's tag (a probe
// position or a row id). Index values open with a 16-byte SIV, so
// prefixes almost never tie and the sort rarely leaves the entry array to
// read a key.
struct KeyEntry {
  uint64_t prefix;
  Slice key;
  uint64_t tag;

  static KeyEntry Of(Slice key, uint64_t tag) {
    uint64_t prefix = 0;
    for (size_t i = 0; i < 8; ++i) {
      prefix = prefix << 8 | (i < key.size() ? key[i] : 0);
    }
    return KeyEntry{prefix, key, tag};
  }
};

// Sorts entries into key order, equal keys in any order: the one sort of
// FetchRefs' probe batch and RecoverIndex's rebuild.
void SortKeyEntries(std::vector<KeyEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const KeyEntry& a, const KeyEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              return a.key.Compare(b.key) < 0;
            });
}

}  // namespace

EncryptedTable::EncryptedTable(std::string name, size_t num_columns,
                               size_t index_column,
                               std::unique_ptr<StorageEngine> engine)
    : name_(std::move(name)),
      num_columns_(num_columns),
      index_column_(index_column),
      store_(std::move(engine)) {}

Status EncryptedTable::Insert(Row row) {
  if (row.columns.size() != num_columns_) {
    return Status::InvalidArgument("row arity mismatch");
  }
  StatusOr<uint64_t> row_id = store_->Append(std::move(row));
  if (!row_id.ok()) return row_id.status();
  CONCEALER_RETURN_IF_ERROR(
      index_.Insert(store_->GetRef(*row_id)->columns[index_column_], *row_id));
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.rows_inserted;
  return Status::OK();
}

Status EncryptedTable::InsertBatch(std::vector<Row> rows) {
  for (auto& row : rows) {
    CONCEALER_RETURN_IF_ERROR(Insert(std::move(row)));
  }
  return Status::OK();
}

Status EncryptedTable::FetchRefs(const Slice* keys, size_t n,
                                 std::vector<RowRef>* out) const {
  // Counters are accumulated locally and folded in under the lock once per
  // batch: fetches run concurrently in the parallel query path, and the
  // B+-tree itself is read-only here (paged leaves are read in place,
  // without a lock).
  // Sort the probe set once (each entry carries its probe position, so the
  // caller-visible output order is untouched), resolve every probe in one
  // shared descent (BPlusTree::BulkFind), then emit matches in the
  // original order. A fetch unit's hundreds of trapdoors amortize the
  // root-to-leaf descent instead of repeating it per probe, and on a paged
  // index the batch prefetches its leaf pages in one shot before any probe
  // blocks on disk.
  std::vector<KeyEntry> entries(n);
  for (size_t i = 0; i < n; ++i) entries[i] = KeyEntry::Of(keys[i], i);
  SortKeyEntries(&entries);
  std::vector<Slice> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = entries[i].key;
  std::vector<uint64_t> sorted_ids(n);
  size_t bulk_hits = 0;
  // Fail closed: a paged-index I/O error returns before any ref is
  // appended or any adversary-visible counter moves.
  CONCEALER_RETURN_IF_ERROR(
      index_.BulkFind(sorted.data(), n, sorted_ids.data(), &bulk_hits));
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[entries[i].tag] = sorted_ids[i];
  const uint64_t generation = store_->generation();
  uint64_t hits = 0;
  uint64_t bytes = 0;
  const size_t base = out->size();
  out->reserve(base + n);
  // The matched rows lie scattered over their epoch: run their Row and
  // Column array loads ahead of the emit (RowByteSize reads every column's
  // size and no column byte).
  const RowPrefetcher prefetch(n, [&](size_t i) {
    return ids[i] == BPlusTree::kNoMatch ? nullptr : store_->GetRef(ids[i]);
  });
  for (size_t i = 0; i < n; ++i) {
    prefetch.Ahead(i);
    if (ids[i] == BPlusTree::kNoMatch) continue;
    const Row* row = store_->GetRef(ids[i]);
    if (row == nullptr) {
      // The index holds an id the row heap does not: they disagree, and a
      // shorter answer would hide it. Fail closed like an index I/O error,
      // keeping none of this call's refs and moving no counter.
      out->erase(out->begin() + base, out->end());
      return Status::Corruption("indexed row " + std::to_string(ids[i]) +
                                " is missing from the row heap");
    }
    ++hits;
    bytes += RowByteSize(*row);
    out->push_back(RowRef{ids[i], row, store_.get(), generation, i});
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.index_probes += n;
  stats_.index_hits += hits;
  stats_.rows_fetched += hits;
  stats_.bytes_fetched += bytes;
  return Status::OK();
}

Status EncryptedTable::Scan(
    const std::function<bool(const Row&)>& visitor) const {
  uint64_t scanned = 0;
  for (uint64_t id = 0; id < store_->size(); ++id) {
    const Row* row = store_->GetRef(id);
    if (row == nullptr) {
      // A full scan must cover every row: fail rather than silently
      // shrink the answer, moving no counter, as the fetch path does.
      return Status::Corruption("row " + std::to_string(id) +
                                " is missing from the row heap");
    }
    ++scanned;
    if (!visitor(*row)) break;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.rows_scanned += scanned;
  return Status::OK();
}

Status EncryptedTable::ReindexRows(
    const std::vector<std::pair<uint64_t, Row>>& rows) {
  // Two phases: drop every affected index entry first, then rewrite and
  // re-insert. A one-pass delete/insert would collide when the batch
  // permutes rows (the dynamic-insertion shuffle does exactly that).
  for (const auto& [row_id, row] : rows) {
    if (row.columns.size() != num_columns_) {
      return Status::InvalidArgument("row arity mismatch");
    }
    const Row* old_row = store_->GetRef(row_id);
    if (old_row == nullptr) return Status::NotFound("row id out of range");
    CONCEALER_RETURN_IF_ERROR(
        index_.Delete(old_row->columns[index_column_]));
  }
  for (const auto& [row_id, row] : rows) {
    CONCEALER_RETURN_IF_ERROR(store_->Replace(row_id, row));
    CONCEALER_RETURN_IF_ERROR(
        index_.Insert(store_->GetRef(row_id)->columns[index_column_],
                      row_id));
  }
  return Status::OK();
}

Status EncryptedTable::ReplaceRows(
    const std::vector<std::pair<uint64_t, Row>>& rows) {
  for (const auto& [row_id, row] : rows) {
    if (row.columns.size() != num_columns_) {
      return Status::InvalidArgument("row arity mismatch");
    }
    CONCEALER_RETURN_IF_ERROR(store_->Replace(row_id, row));
  }
  return Status::OK();
}

Status EncryptedTable::PersistPagedIndex() {
  NodeStore* ns = store_->node_store();
  CONCEALER_RETURN_IF_ERROR(index_.SavePaged(ns, store_->durable_generation()));
  // Re-open over the just-renamed file and swap the tree onto it: resident
  // leaves become page stubs read in place from the mapped file.
  CONCEALER_RETURN_IF_ERROR(ns->Open());
  return index_.AttachPaged(ns);
}

Status EncryptedTable::RecoverIndex() {
  if (index_.size() != 0) {
    return Status::FailedPrecondition("index already built");
  }
  // A fresh node file attaches the paged index without touching row bytes
  // or leaf pages (two small reads: footer + directory). Any failure —
  // absent file, stale stamp, torn tail, corrupt directory — falls through
  // to the rebuild: the frame checksums make corruption indistinguishable
  // from staleness here, and both get the same safe answer.
  NodeStore* ns = store_->node_store();
  if (ns->Open().ok() && ns->stamp() == store_->durable_generation() &&
      index_.AttachPaged(ns).ok()) {
    return Status::OK();
  }
  ns->Close();  // The rebuilt tree reads no page; drop the mapping.
  index_ = BPlusTree();
  // Rebuild as a DBMS's sorted index build does: one sort of the keys,
  // then a bottom-up load.
  std::vector<KeyEntry> entries;
  entries.reserve(store_->size());
  for (uint64_t id = 0; id < store_->size(); ++id) {
    const Row* row = store_->GetRef(id);
    if (row == nullptr) {
      return Status::Corruption("recovered row " + std::to_string(id) +
                                " is missing from the row heap");
    }
    if (row->columns.size() != num_columns_) {
      return Status::Corruption("recovered row arity mismatch");
    }
    entries.push_back(KeyEntry::Of(row->columns[index_column_], id));
  }
  SortKeyEntries(&entries);
  std::vector<Slice> keys(entries.size());
  std::vector<uint64_t> row_ids(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    keys[i] = entries[i].key;
    row_ids[i] = entries[i].tag;
  }
  std::vector<KeyEntry>().swap(entries);  // Freed before the tree is built.
  // Equal keys (the rows' Index column must be unique) fail the load with
  // the same InvalidArgument an Insert gives, leaving the index empty.
  return index_.BulkLoad(keys.data(), row_ids.data(), keys.size());
}

}  // namespace concealer
