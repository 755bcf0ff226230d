#ifndef CONCEALER_STORAGE_BPLUS_TREE_H_
#define CONCEALER_STORAGE_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace concealer {

class NodeStore;
class NodeFileBuilder;

/// B+-tree mapping opaque byte-string keys to 64-bit row ids.
///
/// This is the stand-in for the DBMS index the paper relies on ("Concealer
/// exploits the index supported by MySQL", §1): the data provider emits one
/// opaque `Index(L,T)` ciphertext per row, the storage engine indexes that
/// column with an ordinary B-tree, and the enclave's trapdoors are exact-
/// match probes into this tree. Keys are unique (DET over `cid‖ctr` is
/// injective within an epoch).
///
/// Leaf nodes are linked for ordered scans; internal nodes hold separator
/// keys. Fanout is fixed at compile time.
///
/// Paged mode: AttachPaged() rebinds the tree to a NodeStore — internal
/// levels stay resident (their keys are ~1/kFanout of the total), leaf
/// nodes become stubs that name an on-disk node page, and lookups read
/// pages in place from the store's mapped node file. Datasets whose index
/// exceeds RAM stay serveable; answers are byte-identical to the resident
/// tree. Paged I/O can fail, so every probe (Find, BulkFind, ForEach)
/// returns a Status and fails closed on a corrupt or unreadable page
/// instead of answering wrong. Insert/Delete transparently re-materialize
/// the leaf they touch (the node file goes stale; its generation stamp
/// catches that at the next recovery, and the next persist rewrites it).
class BPlusTree {
 public:
  static constexpr int kFanout = 64;  // Max keys per node.

  BPlusTree();
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  /// Movable so a table can discard a half-attached index and rebuild it
  /// from the engine's rows.
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts a key→row_id mapping. Fails with kInvalidArgument on duplicate
  /// keys (encrypted index values are unique by construction; a duplicate
  /// indicates data corruption or a misused epoch key).
  Status Insert(Slice key, uint64_t row_id);

  /// Builds the tree bottom-up from `n` keys in ascending order, as a
  /// DBMS's sorted index build does: the keys are spread evenly over
  /// ceil(n / kFanout) linked leaves, and each internal level groups up to
  /// kFanout + 1 children evenly, with each separator the first key of its
  /// child's subtree. Every non-root node ends at least half full, so the
  /// result passes CheckInvariants and saves/attaches like an inserted
  /// tree. Works on a freshly constructed tree only (FailedPrecondition
  /// otherwise). Equal adjacent keys fail with kInvalidArgument
  /// ("duplicate index key", as Insert) and keys out of order with
  /// kInvalidArgument too; either way the tree is left empty.
  Status BulkLoad(const Slice* sorted_keys, const uint64_t* row_ids,
                  size_t n);

  /// Removes a key (lazy deletion: the entry leaves its leaf but no
  /// rebalancing occurs; nodes may drop below the usual occupancy floor).
  /// Deletes happen only on the rare dynamic-insertion re-encryption path,
  /// so tree quality is unaffected in practice. Returns kNotFound if absent.
  Status Delete(Slice key);

  size_t size() const { return size_; }
  /// Height of the tree (1 = a single leaf). Exposed for tests.
  int height() const { return height_; }

  /// Validates B+-tree invariants (sorted keys, node occupancy, uniform leaf
  /// depth, leaf chain consistency). Used by property tests. In paged mode
  /// this reads every page; right after the store's Open() each read
  /// checks its page's checksum, so it doubles as a full-file integrity
  /// scan.
  Status CheckInvariants() const;

  /// Exact-match probe: `*found` and `*row_id` are set on a hit, `*found`
  /// is false on a clean miss (no Status is built for a miss, so a fake
  /// trapdoor beyond the stored range costs nothing extra), and a paged
  /// I/O or corruption failure returns non-OK with outputs untouched by the
  /// failing page.
  Status Find(Slice key, uint64_t* row_id, bool* found) const;

  /// Row-id sentinel BulkFind stores for probes that match nothing (row
  /// ids are dense from 0, so all-ones can never collide).
  static constexpr uint64_t kNoMatch = ~uint64_t{0};

  /// Bulk exact-match probe over an ascending-sorted probe set (duplicate
  /// probes allowed; a caller that needs its own output order carries
  /// each probe's position through its sort — see
  /// EncryptedTable::FetchRefs). For each i,
  /// row_ids[i] receives the row id of sorted_keys[i], or kNoMatch;
  /// `*hits` counts the matches. Answers are exactly n calls of Find.
  ///
  /// The descent is batched level by level (Palm-style): every probe is
  /// routed through one level before any probe touches the next, so the
  /// cache misses of a level's node and key-blob reads overlap across the
  /// whole batch instead of serializing per probe. Lazy deletion removes
  /// keys but never separators, so exact-match routing lands each probe in
  /// exactly the leaf Find would reach; a leaf emptied by deletes simply
  /// answers kNoMatch.
  ///
  /// Resident trees run lockstep lanes over the cold bottom two levels (a
  /// handful of binary searches advance together, each step prefetching
  /// the key blob its next compare will read). Paged trees route through
  /// the resident skeleton, and once every probe has its leaf the distinct
  /// leaf pages the batch needs are known: one batched NodeStore::Prefetch
  /// is issued before any probe reads a page, so the cold reads overlap
  /// instead of serializing probe by probe. Fails closed on page damage.
  Status BulkFind(const Slice* sorted_keys, size_t n, uint64_t* row_ids,
                  size_t* hits) const;

  /// In-order visitation of all (key, row_id) pairs (reads each leaf page
  /// along the chain in paged mode). Visitor returns false to stop early;
  /// an early stop is not an error.
  Status ForEach(const std::function<bool(Slice, uint64_t)>& visitor) const;

  // --- Paged mode (see the class comment) --------------------------------

  /// Serializes the tree into `store`'s node file (crash-safe: tmp +
  /// rename), stamping it with `stamp` (the engine's durable_generation —
  /// the node file's freshness rule). Works on resident, paged or mixed
  /// trees; paged leaves are streamed through from the current file, after
  /// one NodeStore::Prefetch of those not yet read. Does not change this
  /// tree — call store->Open() + AttachPaged() to
  /// swap onto the new file.
  Status SavePaged(NodeStore* store, uint64_t stamp) const;

  /// Replaces this tree with the one in `store` (must be Open()): internal
  /// skeleton resident, every leaf a page stub. Fails with kCorruption on
  /// a malformed directory, leaving the tree empty. `store` must outlive
  /// the tree (EncryptedTable's engine owns both, in that order).
  Status AttachPaged(NodeStore* store);

  /// True when leaves may live in a NodeStore.
  bool paged() const { return store_ != nullptr; }

 private:
  struct Node;
  struct SplitResult;

  SplitResult InsertRecursive(Node* node, Slice key, uint64_t row_id,
                              Status* st);
  /// BulkFind on a fully resident tree (the lockstep-lane descent).
  size_t BulkFindResident(const Slice* sorted_keys, size_t n,
                          uint64_t* row_ids) const;
  Status CheckNode(const Node* node, int depth, int* leaf_depth,
                   size_t* leaf_keys, bool is_root,
                   bool relax_occupancy) const;
  /// Copies a paged leaf's page back into the node (mutation path).
  Status MaterializeLeaf(Node* node);
  Status SaveNode(const Node* node, NodeFileBuilder* builder,
                  Bytes* dir) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  int height_ = 1;
  bool had_deletes_ = false;  // Relaxes the occupancy invariant check.
  /// Non-owned page source for paged leaves (null = fully resident).
  NodeStore* store_ = nullptr;
};

}  // namespace concealer

#endif  // CONCEALER_STORAGE_BPLUS_TREE_H_
