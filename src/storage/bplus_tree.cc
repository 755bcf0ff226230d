#include "storage/bplus_tree.h"

#include <algorithm>

#include "common/coding.h"
#include "storage/node_store.h"

namespace concealer {

struct BPlusTree::Node {
  bool is_leaf;
  std::vector<Bytes> keys;
  // Leaf payloads, parallel to `keys`.
  std::vector<uint64_t> values;
  // Internal children: children.size() == keys.size() + 1.
  std::vector<std::unique_ptr<Node>> children;
  // Leaf chain for ordered scans.
  Node* next_leaf = nullptr;
  // Paged-leaf stub state: when `paged` is true the leaf's keys/values
  // live in the tree's NodeStore under `page_id` and the vectors above are
  // empty. Internal nodes are never paged.
  bool paged = false;
  uint32_t page_id = 0;

  explicit Node(bool leaf) : is_leaf(leaf) {}
};

struct BPlusTree::SplitResult {
  // Non-null when the child split: `separator` is the smallest key of
  // `right`, which must be inserted into the parent.
  std::unique_ptr<Node> right;
  Bytes separator;
};

namespace {

// Index of the first key in `keys[from..)` that is >= `key`, over either
// key container (a resident leaf's vector<Bytes> or a paged leaf's
// vector<Slice>). The bulk leaf merge resumes from its previous position
// instead of re-searching the whole leaf.
template <typename KeyVec>
size_t LowerBoundFrom(const KeyVec& keys, size_t from, Slice key) {
  size_t lo = from, hi = keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (Slice(keys[mid]).Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Index of the first key in `keys` that is >= `key`.
template <typename KeyVec>
size_t LowerBound(const KeyVec& keys, Slice key) {
  return LowerBoundFrom(keys, 0, key);
}

// Child index to descend into for `key`, searching separators [from..):
// first separator > key goes left. BulkFind's per-level cursors resume from
// the previous probe's route (probes ascend, so routes never move left),
// shrinking each binary search to the un-routed suffix of the node.
size_t ChildIndexFrom(const std::vector<Bytes>& keys, size_t from,
                      Slice key) {
  size_t lo = from, hi = keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (Slice(keys[mid]).Compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child index to descend into for `key`: first separator > key goes left.
size_t ChildIndex(const std::vector<Bytes>& keys, Slice key) {
  return ChildIndexFrom(keys, 0, key);
}

// Resolves the sorted probes [lo, hi) — all routed to the same leaf —
// against that leaf's keys/values with one resumed ascending merge. A
// duplicate probe reuses the previous slot's answer, since the cursor may
// already sit at the match.
template <typename KeyVec>
void MergeLeafGroup(const Slice* sorted_keys, uint64_t* row_ids, size_t lo,
                    size_t hi, const KeyVec& keys,
                    const std::vector<uint64_t>& values, size_t* hits) {
  size_t pos = 0;
  for (size_t i = lo; i < hi; ++i) {
    const Slice key = sorted_keys[i];
    if (i > lo && key == sorted_keys[i - 1]) {
      if ((row_ids[i] = row_ids[i - 1]) != BPlusTree::kNoMatch) ++*hits;
      continue;
    }
    row_ids[i] = BPlusTree::kNoMatch;
    pos = LowerBoundFrom(keys, pos, key);
    if (pos < keys.size() && Slice(keys[pos]) == key) {
      row_ids[i] = values[pos];
      ++*hits;
    }
  }
}

}  // namespace

BPlusTree::BPlusTree() : root_(std::make_unique<Node>(/*leaf=*/true)) {}
BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

BPlusTree::SplitResult BPlusTree::InsertRecursive(Node* node, Slice key,
                                                  uint64_t row_id,
                                                  Status* st) {
  if (node->is_leaf) {
    if (node->paged) {
      *st = MaterializeLeaf(node);
      if (!st->ok()) return {};
    }
    const size_t pos = LowerBound(node->keys, key);
    if (pos < node->keys.size() && Slice(node->keys[pos]) == key) {
      *st = Status::InvalidArgument("duplicate index key");
      return {};
    }
    node->keys.insert(node->keys.begin() + pos, key.ToBytes());
    node->values.insert(node->values.begin() + pos, row_id);
    if (node->keys.size() <= kFanout) return {};

    // Split the leaf in half; right half moves to a new node.
    const size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>(/*leaf=*/true);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid),
                       std::make_move_iterator(node->keys.end()));
    right->values.assign(node->values.begin() + mid, node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next_leaf = node->next_leaf;
    node->next_leaf = right.get();
    SplitResult r;
    r.separator = right->keys.front();
    r.right = std::move(right);
    return r;
  }

  const size_t ci = ChildIndex(node->keys, key);
  SplitResult child_split =
      InsertRecursive(node->children[ci].get(), key, row_id, st);
  if (!st->ok() || child_split.right == nullptr) return {};

  node->keys.insert(node->keys.begin() + ci,
                    std::move(child_split.separator));
  node->children.insert(node->children.begin() + ci + 1,
                        std::move(child_split.right));
  if (node->keys.size() <= kFanout) return {};

  // Split the internal node: middle separator is promoted (not kept).
  const size_t mid = node->keys.size() / 2;
  auto right = std::make_unique<Node>(/*leaf=*/false);
  SplitResult r;
  r.separator = std::move(node->keys[mid]);
  right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                     std::make_move_iterator(node->keys.end()));
  for (size_t i = mid + 1; i < node->children.size(); ++i) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  r.right = std::move(right);
  return r;
}

Status BPlusTree::Insert(Slice key, uint64_t row_id) {
  Status st;
  SplitResult split = InsertRecursive(root_.get(), key, row_id, &st);
  if (!st.ok()) return st;
  if (split.right != nullptr) {
    auto new_root = std::make_unique<Node>(/*leaf=*/false);
    new_root->keys.push_back(std::move(split.separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split.right));
    root_ = std::move(new_root);
    ++height_;
  }
  ++size_;
  return Status::OK();
}

Status BPlusTree::BulkLoad(const Slice* sorted_keys, const uint64_t* row_ids,
                           size_t n) {
  if (size_ != 0 || height_ != 1 || store_ != nullptr) {
    return Status::FailedPrecondition("bulk load needs an empty tree");
  }
  if (n == 0) return Status::OK();

  // Leaf level. Leaf i takes keys [i*n/L, (i+1)*n/L): with L =
  // ceil(n / kFanout) every leaf holds at most kFanout keys and, once there
  // are two or more, at least kFanout / 2. The order check compares each
  // key with the copy just made of its predecessor, which is cache-hot.
  std::vector<std::unique_ptr<Node>> level;
  std::vector<Slice> firsts;  // First key of each node's subtree.
  const size_t num_leaves = (n + kFanout - 1) / kFanout;
  level.reserve(num_leaves);
  firsts.reserve(num_leaves);
  Node* prev_leaf = nullptr;
  Slice prev_key;
  for (size_t i = 0; i < num_leaves; ++i) {
    const size_t lo = i * n / num_leaves;
    const size_t hi = (i + 1) * n / num_leaves;
    auto leaf = std::make_unique<Node>(/*leaf=*/true);
    leaf->keys.reserve(hi - lo);
    leaf->values.assign(row_ids + lo, row_ids + hi);
    for (size_t k = lo; k < hi; ++k) {
      if (k > 0) {
        const int cmp = prev_key.Compare(sorted_keys[k]);
        if (cmp == 0) return Status::InvalidArgument("duplicate index key");
        if (cmp > 0) {
          return Status::InvalidArgument("bulk load keys out of order");
        }
      }
      leaf->keys.push_back(sorted_keys[k].ToBytes());
      prev_key = Slice(leaf->keys.back());
    }
    if (prev_leaf != nullptr) prev_leaf->next_leaf = leaf.get();
    prev_leaf = leaf.get();
    firsts.push_back(Slice(leaf->keys.front()));
    level.push_back(std::move(leaf));
  }

  // Internal levels, the same even spread over groups of kFanout + 1
  // children. The separator left of child k is the first key of k's
  // subtree, so exact-match routing (first separator > key goes left)
  // lands every key in its leaf. `firsts` views key bytes owned by the
  // leaves, which no longer move.
  int height = 1;
  while (level.size() > 1) {
    const size_t c = level.size();
    const size_t num_nodes = (c + kFanout) / (kFanout + 1);
    std::vector<std::unique_ptr<Node>> parents;
    std::vector<Slice> parent_firsts;
    parents.reserve(num_nodes);
    parent_firsts.reserve(num_nodes);
    for (size_t j = 0; j < num_nodes; ++j) {
      const size_t lo = j * c / num_nodes;
      const size_t hi = (j + 1) * c / num_nodes;
      auto node = std::make_unique<Node>(/*leaf=*/false);
      node->keys.reserve(hi - lo - 1);
      node->children.reserve(hi - lo);
      for (size_t k = lo; k < hi; ++k) {
        if (k > lo) node->keys.push_back(firsts[k].ToBytes());
        node->children.push_back(std::move(level[k]));
      }
      parent_firsts.push_back(firsts[lo]);
      parents.push_back(std::move(node));
    }
    level = std::move(parents);
    firsts = std::move(parent_firsts);
    ++height;
  }
  root_ = std::move(level.front());
  height_ = height;
  size_ = n;
  return Status::OK();
}

Status BPlusTree::Find(Slice key, uint64_t* row_id, bool* found) const {
  *found = false;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children[ChildIndex(node->keys, key)].get();
  }
  if (node->paged) {
    NodeStore::Page page;
    CONCEALER_RETURN_IF_ERROR(store_->GetPage(node->page_id, &page));
    const size_t pos = LowerBound(page.keys, key);
    if (pos < page.keys.size() && page.keys[pos] == key) {
      *row_id = page.values[pos];
      *found = true;
    }
    return Status::OK();
  }
  const size_t pos = LowerBound(node->keys, key);
  if (pos < node->keys.size() && Slice(node->keys[pos]) == key) {
    *row_id = node->values[pos];
    *found = true;
  }
  return Status::OK();
}

size_t BPlusTree::BulkFindResident(const Slice* sorted_keys, size_t n,
                                   uint64_t* row_ids) const {
  if (n == 0) return 0;
  size_t hits = 0;

  if (root_->is_leaf) {
    // Single-leaf tree: one ascending merge against the leaf's keys.
    MergeLeafGroup(sorted_keys, row_ids, 0, n, root_->keys, root_->values,
                   &hits);
    return hits;
  }

  // Batched descent: route ALL probes through one level before touching
  // the next, instead of chasing each probe root-to-leaf alone. Exact-
  // match routing lands every probe in the one leaf that could hold it
  // (the same leaf Find reaches — lazy deletion removes keys, never
  // separators), so a leaf emptied by deletion simply answers absent.
  //
  // Each level is processed in lockstep lanes: kLanes binary searches
  // advance together, each step prefetching the key blob its NEXT compare
  // will read. A lone search is a chain of serialized cold loads (keys are
  // heap blobs); kLanes in flight overlap their misses. Routed children
  // are prefetched the moment they are chosen and the whole rest of the
  // level is processed before they are read, so the next level's node
  // fetches — the cold leaf loads that dominate a per-key descent — also
  // fly in parallel. Neighboring probes routed to the same node just run
  // the same (cache-hot) search twice; lanes stay independent, which also
  // makes duplicate probes a non-event.
  constexpr size_t kLanes = 16;
  std::vector<const Node*> cur(n, root_.get());
  size_t lo[kLanes], hi[kLanes];
  // Warm the level just routed to before it is searched: the key arrays
  // first (their node structs were prefetched at routing time, up to a
  // whole level ago), then the middle key blob each search's first compare
  // will read; for the leaf level also the payload array read on a hit.
  const auto warm_routed_level = [&](bool is_leaf_level) {
    for (size_t i = 0; i < n; ++i) {
      __builtin_prefetch(cur[i]->keys.data());
      if (is_leaf_level) __builtin_prefetch(cur[i]->values.data());
    }
    for (size_t i = 0; i < n; ++i) {
      const std::vector<Bytes>& keys = cur[i]->keys;
      if (!keys.empty()) __builtin_prefetch(keys[keys.size() / 2].data());
    }
  };
  for (int level = 1; level <= height_; ++level) {
    const bool leaf_level = level == height_;
    if (level < height_ - 1) {
      // Upper levels cover the whole batch with a handful of nodes that
      // stay cache-hot; lockstep buys nothing there. Probes are sorted, so
      // consecutive probes routed through the same node take
      // non-decreasing child slots — each search resumes from the
      // previous route (ChildIndexFrom), scanning the node's separator
      // suffix once per run instead of once per probe.
      const Node* run_node = nullptr;
      size_t run_ci = 0;
      for (size_t i = 0; i < n; ++i) {
        const Node* nd = cur[i];
        const size_t from = nd == run_node ? run_ci : 0;
        run_ci = ChildIndexFrom(nd->keys, from, sorted_keys[i]);
        run_node = nd;
        const Node* child = nd->children[run_ci].get();
        __builtin_prefetch(child);
        cur[i] = child;
      }
      warm_routed_level(level + 1 == height_);
      continue;
    }
    for (size_t base = 0; base < n; base += kLanes) {
      const size_t m = std::min(kLanes, n - base);
      for (size_t j = 0; j < m; ++j) {
        const std::vector<Bytes>& keys = cur[base + j]->keys;
        lo[j] = 0;
        hi[j] = keys.size();
        if (hi[j] > 0) __builtin_prefetch(keys[hi[j] / 2].data());
      }
      bool active = true;
      while (active) {
        active = false;
        for (size_t j = 0; j < m; ++j) {
          if (lo[j] >= hi[j]) continue;
          const std::vector<Bytes>& keys = cur[base + j]->keys;
          const size_t mid = (lo[j] + hi[j]) / 2;
          const int cmp = Slice(keys[mid]).Compare(sorted_keys[base + j]);
          // Internal separators route with upper-bound semantics (first
          // separator > key goes left, as ChildIndex); leaf keys match
          // with lower-bound semantics.
          if (leaf_level ? cmp < 0 : cmp <= 0) {
            lo[j] = mid + 1;
          } else {
            hi[j] = mid;
          }
          if (lo[j] < hi[j]) {
            __builtin_prefetch(keys[(lo[j] + hi[j]) / 2].data());
            active = true;
          }
        }
      }
      if (leaf_level) {
        for (size_t j = 0; j < m; ++j) {
          const size_t i = base + j;
          const Node* leaf = cur[i];
          row_ids[i] = kNoMatch;
          if (lo[j] < leaf->keys.size() &&
              Slice(leaf->keys[lo[j]]) == sorted_keys[i]) {
            row_ids[i] = leaf->values[lo[j]];
            ++hits;
          }
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          const Node* child = cur[base + j]->children[lo[j]].get();
          __builtin_prefetch(child);
          cur[base + j] = child;
        }
      }
    }
    if (leaf_level) break;
    warm_routed_level(level + 1 == height_);
  }
  return hits;
}

Status BPlusTree::BulkFind(const Slice* sorted_keys, size_t n,
                           uint64_t* row_ids, size_t* hits) const {
  *hits = 0;
  if (store_ == nullptr) {
    *hits = BulkFindResident(sorted_keys, n, row_ids);
    return Status::OK();
  }
  if (n == 0) return Status::OK();

  // Route every probe level by level through the resident internal
  // skeleton (run-sharing cursors, as the resident descent's hot upper
  // levels: sorted probes revisiting a node take non-decreasing child
  // slots). After the
  // last internal level, the batch's complete set of leaf pages is known
  // — that is the I/O batching point the level-at-a-time descent was
  // built for: one Prefetch covers every cold page before any probe reads
  // one, so the disk reads overlap instead of serializing per probe.
  std::vector<const Node*> cur(n, root_.get());
  for (int level = 1; level < height_; ++level) {
    const Node* run_node = nullptr;
    size_t run_ci = 0;
    for (size_t i = 0; i < n; ++i) {
      const Node* nd = cur[i];
      const size_t from = nd == run_node ? run_ci : 0;
      run_ci = ChildIndexFrom(nd->keys, from, sorted_keys[i]);
      run_node = nd;
      cur[i] = nd->children[run_ci].get();
    }
  }

  // Distinct paged leaves, in probe order (equal probes share a leaf and
  // consecutive probes share runs, so adjacent-dedupe is exact).
  std::vector<uint32_t> want;
  const Node* prev = nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (cur[i] != prev && cur[i]->paged) want.push_back(cur[i]->page_id);
    prev = cur[i];
  }
  if (!want.empty()) store_->Prefetch(want.data(), want.size());

  // Resolve probe runs leaf by leaf. A resident leaf (re-materialized by
  // an insert/delete since the last persist) merges against its own
  // vectors; a paged leaf is read in place into one Page reused across
  // the groups. Answers are identical to the resident tree's either way.
  NodeStore::Page page;
  size_t i = 0;
  while (i < n) {
    const Node* leaf = cur[i];
    size_t end = i + 1;
    while (end < n && cur[end] == leaf) ++end;
    if (leaf->paged) {
      CONCEALER_RETURN_IF_ERROR(store_->GetPage(leaf->page_id, &page));
      MergeLeafGroup(sorted_keys, row_ids, i, end, page.keys, page.values,
                     hits);
    } else {
      MergeLeafGroup(sorted_keys, row_ids, i, end, leaf->keys, leaf->values,
                     hits);
    }
    i = end;
  }
  return Status::OK();
}

Status BPlusTree::MaterializeLeaf(Node* node) {
  NodeStore::Page page;
  CONCEALER_RETURN_IF_ERROR(store_->GetPage(node->page_id, &page));
  node->keys.reserve(page.keys.size());
  for (const Slice& key : page.keys) node->keys.push_back(key.ToBytes());
  node->values = page.values;
  node->paged = false;
  return Status::OK();
}

Status BPlusTree::Delete(Slice key) {
  Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children[ChildIndex(node->keys, key)].get();
  }
  if (node->paged) {
    CONCEALER_RETURN_IF_ERROR(MaterializeLeaf(node));
  }
  const size_t pos = LowerBound(node->keys, key);
  if (pos >= node->keys.size() || Slice(node->keys[pos]) != key) {
    return Status::NotFound("index key not present");
  }
  node->keys.erase(node->keys.begin() + pos);
  node->values.erase(node->values.begin() + pos);
  --size_;
  had_deletes_ = true;
  return Status::OK();
}

Status BPlusTree::ForEach(
    const std::function<bool(Slice, uint64_t)>& visitor) const {
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children.front().get();
  NodeStore::Page page;
  for (; node != nullptr; node = node->next_leaf) {
    if (node->paged) {
      CONCEALER_RETURN_IF_ERROR(store_->GetPage(node->page_id, &page));
      for (size_t i = 0; i < page.keys.size(); ++i) {
        if (!visitor(page.keys[i], page.values[i])) return Status::OK();
      }
      continue;
    }
    for (size_t i = 0; i < node->keys.size(); ++i) {
      if (!visitor(node->keys[i], node->values[i])) return Status::OK();
    }
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  int leaf_depth = -1;
  size_t leaf_keys = 0;
  CONCEALER_RETURN_IF_ERROR(CheckNode(root_.get(), 0, &leaf_depth, &leaf_keys,
                                      /*is_root=*/true, had_deletes_));
  if (leaf_keys != size_) {
    return Status::Internal("size() disagrees with leaf key count");
  }
  // Leaf chain must visit exactly size_ keys in strictly increasing order.
  size_t chained = 0;
  Bytes prev;
  bool has_prev = false;
  bool ordered = true;
  CONCEALER_RETURN_IF_ERROR(ForEach([&](Slice k, uint64_t) {
    if (has_prev && Slice(prev).Compare(k) >= 0) ordered = false;
    prev = k.ToBytes();
    has_prev = true;
    ++chained;
    return true;
  }));
  if (!ordered) return Status::Internal("leaf chain not strictly increasing");
  if (chained != size_) return Status::Internal("leaf chain key count wrong");
  return Status::OK();
}

Status BPlusTree::CheckNode(const Node* node, int depth, int* leaf_depth,
                            size_t* leaf_keys, bool is_root,
                            bool relax_occupancy) const {
  if (node->is_leaf && node->paged) {
    // Paged leaf: the same checks run against the page read in place (a
    // page's first read since the store's Open verifies its frame
    // checksum, so after a fresh Open this also proves the page bytes are
    // intact).
    NodeStore::Page page;
    CONCEALER_RETURN_IF_ERROR(store_->GetPage(node->page_id, &page));
    if (page.keys.size() > kFanout) return Status::Internal("node overflow");
    if (!is_root && !relax_occupancy && page.keys.size() < kFanout / 4) {
      return Status::Internal("node underflow");
    }
    for (size_t i = 1; i < page.keys.size(); ++i) {
      if (page.keys[i - 1].Compare(page.keys[i]) >= 0) {
        return Status::Internal("node keys not strictly increasing");
      }
    }
    if (*leaf_depth == -1) *leaf_depth = depth;
    if (*leaf_depth != depth) return Status::Internal("leaves at mixed depth");
    *leaf_keys += page.keys.size();
    return Status::OK();
  }
  if (node->keys.size() > kFanout) {
    return Status::Internal("node overflow");
  }
  if (!is_root && !relax_occupancy && node->keys.size() < kFanout / 4) {
    // Splits produce at-least-half-full nodes; quarter-full is a loose lower
    // bound that tolerates no-delete trees built by repeated splits.
    return Status::Internal("node underflow");
  }
  for (size_t i = 1; i < node->keys.size(); ++i) {
    if (Slice(node->keys[i - 1]).Compare(node->keys[i]) >= 0) {
      return Status::Internal("node keys not strictly increasing");
    }
  }
  if (node->is_leaf) {
    if (node->values.size() != node->keys.size()) {
      return Status::Internal("leaf key/value size mismatch");
    }
    if (*leaf_depth == -1) *leaf_depth = depth;
    if (*leaf_depth != depth) return Status::Internal("leaves at mixed depth");
    *leaf_keys += node->keys.size();
    return Status::OK();
  }
  if (node->children.size() != node->keys.size() + 1) {
    return Status::Internal("internal child count mismatch");
  }
  for (const auto& child : node->children) {
    CONCEALER_RETURN_IF_ERROR(
        CheckNode(child.get(), depth + 1, leaf_depth, leaf_keys, false,
                  relax_occupancy));
  }
  return Status::OK();
}

// --- Paged persistence -----------------------------------------------------
//
// Directory body (the NodeStore's opaque tree-directory frame):
//   height(4) | size(8) | had_deletes(1) | node...
//   node: is_leaf(1) | leaf: page_id(4)
//                    | internal: num_keys(4) | {klen(4)|key}* | children...
//
// Pre-order serialization visits leaves in chain order, so page ids are
// dense AND equal to the leaf's chain position — AttachPaged exploits that
// as a structural check (a directory whose i-th leaf names page j != i is
// corrupt).

Status BPlusTree::SaveNode(const Node* node, NodeFileBuilder* builder,
                           Bytes* dir) const {
  dir->push_back(node->is_leaf ? 1 : 0);
  if (node->is_leaf) {
    StatusOr<uint32_t> id(0u);
    if (node->paged) {
      // Stream the page through from the current file — bodies are
      // already in the shared page format.
      NodeStore::Page page;
      CONCEALER_RETURN_IF_ERROR(store_->GetPage(node->page_id, &page));
      id = builder->AppendPage(page.body);
    } else {
      Bytes body;
      PutFixed32(&body, static_cast<uint32_t>(node->keys.size()));
      for (size_t i = 0; i < node->keys.size(); ++i) {
        PutLengthPrefixed(&body, node->keys[i]);
        PutFixed64(&body, node->values[i]);
      }
      id = builder->AppendPage(body);
    }
    if (!id.ok()) return id.status();
    PutFixed32(dir, *id);
    return Status::OK();
  }
  PutFixed32(dir, static_cast<uint32_t>(node->keys.size()));
  for (const Bytes& key : node->keys) PutLengthPrefixed(dir, key);
  for (const auto& child : node->children) {
    CONCEALER_RETURN_IF_ERROR(SaveNode(child.get(), builder, dir));
  }
  return Status::OK();
}

Status BPlusTree::SavePaged(NodeStore* store, uint64_t stamp) const {
  if (store_ != nullptr) {
    // Streaming the paged leaves reads the current file front to back:
    // start that read-ahead up front.
    std::vector<uint32_t> ids;
    const Node* node = root_.get();
    while (!node->is_leaf) node = node->children.front().get();
    for (; node != nullptr; node = node->next_leaf) {
      if (node->paged) ids.push_back(node->page_id);
    }
    store_->Prefetch(ids.data(), ids.size());
  }
  NodeFileBuilder builder(store->path());
  CONCEALER_RETURN_IF_ERROR(builder.Begin());
  Bytes dir;
  PutFixed32(&dir, static_cast<uint32_t>(height_));
  PutFixed64(&dir, size_);
  dir.push_back(had_deletes_ ? 1 : 0);
  CONCEALER_RETURN_IF_ERROR(SaveNode(root_.get(), &builder, &dir));
  return builder.Finish(dir, stamp);
}

Status BPlusTree::AttachPaged(NodeStore* store) {
  if (!store->is_open()) {
    return Status::FailedPrecondition("node store not open");
  }
  const Slice dir(store->directory());
  size_t off = 0;
  if (dir.size() < 13) return Status::Corruption("node directory truncated");
  const uint32_t height = DecodeFixed32(dir.data());
  const uint64_t size = DecodeFixed64(dir.data() + 4);
  const bool had_deletes = dir.data()[12] != 0;
  off = 13;
  if (height < 1 || height > 64) {
    return Status::Corruption("node directory: implausible height");
  }

  // Recursive-descent parse of the skeleton. Structure is forced, not
  // trusted: a node is a leaf iff it sits at the bottom level, page ids
  // must be dense in chain order, and internal fanout must be in range —
  // any deviation is corruption, and the half-built tree is discarded.
  std::vector<Node*> leaves;
  std::function<StatusOr<std::unique_ptr<Node>>(int)> parse =
      [&](int depth) -> StatusOr<std::unique_ptr<Node>> {
    if (off >= dir.size()) {
      return Status::Corruption("node directory truncated");
    }
    const bool is_leaf = dir.data()[off++] != 0;
    if (is_leaf != (depth + 1 == static_cast<int>(height))) {
      return Status::Corruption("node directory: leaf at wrong depth");
    }
    auto node = std::make_unique<Node>(is_leaf);
    if (is_leaf) {
      if (off + 4 > dir.size()) {
        return Status::Corruption("node directory truncated");
      }
      node->page_id = DecodeFixed32(dir.data() + off);
      off += 4;
      if (node->page_id != leaves.size() ||
          node->page_id >= store->num_pages()) {
        return Status::Corruption("node directory: page id out of order");
      }
      node->paged = true;
      leaves.push_back(node.get());
      return StatusOr<std::unique_ptr<Node>>(std::move(node));
    }
    if (off + 4 > dir.size()) {
      return Status::Corruption("node directory truncated");
    }
    const uint32_t num_keys = DecodeFixed32(dir.data() + off);
    off += 4;
    if (num_keys < 1 || num_keys > kFanout) {
      return Status::Corruption("node directory: bad internal fanout");
    }
    node->keys.reserve(num_keys);
    for (uint32_t i = 0; i < num_keys; ++i) {
      Slice key;
      if (!GetLengthPrefixedView(dir, &off, &key)) {
        return Status::Corruption("node directory truncated");
      }
      node->keys.push_back(key.ToBytes());
    }
    node->children.reserve(num_keys + 1);
    for (uint32_t i = 0; i <= num_keys; ++i) {
      StatusOr<std::unique_ptr<Node>> child = parse(depth + 1);
      if (!child.ok()) return child.status();
      node->children.push_back(std::move(*child));
    }
    return StatusOr<std::unique_ptr<Node>>(std::move(node));
  };

  StatusOr<std::unique_ptr<Node>> root = parse(0);
  if (!root.ok()) return root.status();
  if (off != dir.size()) {
    return Status::Corruption("node directory: trailing bytes");
  }
  if (leaves.size() != store->num_pages()) {
    return Status::Corruption("node directory: unreferenced pages");
  }
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    leaves[i]->next_leaf = leaves[i + 1];
  }
  root_ = std::move(*root);
  height_ = static_cast<int>(height);
  size_ = size;
  had_deletes_ = had_deletes;
  store_ = store;
  return Status::OK();
}

}  // namespace concealer
