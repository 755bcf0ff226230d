#include "enclave/oblivious.h"

#include <cassert>
#include <cstring>

namespace concealer {

ObliviousOpCounter& OpCounter() {
  thread_local ObliviousOpCounter counter;
  return counter;
}

uint64_t OGreater(uint64_t x, uint64_t y) {
  ++OpCounter().greater_ops;
  // x > y iff the subtraction y - x borrows (Hacker's Delight 2-12: the
  // borrow-out of a - b is the MSB of (~a & b) | ((~a | b) & (a - b))).
  return ((~y & x) | ((~y | x) & (y - x))) >> 63;
}

uint64_t OMove(uint64_t cond, uint64_t x, uint64_t y) {
  ++OpCounter().move_ops;
  const uint64_t mask = static_cast<uint64_t>(0) - (cond != 0 ? 1 : 0);
  return (x & mask) | (y & ~mask);
}

void OSwapBytes(uint64_t cond, uint8_t* a, uint8_t* b, size_t len) {
  ++OpCounter().swap_ops;
  const uint64_t mask = static_cast<uint64_t>(0) - (cond != 0 ? 1 : 0);
  // Eight bytes per step, then the tail: this is the innermost loop of
  // every bitonic sort, and byte by byte its speed depended on where
  // unrelated code changes happened to place it.
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    const uint64_t t = mask & (x ^ y);
    x ^= t;
    y ^= t;
    std::memcpy(a + i, &x, 8);
    std::memcpy(b + i, &y, 8);
  }
  for (; i < len; ++i) {
    const uint8_t t = static_cast<uint8_t>(mask & (a[i] ^ b[i]));
    a[i] = static_cast<uint8_t>(a[i] ^ t);
    b[i] = static_cast<uint8_t>(b[i] ^ t);
  }
}

void OSwap64(uint64_t cond, uint64_t* a, uint64_t* b) {
  ++OpCounter().swap_ops;
  const uint64_t mask = static_cast<uint64_t>(0) - (cond != 0 ? 1 : 0);
  const uint64_t t = mask & (*a ^ *b);
  *a ^= t;
  *b ^= t;
}

namespace {

constexpr uint64_t kPadKey = ~uint64_t{0};

// Compare-exchange of records i and j (i < j): after the call,
// records[i].key <= records[j].key if dir is ascending.
void CompareExchange(std::vector<SortRecord>* recs, size_t i, size_t j,
                     bool ascending) {
  SortRecord& a = (*recs)[i];
  SortRecord& b = (*recs)[j];
  const uint64_t gt = OGreater(a.key, b.key);
  const uint64_t do_swap = ascending ? gt : (1 - gt);
  OSwap64(do_swap, &a.key, &b.key);
  assert(a.payload.size() == b.payload.size());
  OSwapBytes(do_swap, a.payload.data(), b.payload.data(), a.payload.size());
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void BitonicSort(std::vector<SortRecord>* records) {
  const size_t n = records->size();
  if (n <= 1) return;
  const size_t padded = NextPow2(n);
  const size_t payload_len =
      records->empty() ? 0 : records->front().payload.size();
  for (size_t i = n; i < padded; ++i) {
    SortRecord pad;
    pad.key = kPadKey;
    pad.payload.assign(payload_len, 0);
    records->push_back(std::move(pad));
  }

  // Standard iterative bitonic network: for k = 2,4,...,padded and
  // j = k/2,k/4,...,1 compare-exchange (i, i^j).
  for (size_t k = 2; k <= padded; k <<= 1) {
    for (size_t j = k >> 1; j > 0; j >>= 1) {
      for (size_t i = 0; i < padded; ++i) {
        const size_t partner = i ^ j;
        if (partner > i) {
          const bool ascending = (i & k) == 0;
          CompareExchange(records, i, partner, ascending);
        }
      }
    }
  }
  records->resize(n);
}

void ObliviousPartitionByFlag(std::vector<SortRecord>* records) {
  const size_t n = records->size();
  // Key = (1 - v) * n + rank: all v==1 records sort first, stably.
  for (size_t i = 0; i < n; ++i) {
    SortRecord& r = (*records)[i];
    assert(r.key == 0 || r.key == 1);
    r.key = (1 - r.key) * n + i;
  }
  BitonicSort(records);
}

}  // namespace concealer
