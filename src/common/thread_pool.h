#ifndef CONCEALER_COMMON_THREAD_POOL_H_
#define CONCEALER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace concealer {

/// Fixed-size worker pool for fan-out/fan-in parallelism. Tasks are
/// std::function thunks; ParallelFor blocks until every index has run, so
/// callers never observe partially applied work. The pool lives outside the
/// simulated enclave boundary model: workers only touch data the caller
/// hands them, and the QueryExecutor hands them per-unit state exclusively
/// (no shared mutable enclave state), keeping the oblivious access pattern
/// of each unit unchanged.
///
/// Scheduling: tasks are dispatched by weighted deficit round-robin (DRR)
/// over *scheduling classes*, not FIFO over one queue. Each class
/// (registered via RegisterClass, one per tenant in the multi-tenant
/// registry) has its own run queue and a deficit counter; workers visit the
/// active classes in a ring and serve up to `weight` tasks per visit. A
/// class that floods the pool therefore delays its own backlog, never
/// another class's: with K active classes a newly submitted task of class c
/// starts within sum(weights of other classes)/weight(c) + 1 dispatches of
/// the front of c's queue, regardless of how deep the other queues are.
/// Untagged submissions land in the always-present default class 0
/// (weight 1), which preserves the old FIFO behavior for single-tenant
/// pools — with one active class, DRR *is* FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is treated as 1 (callers gate
  /// parallelism on num_threads > 1, but the pool stays usable).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task for asynchronous execution, under the submitting
  /// thread's current scheduling class (TagScope) — class 0 if untagged.
  void Submit(std::function<void()> task);

  // --- Scheduling classes (weighted DRR) ---------------------------------

  /// Registers a scheduling class with the given DRR weight (0 is treated
  /// as 1) and returns its id. Ids are never reused. Safe from any thread.
  uint64_t RegisterClass(uint32_t weight);

  /// Retires a class: queued tasks still drain (at the retired class's
  /// weight), but new submissions tagged with the id fall back to class 0
  /// and the bookkeeping is dropped once the queue empties. Unknown ids
  /// and class 0 are no-ops. Safe from any thread.
  void UnregisterClass(uint64_t class_id);

  /// RAII scheduling-class tag: while in scope, Submit (and ParallelFor
  /// helper submissions) from THIS thread to `pool` enqueue under
  /// `class_id`. Scopes nest; the previous tag is restored on destruction.
  /// A null pool or unknown/retired class id degrades to class 0 — tagging
  /// is a scheduling hint, never a correctness dependency.
  class TagScope {
   public:
    TagScope(ThreadPool* pool, uint64_t class_id);
    ~TagScope();
    TagScope(const TagScope&) = delete;
    TagScope& operator=(const TagScope&) = delete;

   private:
    const ThreadPool* prev_pool_;
    uint64_t prev_class_;
  };

  struct ClassStats {
    uint64_t dispatched = 0;  // Tasks handed to a worker so far.
    size_t queued = 0;        // Tasks currently waiting.
    uint32_t weight = 1;
  };
  /// Stats for one class; zeroes for unknown ids (a retired class's entry
  /// disappears once its queue drains).
  ClassStats class_stats(uint64_t class_id) const;

  /// Runs fn(i) for i in [0, n) across the pool and waits for all of them.
  /// fn must be safe to invoke concurrently for distinct indices. The
  /// calling thread participates, so a 1-thread pool degenerates to a
  /// serial loop with no cross-thread handoff, and — because completion
  /// waits only for drains actually executing fn, never for queued helper
  /// tasks to be scheduled — the call finishes even when every worker is
  /// stuck in unrelated work (e.g. blocked on a lock the caller holds: a
  /// shared service pool's batch tasks waiting on an epoch lock held by a
  /// fetch fan-out's caller). If fn throws, every drain inside fn is
  /// still waited out before the first exception is rethrown here. Nested
  /// calls on the SAME pool (fn invoking this pool's ParallelFor again)
  /// are detected and run inline — they get no extra parallelism, but they
  /// cannot deadlock the pool. Nesting across distinct pools parallelizes
  /// normally (a batch fan-out composes with a provider's per-query fetch
  /// pool).
  ///
  /// Helper tasks are submitted under the calling thread's scheduling
  /// class and re-tag their worker thread with it, so nested fan-out from
  /// inside fn stays attributed to the same class — a tenant's fetch
  /// fan-out cannot launder work into another tenant's (or the default)
  /// queue.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// ParallelFor variant that also hands fn a worker slot in
  /// [0, num_threads()): the calling thread drains as slot 0, the i-th
  /// enlisted helper as slot i+1. At any instant each live slot is driven
  /// by exactly one thread, so fn may index per-slot scratch state (e.g.
  /// reusable crypto buffers) without synchronization. Same-pool nested
  /// calls run inline under the enclosing invocation's slot.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

  size_t num_threads() const { return workers_.size() + 1; }

 private:
  struct SchedClass {
    uint32_t weight = 1;
    /// Remaining task slots in the current ring visit (DRR deficit).
    uint32_t deficit = 0;
    std::deque<std::function<void()>> queue;
    bool in_ring = false;
    /// Unregistered while tasks were still queued: drain, then erase.
    bool retired = false;
    uint64_t dispatched = 0;
  };

  void WorkerLoop();
  /// The submitting thread's class for THIS pool (0 if untagged).
  uint64_t CurrentClass() const;
  /// Enqueues under `class_id` (falling back to 0 for unknown/retired
  /// ids) and activates the class in the ring. Caller must NOT hold mu_.
  void Enqueue(uint64_t class_id, std::function<void()> task);
  /// Picks the next task by DRR over the active-class ring. Caller holds
  /// mu_ and has checked queued_ > 0.
  std::function<void()> DequeueLocked();

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, SchedClass> classes_;  // Always contains 0.
  std::deque<uint64_t> ring_;  // Active classes in DRR visiting order.
  size_t queued_ = 0;          // Total tasks across all class queues.
  uint64_t next_class_ = 1;
  bool stop_ = false;
};

}  // namespace concealer

#endif  // CONCEALER_COMMON_THREAD_POOL_H_
