#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <utility>

namespace concealer {

namespace {
// The pool whose ParallelFor work this thread is currently executing (pool
// null outside any) and the worker slot it drains under. A nested
// ParallelFor on the SAME pool would enqueue helper tasks no free worker
// can ever take (the nesting thread is the one blocked waiting), so
// same-pool nesting runs inline — under the enclosing slot, so per-slot
// scratch stays single-threaded. Nesting across DISTINCT pools proceeds
// normally — e.g. a batch fanned out on one pool whose queries' fetch
// units then fan out on a provider's own pool — and cannot deadlock: every
// ParallelFor's calling thread drains indices itself, so progress never
// depends on another pool's workers being free.
struct ParallelForTls {
  const ThreadPool* pool = nullptr;
  size_t worker = 0;
};
thread_local ParallelForTls tls_parallel_for;

struct InParallelForGuard {
  InParallelForGuard(const ThreadPool* pool, size_t worker)
      : prev(tls_parallel_for) {
    tls_parallel_for.pool = pool;
    tls_parallel_for.worker = worker;
  }
  ~InParallelForGuard() { tls_parallel_for = prev; }
  ParallelForTls prev;
};

// The scheduling class this thread's submissions are tagged with, per
// TagScope. One slot suffices (rather than a per-pool map): a thread
// tagging pool A then submitting to pool B simply falls back to B's
// default class — tagging is a scheduling hint, never correctness.
struct SchedTagTls {
  const ThreadPool* pool = nullptr;
  uint64_t class_id = 0;
};
thread_local SchedTagTls tls_sched_tag;
}  // namespace

ThreadPool::TagScope::TagScope(ThreadPool* pool, uint64_t class_id)
    : prev_pool_(tls_sched_tag.pool), prev_class_(tls_sched_tag.class_id) {
  tls_sched_tag.pool = pool;
  tls_sched_tag.class_id = class_id;
}

ThreadPool::TagScope::~TagScope() {
  tls_sched_tag.pool = prev_pool_;
  tls_sched_tag.class_id = prev_class_;
}

uint64_t ThreadPool::CurrentClass() const {
  return tls_sched_tag.pool == this ? tls_sched_tag.class_id : 0;
}

ThreadPool::ThreadPool(size_t num_threads) {
  classes_[0];  // The default class: weight 1, never retired.
  // The submitting thread always participates in ParallelFor, so spawn one
  // fewer worker than the requested parallelism.
  const size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

uint64_t ThreadPool::RegisterClass(uint32_t weight) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_class_++;
  classes_[id].weight = weight == 0 ? 1 : weight;
  return id;
}

void ThreadPool::UnregisterClass(uint64_t class_id) {
  if (class_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(class_id);
  if (it == classes_.end()) return;
  if (it->second.queue.empty()) {
    // Not in the ring (empty queue implies removed from it), safe to drop.
    classes_.erase(it);
  } else {
    // Queued tasks (typically ParallelFor helpers, harmless to run late)
    // still drain; DequeueLocked erases the class once its queue empties.
    it->second.retired = true;
  }
}

ThreadPool::ClassStats ThreadPool::class_stats(uint64_t class_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ClassStats stats;
  auto it = classes_.find(class_id);
  if (it == classes_.end()) return stats;
  stats.dispatched = it->second.dispatched;
  stats.queued = it->second.queue.size();
  stats.weight = it->second.weight;
  return stats;
}

void ThreadPool::Enqueue(uint64_t class_id, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = classes_.find(class_id);
    if (it == classes_.end() || it->second.retired) it = classes_.find(0);
    SchedClass& cls = it->second;
    cls.queue.push_back(std::move(task));
    ++queued_;
    if (!cls.in_ring) {
      cls.in_ring = true;
      ring_.push_back(it->first);
    }
  }
  cv_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) {
  Enqueue(CurrentClass(), std::move(task));
}

std::function<void()> ThreadPool::DequeueLocked() {
  // Deficit round-robin over the active ring: a class reaching the front
  // with no remaining deficit starts a fresh visit of `weight` servings;
  // it rotates to the back when the visit is spent or its queue drains
  // (residual deficit is forfeited, per DRR, so an idle class cannot bank
  // credit and later burst past its weight).
  for (;;) {
    SchedClass& cls = classes_.find(ring_.front())->second;
    if (cls.queue.empty()) {
      const uint64_t id = ring_.front();
      ring_.pop_front();
      cls.in_ring = false;
      cls.deficit = 0;
      if (cls.retired) classes_.erase(id);
      continue;
    }
    if (cls.deficit == 0) cls.deficit = cls.weight;
    std::function<void()> task = std::move(cls.queue.front());
    cls.queue.pop_front();
    --queued_;
    ++cls.dispatched;
    --cls.deficit;
    if (cls.deficit == 0 || cls.queue.empty()) {
      const uint64_t id = ring_.front();
      ring_.pop_front();
      if (cls.queue.empty()) {
        cls.in_ring = false;
        cls.deficit = 0;
        if (cls.retired) classes_.erase(id);
      } else {
        ring_.push_back(id);
      }
    }
    return task;
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (stop_ && queued_ == 0) return;
      task = DequeueLocked();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  ParallelFor(n, [&fn](size_t i, size_t /*worker*/) { fn(i); });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (tls_parallel_for.pool == this) {
    // Same-pool nested ParallelFor (fn itself fanning out on this pool)
    // degrades to inline execution instead of deadlocking on the occupied
    // workers; it keeps the slot of the enclosing drain so per-slot
    // scratch state stays owned by one thread.
    for (size_t i = 0; i < n; ++i) fn(i, tls_parallel_for.worker);
    return;
  }
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  // Dynamic index dispenser: workers and the calling thread pull the next
  // index until exhausted, so uneven per-unit costs (bins of different
  // padded sizes) still balance.
  //
  // Completion protocol: the caller waits until every index is dispensed
  // AND no drain is still inside fn — NOT until every submitted helper
  // task has been executed. A helper still sitting in the queue when the
  // dispenser runs dry will, whenever it finally runs, dispense i >= n
  // and return without touching fn, so it may safely outlive this call
  // (its closure holds only shared_ptr control state plus an un-invoked
  // copy of fn). The distinction is load-bearing for deadlock freedom on
  // a process-wide shared pool: every worker can be busy with an
  // unrelated task that blocks on a lock the caller currently holds
  // (e.g. a batch-scheduled query waiting for the epoch lock a fetch
  // fan-out's caller took shared) — if completion required those workers
  // to execute our helpers, this wait could never end. The caller's own
  // drain guarantees progress even if no helper ever runs. It is also
  // what makes DRR safe here: a helper delayed behind other classes'
  // queues delays only extra parallelism, never completion.
  //
  // A throw from fn (worker or caller) stops the dispenser; the wait
  // still covers every drain that entered fn — callers capture stack
  // locals by reference, so returning (or unwinding) while fn runs
  // elsewhere would be use-after-scope — and the first exception is
  // rethrown on the calling thread.
  struct Control {
    std::atomic<size_t> next{0};
    size_t n = 0;
    std::mutex mu;
    std::condition_variable cv;
    size_t live = 0;  // Drains between registration and their last index.
    std::exception_ptr first_error;
  };
  auto ctl = std::make_shared<Control>();
  ctl->n = n;

  // `worker` is this drain's slot: 0 for the calling thread, i+1 for the
  // i-th helper task. Each slot is driven by exactly one thread at a time.
  auto drain = [this, ctl, fn](size_t worker) {
    {
      // Register BEFORE dispensing, so the caller's completion predicate
      // (all dispensed && live == 0) can never miss a drain that is
      // about to enter fn.
      std::lock_guard<std::mutex> lock(ctl->mu);
      ++ctl->live;
    }
    InParallelForGuard guard(this, worker);
    for (;;) {
      const size_t i = ctl->next.fetch_add(1);
      if (i >= ctl->n) break;
      try {
        fn(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(ctl->mu);
        if (!ctl->first_error) ctl->first_error = std::current_exception();
        ctl->next.store(ctl->n);  // Stop dispensing further indices.
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(ctl->mu);
      --ctl->live;
    }
    ctl->cv.notify_all();
  };

  // Helpers enqueue under — and re-tag their worker thread with — the
  // calling thread's scheduling class, so any fan-out nested inside fn
  // (a tenant query's fetch units spawning on a second pool) stays
  // attributed to the same class as the caller.
  const uint64_t sched_class = CurrentClass();
  const size_t helpers = std::min(workers_.size(), n - 1);
  for (size_t w = 0; w < helpers; ++w) {
    Enqueue(sched_class, [this, drain, sched_class, w] {
      TagScope tag(this, sched_class);
      drain(w + 1);
    });
  }
  drain(0);

  std::unique_lock<std::mutex> lock(ctl->mu);
  ctl->cv.wait(lock, [&ctl] {
    return ctl->live == 0 && ctl->next.load() >= ctl->n;
  });
  if (ctl->first_error) std::rethrow_exception(ctl->first_error);
}

}  // namespace concealer
