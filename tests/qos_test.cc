// Per-tenant QoS tests: weighted deficit-round-robin scheduling on the
// shared pool (deterministic starvation/proportionality checks — a single
// pinned worker makes the dispatch order exact, no wall-time sleeps),
// admission backpressure (Unavailable + retry-after through the tenant
// registry, fault-injection hook pinning a slot, retrying client), and
// byte-identity of the whole QoS path against a dedicated pre-QoS service.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "concealer/data_provider.h"
#include "concealer/wire.h"
#include "enclave/registry.h"
#include "service/admission_gate.h"
#include "service/retry.h"
#include "service/tenant_registry.h"
#include "workload/wifi_generator.h"
#include "test_dir.h"

namespace concealer {
namespace {

// --- Deterministic synchronization helpers (no wall-time sleeps) ----------

class Latch {
 public:
  void Signal() {
    // Notify under the lock: the waiter may destroy this latch the moment
    // it observes done_, so the cv must not be touched after unlocking.
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

/// Records task execution order and lets the test block until N ran.
class OrderLog {
 public:
  void Record(char c) {
    // Notify under the lock (see Latch::Signal): the waiter may destroy
    // this log as soon as it sees the final entry.
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(c);
    cv_.notify_all();
  }
  std::string WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return order_.size() >= n; });
    return order_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string order_;
};

// --- Scheduler: weighted DRR on the ThreadPool ----------------------------
//
// Recipe: a 2-thread pool has exactly one worker. A gate task pins that
// worker before anything else is submitted, so the tagged tasks pile up in
// their class queues; releasing the gate then replays them one at a time in
// exact DRR order — fully deterministic, regardless of machine speed.

TEST(QosSchedulerTest, FloodedClassCannotStarveAnother) {
  ThreadPool pool(2);
  Latch started, release;
  pool.Submit([&] {
    started.Signal();
    release.Wait();
  });
  started.Wait();  // The lone worker is pinned; submissions below queue up.

  const uint64_t flood = pool.RegisterClass(1);
  const uint64_t victim = pool.RegisterClass(1);
  OrderLog log;
  constexpr size_t kFlood = 40;
  {
    ThreadPool::TagScope tag(&pool, flood);
    for (size_t i = 0; i < kFlood; ++i) pool.Submit([&] { log.Record('F'); });
  }
  {
    ThreadPool::TagScope tag(&pool, victim);
    pool.Submit([&] { log.Record('V'); });
  }

  release.Signal();
  const std::string order = log.WaitFor(kFlood + 1);
  // FIFO would run the victim last (index 40). DRR serves it on the very
  // next round: one flood task (its weight-1 visit), then the victim.
  ASSERT_EQ(order.size(), kFlood + 1);
  EXPECT_EQ(order[1], 'V') << order;
  EXPECT_EQ(pool.class_stats(flood).dispatched, kFlood);
}

TEST(QosSchedulerTest, WeightsServeProportionally) {
  ThreadPool pool(2);
  Latch started, release;
  pool.Submit([&] {
    started.Signal();
    release.Wait();
  });
  started.Wait();

  const uint64_t heavy = pool.RegisterClass(3);
  const uint64_t light = pool.RegisterClass(1);
  OrderLog log;
  {
    ThreadPool::TagScope tag(&pool, heavy);
    for (int i = 0; i < 9; ++i) pool.Submit([&] { log.Record('H'); });
  }
  {
    ThreadPool::TagScope tag(&pool, light);
    for (int i = 0; i < 3; ++i) pool.Submit([&] { log.Record('L'); });
  }

  release.Signal();
  // 3:1 interleave, exactly: each ring round serves three heavy then one
  // light task.
  EXPECT_EQ(log.WaitFor(12), "HHHLHHHLHHHL");
  EXPECT_EQ(pool.class_stats(heavy).weight, 3u);
  EXPECT_EQ(pool.class_stats(light).weight, 1u);
}

TEST(QosSchedulerTest, UntaggedSubmissionsStayFifo) {
  ThreadPool pool(2);
  Latch started, release;
  pool.Submit([&] {
    started.Signal();
    release.Wait();
  });
  started.Wait();

  OrderLog log;
  for (char c : {'a', 'b', 'c', 'd', 'e'}) {
    pool.Submit([&log, c] { log.Record(c); });
  }
  release.Signal();
  // One active class (the default 0): DRR degenerates to plain FIFO — the
  // pre-QoS behavior single-tenant pools rely on.
  EXPECT_EQ(log.WaitFor(5), "abcde");
}

TEST(QosSchedulerTest, ParallelForHelpersInheritCallersClass) {
  ThreadPool pool(4);  // 3 workers.
  const uint64_t cls = pool.RegisterClass(2);
  std::atomic<int> ran{0};
  {
    ThreadPool::TagScope tag(&pool, cls);
    pool.ParallelFor(8, [&](size_t) { ++ran; });
  }
  EXPECT_EQ(ran.load(), 8);
  // The fan-out enqueued min(workers, n-1) = 3 helper tasks under the
  // caller's class. Completion never waits for queued helpers, so some may
  // still be pending — dispatched + queued accounts for all of them either
  // way. Nothing may land in another class's queue.
  const ThreadPool::ClassStats stats = pool.class_stats(cls);
  EXPECT_EQ(stats.dispatched + stats.queued, 3u);
  EXPECT_EQ(stats.weight, 2u);
}

TEST(QosSchedulerTest, UnregisterDrainsQueueAndFallsBackToDefault) {
  ThreadPool pool(2);
  Latch started, release;
  pool.Submit([&] {
    started.Signal();
    release.Wait();
  });
  started.Wait();

  const uint64_t cls = pool.RegisterClass(1);
  OrderLog log;
  {
    ThreadPool::TagScope tag(&pool, cls);
    pool.Submit([&] { log.Record('1'); });
    pool.Submit([&] { log.Record('2'); });
  }
  pool.UnregisterClass(cls);  // Queue non-empty: retired, still drains.
  {
    // Submissions under a retired class fall back to class 0.
    ThreadPool::TagScope tag(&pool, cls);
    pool.Submit([&] { log.Record('3'); });
  }

  release.Signal();
  // Ring [cls, 0]: one retired task (weight-1 visit), the fallback task,
  // the last retired task — nothing is lost, nothing runs twice.
  EXPECT_EQ(log.WaitFor(3), "132");
  // The retired class's bookkeeping is gone once its queue drained.
  const ThreadPool::ClassStats stats = pool.class_stats(cls);
  EXPECT_EQ(stats.dispatched, 0u);
  EXPECT_EQ(stats.queued, 0u);
  // Unknown ids and class 0 are no-ops, not crashes.
  pool.UnregisterClass(cls);
  pool.UnregisterClass(0);
}

// --- Admission gate -------------------------------------------------------

TEST(QosAdmissionTest, UnavailableStatusCarriesRetryAfter) {
  Status status = Status::Unavailable("try later").WithRetryAfterMs(7);
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(status.retry_after_ms(), 7u);
  EXPECT_NE(status.ToString().find("retry after 7ms"), std::string::npos)
      << status.ToString();
  // Other codes carry no hint.
  EXPECT_EQ(Status::NotFound("x").retry_after_ms(), 0u);
}

TEST(QosAdmissionTest, FailFastRejectsAtCapacity) {
  AdmissionGate gate(1, /*reject_over_capacity=*/true);
  {
    StatusOr<AdmissionGate::Slot> first = gate.Admit();
    ASSERT_TRUE(first.ok());

    StatusOr<AdmissionGate::Slot> second = gate.Admit();
    ASSERT_FALSE(second.ok());
    EXPECT_TRUE(second.status().IsUnavailable());
    // No service-time sample yet: the default hint applies.
    EXPECT_EQ(second.status().retry_after_ms(), 5u);

    AdmissionGate::Stats stats = gate.stats();
    EXPECT_EQ(stats.capacity, 1u);
    EXPECT_EQ(stats.inflight, 1u);
    EXPECT_EQ(stats.admitted, 1u);
    EXPECT_EQ(stats.rejected, 1u);
  }  // The slot releases on scope exit.
  EXPECT_TRUE(gate.Admit().ok());  // Capacity restored.
  EXPECT_EQ(gate.stats().admitted, 2u);
}

TEST(QosAdmissionTest, HintTracksServiceTimeEwma) {
  std::atomic<uint64_t> now{0};
  AdmissionGate gate(4, /*reject_over_capacity=*/true,
                     [&now] { return now.load(); });

  {
    StatusOr<AdmissionGate::Slot> slot = gate.Admit();
    ASSERT_TRUE(slot.ok());
    now = 80;  // The query took 80ms.
  }
  // First sample seeds the EWMA directly: 80ms across 4 slots = one slot
  // freeing every 20ms on average.
  EXPECT_EQ(gate.stats().ewma_ms, 80u);
  EXPECT_EQ(gate.RetryAfterHintMs(), 20u);

  {
    StatusOr<AdmissionGate::Slot> slot = gate.Admit();
    ASSERT_TRUE(slot.ok());
    now = 120;  // 40ms.
  }
  // EWMA alpha 1/8: 80 + (40-80)/8 = 75; hint = ceil(75/4) = 19.
  EXPECT_EQ(gate.stats().ewma_ms, 75u);
  EXPECT_EQ(gate.RetryAfterHintMs(), 19u);
}

TEST(QosAdmissionTest, HintIsClamped) {
  std::atomic<uint64_t> now{0};
  AdmissionGate slow(1, true, [&now] { return now.load(); });
  {
    StatusOr<AdmissionGate::Slot> slot = slow.Admit();
    ASSERT_TRUE(slot.ok());
    now = 10'000'000;  // A pathological 10000-second query.
  }
  EXPECT_EQ(slow.RetryAfterHintMs(), 10'000u);  // Ceiling: 10s.

  std::atomic<uint64_t> frozen{42};
  AdmissionGate fast(8, true, [&frozen] { return frozen.load(); });
  {
    StatusOr<AdmissionGate::Slot> slot = fast.Admit();
    ASSERT_TRUE(slot.ok());
  }  // 0ms elapsed.
  EXPECT_EQ(fast.RetryAfterHintMs(), 1u);  // Floor: never tell clients 0.
}

TEST(QosAdmissionTest, BlockingModeWaitsForASlot) {
  AdmissionGate gate(1, /*reject_over_capacity=*/false);
  auto held = std::make_unique<StatusOr<AdmissionGate::Slot>>(gate.Admit());
  ASSERT_TRUE(held->ok());

  Latch admitted;
  std::thread waiter([&] {
    StatusOr<AdmissionGate::Slot> slot = gate.Admit();  // Blocks: cap is 1.
    EXPECT_TRUE(slot.ok());
    admitted.Signal();
  });
  held.reset();  // Frees the slot; the waiter proceeds.
  admitted.Wait();
  waiter.join();
  AdmissionGate::Stats stats = gate.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

// --- Tenant fixtures (mirrors tenant_test.cc) -----------------------------

ConcealerConfig QosTestConfig() {
  ConcealerConfig config;
  config.key_buckets = {8};
  config.key_domains = {20};
  config.time_buckets = 24;
  config.num_cell_ids = 40;
  config.epoch_seconds = 86400;
  config.time_quantum = 60;
  config.make_hash_chains = true;
  return config;
}

struct TenantFixture {
  std::string id;
  ConcealerConfig config;
  std::unique_ptr<DataProvider> dp;
  std::vector<EncryptedEpoch> epochs;
  Bytes user_secret;
};

TenantFixture MakeTenant(const std::string& id, uint8_t seed,
                         uint64_t days = 1) {
  TenantFixture t;
  t.id = id;
  t.config = QosTestConfig();
  t.dp = std::make_unique<DataProvider>(t.config, Bytes(32, seed));
  const std::string secret = "secret-" + id;
  t.user_secret = Bytes(secret.begin(), secret.end());
  EXPECT_TRUE(t.dp->RegisterUser("alice", t.user_secret, "").ok());
  WifiConfig wifi;
  wifi.num_access_points = 20;
  wifi.num_devices = 50;
  wifi.start_time = 0;
  wifi.duration_seconds = days * 86400;
  wifi.total_rows = 1200 * days;
  wifi.seed = seed;
  auto epochs = t.dp->EncryptAll(WifiGenerator(wifi).Generate());
  EXPECT_TRUE(epochs.ok());
  t.epochs = std::move(*epochs);
  return t;
}

Bytes AliceProof(const TenantFixture& t) {
  return Registry::MakeProof(t.user_secret, "alice");
}

void Provision(TenantRegistry* registry, const TenantFixture& t,
               const TenantQoS& qos = {}) {
  ASSERT_TRUE(
      registry->CreateTenant(t.id, t.config, t.dp->shared_secret(), qos).ok());
  ASSERT_TRUE(registry->LoadRegistry(t.id, t.dp->EncryptedRegistry()).ok());
  for (const auto& e : t.epochs) {
    ASSERT_TRUE(registry->IngestEpoch(t.id, e).ok());
  }
}

/// Day-1 workload (fixtures here default to 1 day of data).
std::vector<Query> Day1Queries() {
  std::vector<Query> queries;
  for (uint64_t k : {4u, 9u, 14u}) {
    Query q;
    q.agg = Aggregate::kCount;
    q.key_values = {{k}};
    q.time_lo = 6 * 3600;
    q.time_hi = 9 * 3600;
    queries.push_back(q);
  }
  Query verified;
  verified.agg = Aggregate::kCount;
  verified.key_values = {{3}};
  verified.time_lo = 10 * 3600;
  verified.time_hi = 12 * 3600;
  verified.verify = true;
  queries.push_back(verified);
  Query topk;
  topk.agg = Aggregate::kTopK;
  topk.k = 3;
  topk.time_lo = 9 * 3600;
  topk.time_hi = 12 * 3600;
  queries.push_back(topk);
  return queries;
}

/// Reference bytes from a dedicated pre-QoS service (default options: no
/// shared pool, no DRR tag, blocking admission, no budgets) over the same
/// key material and data. The QoS path must match these byte for byte.
std::vector<Bytes> DedicatedAnswers(const TenantFixture& t,
                                    const std::vector<Query>& queries) {
  auto provider = ServiceProvider::Open(t.config, t.dp->shared_secret());
  EXPECT_TRUE(provider.ok()) << provider.status().ToString();
  QueryService service(std::move(*provider), QueryServiceOptions{});
  EXPECT_TRUE(service.LoadRegistry(t.dp->EncryptedRegistry()).ok());
  for (const auto& e : t.epochs) {
    EXPECT_TRUE(service.IngestEpoch(e).ok());
  }
  auto token = service.OpenSession("alice", AliceProof(t));
  EXPECT_TRUE(token.ok());
  std::vector<Bytes> out;
  for (const Query& q : queries) {
    auto got = service.Execute(*token, q);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    out.push_back(got.ok() ? SerializeQueryResult(*got) : Bytes{});
  }
  return out;
}

// --- Backpressure through the registry (fault injection) ------------------

/// One-shot slot pin: the first query whose hook runs while `armed` blocks
/// inside the hook — HOLDING its admission slot — until Release() fires.
/// Later queries (any tenant) pass straight through, so the pinned tenant
/// rejects while its neighbors serve normally.
struct SlotPin {
  std::atomic<bool> armed{false};
  Latch entered;
  Latch release;

  std::function<void()> Hook() {
    return [this] {
      if (armed.exchange(false)) {
        entered.Signal();
        release.Wait();
      }
    };
  }
};

class QosBackpressureTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = TempDir(); }
  void TearDown() override { RemoveDirRecursive(root_); }

  TenantRegistryOptions Options() {
    TenantRegistryOptions options;
    options.root_dir = root_;
    options.pool_threads = 4;
    options.service.reject_over_capacity = true;
    options.service.execute_fault_hook = pin_.Hook();
    return options;
  }

  std::string root_;
  SlotPin pin_;
};

TEST_F(QosBackpressureTest, OverCapTenantShedsLoadOthersUnperturbed) {
  TenantRegistry registry(Options());
  TenantFixture acme = MakeTenant("acme", 0x71);
  TenantFixture bolt = MakeTenant("bolt", 0x72);
  // acme: a single admission slot, so one pinned query saturates it.
  Provision(&registry, acme, TenantQoS{1, /*max_inflight=*/1});
  Provision(&registry, bolt);

  const std::vector<Query> queries = Day1Queries();
  const std::vector<Bytes> want_bolt = DedicatedAnswers(bolt, queries);
  auto acme_token = registry.OpenSession("acme", "alice", AliceProof(acme));
  auto bolt_token = registry.OpenSession("bolt", "alice", AliceProof(bolt));
  ASSERT_TRUE(acme_token.ok());
  ASSERT_TRUE(bolt_token.ok());

  // Pin acme's only slot: the hooked query blocks inside the service while
  // holding its admission slot.
  pin_.armed = true;
  std::thread pinned([&] {
    auto got = registry.Query("acme", *acme_token, queries[0]);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
  });
  pin_.entered.Wait();

  // acme is saturated: immediate Unavailable + retry-after, round-tripped
  // through the registry front door, never a hang.
  for (int i = 0; i < 3; ++i) {
    auto rejected = registry.Query("acme", *acme_token, queries[1]);
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.status().IsUnavailable())
        << rejected.status().ToString();
    EXPECT_GE(rejected.status().retry_after_ms(), 1u);
  }
  auto acme_service = registry.tenant("acme");
  ASSERT_TRUE(acme_service.ok());
  EXPECT_GE((*acme_service)->admission_stats().rejected, 3u);
  EXPECT_EQ((*acme_service)->admission_stats().inflight, 1u);

  // bolt is untouched by acme's saturation: every answer byte-identical to
  // the dedicated service.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto got = registry.Query("bolt", *bolt_token, queries[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*got), want_bolt[i]) << "query " << i;
  }

  pin_.release.Signal();
  pinned.join();
  // Slot freed: acme serves again.
  EXPECT_TRUE(registry.Query("acme", *acme_token, queries[1]).ok());
}

TEST_F(QosBackpressureTest, RetryingClientRidesOutBackpressure) {
  TenantRegistry registry(Options());
  TenantFixture acme = MakeTenant("acme", 0x73);
  Provision(&registry, acme, TenantQoS{1, /*max_inflight=*/1});

  const std::vector<Query> queries = Day1Queries();
  const std::vector<Bytes> want = DedicatedAnswers(acme, queries);
  auto token = registry.OpenSession("acme", "alice", AliceProof(acme));
  ASSERT_TRUE(token.ok());

  pin_.armed = true;
  std::thread pinned([&] {
    auto got = registry.Query("acme", *token, queries[0]);
    EXPECT_TRUE(got.ok());
  });
  pin_.entered.Wait();

  // The retrying client: attempt 1 rejects; the injected sleep releases
  // the pin and joins the pinned query (so its slot is provably free), and
  // attempt 2 succeeds. Zero wall-clock waiting, fully deterministic.
  std::vector<uint64_t> waits;
  bool released = false;
  RetryOptions retry;
  retry.sleep_ms = [&](uint64_t ms) {
    waits.push_back(ms);
    if (!released) {
      released = true;
      pin_.release.Signal();
      pinned.join();
    }
  };
  auto got = RetryQuery(registry, "acme", *token, queries[1], retry);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(SerializeQueryResult(*got), want[1]);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_GE(waits[0], 1u);  // The server hint floors the wait.

  // Non-retryable failures pass through untouched (no attempts burned).
  int calls = 0;
  auto bad = RetryOnUnavailable([&] {
    ++calls;
    return StatusOr<QueryResult>(Status::NotFound("no such tenant"));
  });
  EXPECT_TRUE(bad.status().IsNotFound());
  EXPECT_EQ(calls, 1);
}

// --- Retry policy: decorrelated jitter + overall budget --------------------
// Wall-time free: rand01 / clock_ms / sleep_ms are all injected.

TEST(QosRetryTest, JitterWaitsFollowDecorrelatedRecurrenceExactly) {
  // With rand01 pinned to 0.5, every wait is the midpoint of
  // [floor, min(3 × previous wait, max_backoff)] and the schedule is
  // exactly predictable: floor = max(hint=0, initial=4) = 4, so
  // caps go 12, 24, 42 and waits 8, 14, 23.
  std::vector<uint64_t> waits;
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 4;
  retry.rand01 = [] { return 0.5; };
  retry.sleep_ms = [&](uint64_t ms) { waits.push_back(ms); };
  int calls = 0;
  auto result = RetryOnUnavailable(
      [&]() -> StatusOr<int> {
        ++calls;
        return Status::Unavailable("saturated");
      },
      retry);
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(waits, (std::vector<uint64_t>{8, 14, 23}));
}

TEST(QosRetryTest, JitterRespectsHintFloorAndBackoffCeiling) {
  // The server hint floors every draw; max_backoff_ms ceilings it. With
  // hint=50, initial=4, max_backoff=60: floor=50, first cap collapses to
  // the floor (3×4=12 < 50) so the wait is exactly 50 even at r→1; the
  // second cap is min(60, 150)=60, so the wait lives in [50, 60].
  std::vector<uint64_t> waits;
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 4;
  retry.max_backoff_ms = 60;
  retry.rand01 = [] { return 0.999; };
  retry.sleep_ms = [&](uint64_t ms) { waits.push_back(ms); };
  auto result = RetryOnUnavailable(
      [&]() -> StatusOr<int> {
        return Status::Unavailable("saturated").WithRetryAfterMs(50);
      },
      retry);
  EXPECT_TRUE(result.status().IsUnavailable());
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_EQ(waits[0], 50u);
  EXPECT_GE(waits[1], 50u);
  EXPECT_LE(waits[1], 60u);
}

TEST(QosRetryTest, BudgetExhaustionReturnsDeadlineExceededWithoutSleeping) {
  // Fake clock advanced only by the fake sleep: attempt 1 waits 40ms
  // (elapsed 40), attempt 2 would wait 80ms, 40+80 > 100 → the loop gives
  // up with kDeadlineExceeded BEFORE sleeping, not after.
  uint64_t now = 0;
  std::vector<uint64_t> waits;
  RetryOptions retry;
  retry.jitter = false;
  retry.max_attempts = 100;
  retry.initial_backoff_ms = 40;
  retry.max_elapsed_ms = 100;
  retry.clock_ms = [&] { return now; };
  retry.sleep_ms = [&](uint64_t ms) {
    waits.push_back(ms);
    now += ms;
  };
  int calls = 0;
  auto result = RetryOnUnavailable(
      [&]() -> StatusOr<int> {
        ++calls;
        return Status::Unavailable("saturated");
      },
      retry);
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(waits, (std::vector<uint64_t>{40}));
  EXPECT_NE(result.status().message().find("retry budget"), std::string::npos);
}

TEST(QosRetryTest, BudgetLeavesSuccessAndNonRetryableUntouched) {
  uint64_t now = 0;
  RetryOptions retry;
  retry.jitter = false;
  retry.max_elapsed_ms = 1000;
  retry.clock_ms = [&] { return now; };
  retry.sleep_ms = [&](uint64_t ms) { now += ms; };
  int calls = 0;
  auto ok = RetryOnUnavailable(
      [&]() -> StatusOr<int> {
        if (++calls < 3) return Status::Unavailable("warming");
        return 7;
      },
      retry);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_EQ(calls, 3);

  auto bad = RetryOnUnavailable(
      [&]() -> StatusOr<int> { return Status::NotFound("gone"); }, retry);
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST_F(QosBackpressureTest, DropTenantMidBackpressureLeavesOthersIntact) {
  TenantRegistry registry(Options());
  TenantFixture acme = MakeTenant("acme", 0x74);
  TenantFixture bolt = MakeTenant("bolt", 0x75);
  Provision(&registry, acme, TenantQoS{2, /*max_inflight=*/1});
  Provision(&registry, bolt, TenantQoS{1, 0});

  const std::vector<Query> queries = Day1Queries();
  const std::vector<Bytes> want_bolt = DedicatedAnswers(bolt, queries);
  auto acme_token = registry.OpenSession("acme", "alice", AliceProof(acme));
  auto bolt_token = registry.OpenSession("bolt", "alice", AliceProof(bolt));
  ASSERT_TRUE(acme_token.ok());
  ASSERT_TRUE(bolt_token.ok());

  // Saturate acme and reject a caller mid-flight.
  pin_.armed = true;
  std::thread pinned([&] {
    // DropTenant drains in-flight queries, so the pinned query itself
    // still completes before the tenant dies.
    auto got = registry.Query("acme", *acme_token, queries[0]);
    EXPECT_TRUE(got.ok());
  });
  pin_.entered.Wait();
  EXPECT_TRUE(registry.Query("acme", *acme_token, queries[1])
                  .status()
                  .IsUnavailable());

  // Release and drop the tenant while its backpressure state is warm.
  pin_.release.Signal();
  pinned.join();
  ASSERT_TRUE(registry.DropTenant("acme").ok());
  EXPECT_TRUE(
      registry.Query("acme", *acme_token, queries[0]).status().IsNotFound());

  // bolt neither lost capacity nor changed a byte.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto got = registry.Query("bolt", *bolt_token, queries[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(SerializeQueryResult(*got), want_bolt[i]) << "query " << i;
  }
  // acme's scheduling class retired with it; bolt's survives.
  auto bolt_service = registry.tenant("bolt");
  ASSERT_TRUE(bolt_service.ok());
  EXPECT_EQ(
      registry.shared_pool()->class_stats((*bolt_service)->sched_class())
          .weight,
      1u);
}

// --- End-to-end equivalence against the pre-QoS path ----------------------

TEST(QosEquivalenceTest, WeightedFailFastRegistryMatchesDedicatedService) {
  const std::string root = TempDir();
  {
    TenantRegistryOptions options;
    options.root_dir = root;
    options.pool_threads = 4;
    options.service.reject_over_capacity = true;
    options.service.max_inflight = 2;
    TenantRegistry registry(options);

    TenantFixture heavy = MakeTenant("heavy", 0x78);
    TenantFixture light = MakeTenant("light", 0x79);
    Provision(&registry, heavy, TenantQoS{3, 0});
    Provision(&registry, light, TenantQoS{1, 0});

    // The weights really landed on the shared pool's classes.
    auto heavy_service = registry.tenant("heavy");
    auto light_service = registry.tenant("light");
    ASSERT_TRUE(heavy_service.ok());
    ASSERT_TRUE(light_service.ok());
    EXPECT_NE((*heavy_service)->sched_class(), 0u);
    EXPECT_EQ(registry.shared_pool()
                  ->class_stats((*heavy_service)->sched_class())
                  .weight,
              3u);
    EXPECT_EQ(registry.shared_pool()
                  ->class_stats((*light_service)->sched_class())
                  .weight,
              1u);

    const std::vector<Query> queries = Day1Queries();
    const std::vector<Bytes> want_heavy = DedicatedAnswers(heavy, queries);
    const std::vector<Bytes> want_light = DedicatedAnswers(light, queries);
    auto heavy_token =
        registry.OpenSession("heavy", "alice", AliceProof(heavy));
    auto light_token =
        registry.OpenSession("light", "alice", AliceProof(light));
    ASSERT_TRUE(heavy_token.ok());
    ASSERT_TRUE(light_token.ok());

    // Hammer both tenants from several threads through the retrying client:
    // DRR scheduling, fail-fast admission and retries all engaged at once —
    // and every single answer byte-identical to the dedicated pre-QoS
    // service.
    constexpr int kThreads = 4;
    constexpr int kRounds = 2;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    RetryOptions retry;
    retry.max_attempts = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < queries.size(); ++i) {
            const size_t qi = (i + t) % queries.size();
            const bool use_heavy = (t + round) % 2 == 0;
            auto got = RetryQuery(registry, use_heavy ? "heavy" : "light",
                                  use_heavy ? *heavy_token : *light_token,
                                  queries[qi], retry);
            const Bytes& want = use_heavy ? want_heavy[qi] : want_light[qi];
            if (!got.ok()) {
              ++failures;
            } else if (SerializeQueryResult(*got) != want) {
              ++mismatches;
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);

    // The heavy class actually carried pool work under its own tag.
    EXPECT_GT(registry.shared_pool()
                  ->class_stats((*heavy_service)->sched_class())
                  .dispatched,
              0u);
  }
  RemoveDirRecursive(root);
}

}  // namespace
}  // namespace concealer
