// The multi-tenant solve service contract:
//
//  * every answered request is bit-for-bit what a direct plan.solve /
//    plan.solve_batch would have produced, no matter how the dispatcher
//    coalesced it into fused batches;
//  * a burst of k same-plan single-RHS submits queued behind busy
//    dispatch slots executes as at most ceil(k / max_coalesce) fused
//    solve_batch dispatches once a slot frees (observable in
//    ServiceStats), and no more dispatches are in flight than the
//    dispatch pool has workers;
//  * past the admission bound, submits fail FAST with typed kOverloaded --
//    never block, never vanish;
//  * plans served through the service run their kernels on the shared
//    worker pool and own zero threads, idle or busy;
//  * the whole thing survives N client threads x M plans of mixed
//    single/batch traffic (run under the ASan/UBSan CI config like every
//    other test).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "support/failpoint.hpp"

namespace msptrsv {
namespace {

using service::ServiceOptions;
using service::ServiceStatsSnapshot;
using service::SolveService;

sparse::CscMatrix service_matrix(std::uint64_t seed) {
  return sparse::gen_layered_dag(400, 14, 2200, 0.5, seed);
}

std::vector<value_t> rhs_for(const sparse::CscMatrix& l, std::uint64_t seed) {
  return sparse::gen_rhs_for_solution(l,
                                      sparse::gen_solution(l.rows, seed));
}

/// Holds dispatch slots open on purpose: arms the service.dispatch seam
/// to pause, so every dispatch that starts parks there -- slot taken,
/// pool worker busy -- until release(). On a service whose dispatch pool
/// has one worker, one parked request holds the only slot, and whatever
/// is submitted meanwhile piles up in the queue exactly as it does behind
/// busy slots under load. Declare it AFTER the service: it releases the
/// seam on scope exit, before the service's destructor drains.
class SlotHold {
 public:
  SlotHold() : base_(support::failpoint_hits("service.dispatch")) {
    support::failpoint_set("service.dispatch", "pause");
  }
  ~SlotHold() { release(); }
  SlotHold(const SlotHold&) = delete;
  SlotHold& operator=(const SlotHold&) = delete;

  /// Waits until `n` dispatches have parked at the seam.
  bool parked(std::uint64_t n = 1) const {
    return support::failpoint_wait_hits("service.dispatch", base_ + n, 10000);
  }
  void release() { support::failpoint_clear("service.dispatch"); }

 private:
  std::uint64_t base_;  // hit counts are cumulative per process
};

TEST(SolveService, SingleSubmitMatchesDirectSolveBitForBit) {
  const sparse::CscMatrix l = service_matrix(7);
  const std::vector<value_t> b = rhs_for(l, 1);

  SolveService svc;
  const auto plan = svc.plan_for(l, "cpu-syncfree");
  ASSERT_TRUE(plan.ok()) << plan.message();

  const std::vector<value_t> want = plan->solve(b).value().x;
  auto fut = svc.submit(*plan, b);
  SolveService::Reply r = fut.get();
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value().x, want);
  // Served plans gang on the shared pool: zero owned threads, ever.
  EXPECT_TRUE(plan->options().use_shared_pool);
  EXPECT_EQ(plan->owned_thread_count(), 0u);
  EXPECT_GE(plan->workspace_count(), 1u);
}

TEST(SolveService, BurstCoalescesIntoFusedBatches) {
  if (!support::failpoints_compiled()) GTEST_SKIP();
  const sparse::CscMatrix l = service_matrix(11);
  constexpr int kBurst = 16;
  constexpr index_t kWidth = 8;

  // One dispatch slot, held by a parked request: the burst queues behind
  // it, so it is GUARANTEED to fuse once the slot frees.
  core::SharedWorkerPool pool(1);
  ServiceOptions opt;
  opt.max_coalesce = kWidth;
  opt.pool = &pool;
  SolveService svc(opt);

  const auto plan = svc.plan_for(l, "cpu-levelset");
  ASSERT_TRUE(plan.ok()) << plan.message();

  std::vector<std::vector<value_t>> rhs;
  std::vector<std::vector<value_t>> want;
  for (int j = 0; j < kBurst; ++j) {
    rhs.push_back(rhs_for(l, 100 + static_cast<std::uint64_t>(j)));
    want.push_back(plan->solve(rhs.back()).value().x);
  }

  SlotHold hold;
  auto holder = svc.submit(*plan, rhs[0]);
  ASSERT_TRUE(hold.parked());
  std::vector<std::future<SolveService::Reply>> futures;
  for (int j = 0; j < kBurst; ++j) {
    futures.push_back(svc.submit(*plan, rhs[static_cast<std::size_t>(j)]));
  }
  EXPECT_EQ(svc.stats().queue_depth, static_cast<std::uint64_t>(kBurst));
  hold.release();
  SolveService::Reply held = holder.get();
  ASSERT_TRUE(held.ok()) << held.message();
  EXPECT_EQ(held.value().x, want[0]);
  for (int j = 0; j < kBurst; ++j) {
    SolveService::Reply r = futures[static_cast<std::size_t>(j)].get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want[static_cast<std::size_t>(j)])
        << "coalesced result " << j << " diverged from direct plan.solve";
  }

  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kBurst + 1));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kBurst + 1));
  EXPECT_EQ(s.rejected, 0u);
  // The acceptance bound: once the slot frees, k queued singles leave in
  // <= ceil(k/width) fused dispatches (plus the holder's own).
  EXPECT_LE(s.batches,
            static_cast<std::uint64_t>(1 + (kBurst + kWidth - 1) / kWidth));
  EXPECT_EQ(s.coalesced_rhs, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(s.mean_coalesce_width, 1.0);
  // Width-8 dispatches land in the 5-8 bucket.
  EXPECT_GT(s.coalesce_hist[3], 0u);
  EXPECT_GT(s.p50_latency_us, 0.0);
  EXPECT_GE(s.p99_latency_us, s.p50_latency_us);
  ASSERT_EQ(s.per_plan.size(), 1u);
  EXPECT_EQ(s.per_plan[0].plan, plan->state_id());
  EXPECT_EQ(s.per_plan[0].solves, static_cast<std::uint64_t>(kBurst + 1));
}

TEST(SolveService, OverloadRejectsFastWithTypedBackpressure) {
  if (!support::failpoints_compiled()) GTEST_SKIP();
  const sparse::CscMatrix l = service_matrix(13);

  // One dispatch slot, held by f1's parked dispatch, so f1 (executing)
  // and f2 (queued) stay outstanding until the slot is released.
  core::SharedWorkerPool pool(1);
  ServiceOptions opt;
  opt.max_pending_rhs = 2;
  opt.max_coalesce = 32;
  opt.pool = &pool;
  SolveService svc(opt);

  const auto plan = svc.plan_for(l, "serial");
  ASSERT_TRUE(plan.ok()) << plan.message();
  const std::vector<value_t> b = rhs_for(l, 3);
  const std::vector<value_t> want = plan->solve(b).value().x;

  SlotHold hold;
  auto f1 = svc.submit(*plan, b);
  ASSERT_TRUE(hold.parked());
  auto f2 = svc.submit(*plan, b);
  // Outstanding rhs are at max_pending_rhs (executing work counts): the
  // third submit must come back kOverloaded IMMEDIATELY (the future is
  // ready).
  auto f3 = svc.submit(*plan, b);
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  SolveService::Reply rejected = f3.get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status(), core::SolveStatus::kOverloaded);

  // Wrong-length batches reject on shape before touching the queue.
  auto bad = svc.submit_batch(*plan, b, 2);
  EXPECT_EQ(bad.get().status(), core::SolveStatus::kShapeMismatch);

  // A batch wider than the whole admission bound can never be served:
  // permanent kShapeMismatch, not "retry later" (which would loop a
  // well-behaved client forever).
  std::vector<value_t> wide;
  for (int j = 0; j < 3; ++j) wide.insert(wide.end(), b.begin(), b.end());
  auto never = svc.submit_batch(*plan, wide, 3);
  EXPECT_EQ(never.get().status(), core::SolveStatus::kShapeMismatch);

  // The admitted pair still completes correctly.
  hold.release();
  EXPECT_EQ(f1.get().value().x, want);
  EXPECT_EQ(f2.get().value().x, want);

  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.peak_queue_depth, 1u);  // f2; f1 left the queue at once
}

TEST(SolveService, QueueDepthGaugeNeverWrapsUnderConcurrentSubmits) {
  // Regression: the queued-rhs gauges used to be bumped only after push()
  // had made the request poppable, so the dispatcher's decrement could
  // run first, wrap the unsigned gauge and latch peak_queue_depth at
  // 2^64 - 1. Four threads of open-loop submits race the dispatcher; the
  // queue can never hold more than the admission bound.
  const sparse::CscMatrix l = service_matrix(17);
  ServiceOptions opt;
  opt.max_pending_rhs = 64;
  SolveService svc(opt);
  const auto plan = svc.plan_for(l, "serial");
  ASSERT_TRUE(plan.ok()) << plan.message();
  const std::vector<value_t> b = rhs_for(l, 4);

  constexpr int kThreads = 4;
  constexpr int kSubmits = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::deque<std::future<SolveService::Reply>> inflight;
      for (int i = 0; i < kSubmits; ++i) {
        inflight.push_back(svc.submit(*plan, b));
        if (inflight.size() > 32) {
          inflight.front().wait();
          inflight.pop_front();
        }
      }
      for (auto& f : inflight) f.wait();
    });
  }
  for (std::thread& th : threads) th.join();
  svc.drain();

  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.submitted + s.rejected,
            static_cast<std::uint64_t>(kThreads * kSubmits));
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_LE(s.peak_queue_depth, opt.max_pending_rhs);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(SolveService, ContendedMixedTrafficStaysBitExact) {
  // N client threads x M plans, mixed single and batch submits, all
  // racing one service. Every reply must be bit-for-bit the direct
  // plan.solve / solve_batch result -- while ASan/TSan-style tooling
  // (the sanitize CI job) watches the queue, dispatcher, shared pool,
  // and stats for races.
  constexpr int kClients = 6;
  constexpr int kItersPerClient = 8;
  constexpr index_t kBatchRhs = 3;
  const char* kBackends[] = {"serial", "cpu-levelset", "cpu-syncfree"};

  SolveService svc;

  struct Tenant {
    core::SolverPlan plan;
    std::vector<value_t> b;
    std::vector<value_t> batch;
    std::vector<value_t> want_single;
    std::vector<value_t> want_batch;
  };
  std::vector<Tenant> tenants;
  for (std::size_t m = 0; m < 3; ++m) {
    const sparse::CscMatrix l = service_matrix(40 + m);
    auto plan = svc.plan_for(l, kBackends[m]);
    ASSERT_TRUE(plan.ok()) << plan.message();
    std::vector<value_t> b = rhs_for(l, 50 + m);
    std::vector<value_t> batch;
    for (index_t j = 0; j < kBatchRhs; ++j) {
      const std::vector<value_t> col = rhs_for(l, 60 + m * 7 + static_cast<std::size_t>(j));
      batch.insert(batch.end(), col.begin(), col.end());
    }
    Tenant t{*plan, b, batch, plan->solve(b).value().x,
             plan->solve_batch(batch, kBatchRhs).value().x};
    tenants.push_back(std::move(t));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int it = 0; it < kItersPerClient; ++it) {
        Tenant& t = tenants[static_cast<std::size_t>((c + it) % 3)];
        if ((c + it) % 2 == 0) {
          SolveService::Reply r = svc.submit(t.plan, t.b).get();
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (r.value().x != t.want_single) {
            mismatches.fetch_add(1);
          }
        } else {
          SolveService::Reply r =
              svc.submit_batch(t.plan, t.batch, kBatchRhs).get();
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (r.value().x != t.want_batch) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "service replies diverged from direct plan solves under contention";

  const ServiceStatsSnapshot s = svc.stats();
  const std::uint64_t total_rhs = static_cast<std::uint64_t>(kClients) *
                                  kItersPerClient / 2 *
                                  (1 + static_cast<std::uint64_t>(kBatchRhs));
  EXPECT_EQ(s.submitted, total_rhs);
  EXPECT_EQ(s.completed, total_rhs);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.per_plan.size(), 3u);
  // No tenant owns kernel threads: everything ganged on the shared pool.
  for (const Tenant& t : tenants) {
    EXPECT_EQ(t.plan.owned_thread_count(), 0u);
  }
}

TEST(SolveService, PlanForIsAnalyzeOnFirstUse) {
  const sparse::CscMatrix l = service_matrix(21);
  SolveService svc;

  const auto first = svc.plan_for(l, "cpu-syncfree");
  ASSERT_TRUE(first.ok());
  const auto second = svc.plan_for(l, "cpu-syncfree");
  ASSERT_TRUE(second.ok());
  // Same symbolic state: submits through either copy coalesce together.
  EXPECT_EQ(first->state_id(), second->state_id());
  const core::PlanCache::Stats cs = svc.plan_cache().stats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits, 1u);

  // Unknown keys surface the registry's typed error.
  EXPECT_EQ(svc.plan_for(l, "no-such-backend").status(),
            core::SolveStatus::kUnknownBackend);
}

TEST(SolveService, PresetConstructionServesSimulatedBackends) {
  const sparse::CscMatrix l = service_matrix(23);
  SolveService svc;
  const auto plan = svc.plan_for_preset(l, "dgx1x8");
  ASSERT_TRUE(plan.ok()) << plan.message();
  EXPECT_EQ(plan->options().machine.num_gpus(), 8);
  EXPECT_TRUE(plan->options().use_shared_pool);

  const std::vector<value_t> b = rhs_for(l, 5);
  const std::vector<value_t> want = plan->solve(b).value().x;
  EXPECT_EQ(svc.submit(*plan, b).get().value().x, want);
}

TEST(SolveService, DestructorDrainsEverythingAdmitted) {
  if (!support::failpoints_compiled()) GTEST_SKIP();
  const sparse::CscMatrix l = service_matrix(29);
  std::vector<std::future<SolveService::Reply>> futures;
  const std::vector<value_t> b = rhs_for(l, 9);
  std::vector<value_t> want;
  core::SharedWorkerPool pool(1);
  {
    ServiceOptions opt;
    opt.pool = &pool;
    SolveService svc(opt);
    const auto plan = svc.plan_for(l, "cpu-levelset");
    ASSERT_TRUE(plan.ok());
    want = plan->solve(b).value().x;
    SlotHold hold;
    futures.push_back(svc.submit(*plan, b));
    ASSERT_TRUE(hold.parked());
    for (int j = 0; j < 5; ++j) futures.push_back(svc.submit(*plan, b));
    // The hold releases here with five requests queued behind it, and
    // the service dies right after, while they are possibly still queued.
  }
  for (auto& f : futures) {
    SolveService::Reply r = f.get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want);
  }
}

// ---- priorities, deadlines, packing ---------------------------------------

TEST(SolveServiceScheduling, HighPriorityDispatchesBeforeBackground) {
  // Two groups of equal age queue behind a held dispatch slot, background
  // submitted FIRST, then high. When the slot frees, the class weight must
  // pick high: with one slot, its solve completes before background's
  // dispatch is even popped.
  if (!support::failpoints_compiled()) GTEST_SKIP();
  const sparse::CscMatrix la = service_matrix(61);
  const sparse::CscMatrix lb = service_matrix(62);

  core::SharedWorkerPool pool(1);
  ServiceOptions opt;
  opt.pool = &pool;
  SolveService svc(opt);
  const auto plan_bg = svc.plan_for(la, "cpu-syncfree");
  const auto plan_hi = svc.plan_for(lb, "cpu-syncfree");
  ASSERT_TRUE(plan_bg.ok());
  ASSERT_TRUE(plan_hi.ok());
  const std::vector<value_t> b_bg = rhs_for(la, 1);
  const std::vector<value_t> b_hi = rhs_for(lb, 2);
  const std::vector<value_t> bg_want = plan_bg->solve(b_bg).value().x;
  const std::vector<value_t> hi_want = plan_hi->solve(b_hi).value().x;

  SlotHold hold;
  auto holder = svc.submit(*plan_bg, b_bg);
  ASSERT_TRUE(hold.parked());
  const auto t0 = std::chrono::steady_clock::now();
  auto bg = svc.submit(*plan_bg, b_bg,
                       {.priority = service::Priority::kBackground});
  auto hi = svc.submit(*plan_hi, b_hi, {.priority = service::Priority::kHigh});
  const auto t1 = std::chrono::steady_clock::now();
  // Equal age, made exact: background's head is older by at most t1 - t0.
  // Holding the slot that long again means both heads have waited at
  // least that gap when it frees, so background's head wait is at most
  // twice high's -- far inside the 16x weight, however the submits were
  // scheduled.
  std::this_thread::sleep_until(t1 + (t1 - t0));

  const ServiceStatsSnapshot queued = svc.stats();
  const auto cls = [](service::Priority p) {
    return static_cast<std::size_t>(p);
  };
  EXPECT_EQ(queued.per_class[cls(service::Priority::kHigh)].queue_depth, 1u);
  EXPECT_EQ(queued.per_class[cls(service::Priority::kBackground)].queue_depth,
            1u);
  hold.release();
  ASSERT_TRUE(holder.get().ok());
  SolveService::Reply r_hi = hi.get();
  SolveService::Reply r_bg = bg.get();
  ASSERT_TRUE(r_hi.ok()) << r_hi.message();
  ASSERT_TRUE(r_bg.ok()) << r_bg.message();
  EXPECT_EQ(r_hi.value().x, hi_want);
  EXPECT_EQ(r_bg.value().x, bg_want);
  EXPECT_LT(r_hi.value().completed_ns, r_bg.value().completed_ns)
      << "background dispatched before an equally old high-priority group "
         "-- the class weight is not separating the classes";

  const ServiceStatsSnapshot s = svc.stats();
  const auto& hi_cls = s.per_class[cls(service::Priority::kHigh)];
  const auto& bg_cls = s.per_class[cls(service::Priority::kBackground)];
  EXPECT_EQ(hi_cls.submitted, 1u);
  EXPECT_EQ(hi_cls.completed, 1u);
  EXPECT_GT(hi_cls.p50_latency_us, 0.0);
  EXPECT_EQ(bg_cls.submitted, 1u);
  EXPECT_EQ(bg_cls.completed, 1u);
  EXPECT_EQ(bg_cls.queue_depth, 0u);
}

TEST(SolveServiceScheduling, WeightedAgingLetsBackgroundWinEventually) {
  // Direct queue test of the weighted-wait rule: a fresh high group beats
  // a fresh background group, but a background group that has waited much
  // longer than the weight ratio outranks a fresh high group -- bounded
  // delay in BOTH directions, the starvation-freedom argument.
  const sparse::CscMatrix l = service_matrix(63);
  const auto plan_a = core::registry::analyze_cached(l, "serial");
  const sparse::CscMatrix l2 = service_matrix(64);
  const auto plan_b = core::registry::analyze_cached(l2, "serial");
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  const std::vector<value_t> rhs_a = rhs_for(l, 1);
  const std::vector<value_t> rhs_b = rhs_for(l2, 2);

  using service::PoppedDispatch;
  using service::QueueOptions;
  using service::RequestQueue;
  using service::SolveRequest;
  // Every request is stamped `age` before one `now` captured per case:
  // the selection rule reads submitted-at, so the ages are exact however
  // the scheduler spaces the pushes.
  const auto request = [&](const core::SolverPlan& plan,
                           const std::vector<value_t>& rhs,
                           service::Priority p,
                           std::chrono::steady_clock::time_point now,
                           std::chrono::milliseconds age) {
    SolveRequest r{plan,
                   rhs,
                   1,
                   p,
                   std::chrono::steady_clock::time_point::max(),
                   {},
                   now - age};
    return r;
  };

  QueueOptions qo;
  qo.pack_max_groups = 1;  // isolate the selection rule
  {
    RequestQueue q(qo);
    // Aged background first, fresh high second. The age is BACKDATED into
    // the submit timestamp instead of slept through: the test is instant
    // and immune to scheduler jitter inflating (or deflating) a real
    // sleep. The pop reads the clock itself, and every microsecond it
    // comes after `now` counts 16x for high: high would win if the pop
    // came more than age / 15 late, so the age is far beyond any
    // scheduling delay (60 ms lost to a 4 ms preemption under load).
    const auto now = std::chrono::steady_clock::now();
    q.push(request(*plan_a, rhs_a, service::Priority::kBackground, now,
                   std::chrono::milliseconds(60000)));
    q.push(request(*plan_b, rhs_b, service::Priority::kHigh, now,
                   std::chrono::milliseconds(0)));
    // 60 s * weight 1 far exceeds ~0 ms * weight 16: background wins.
    PoppedDispatch d = q.pop_dispatch();
    ASSERT_EQ(d.groups.size(), 1u);
    EXPECT_EQ(d.groups[0].front().priority, service::Priority::kBackground);
    q.shutdown();
  }
  {
    RequestQueue q(qo);
    // Both fresh, stamped from the same instant: high wins on weight. (A
    // clock read per push would let a preemption between the pushes age
    // background past high's 16x weight.)
    const auto now = std::chrono::steady_clock::now();
    q.push(request(*plan_a, rhs_a, service::Priority::kBackground, now,
                   std::chrono::milliseconds(0)));
    q.push(request(*plan_b, rhs_b, service::Priority::kHigh, now,
                   std::chrono::milliseconds(0)));
    PoppedDispatch d = q.pop_dispatch();
    ASSERT_EQ(d.groups.size(), 1u);
    EXPECT_EQ(d.groups[0].front().priority, service::Priority::kHigh);
    EXPECT_EQ(q.depth_rhs(service::Priority::kBackground), 1u);
    EXPECT_EQ(q.depth_rhs(service::Priority::kHigh), 0u);
    q.shutdown();
  }
}

TEST(SolveServiceScheduling, HighPriorityStreamSurvivesBackgroundFlood) {
  // Starvation-freedom under load: background clients flood the service
  // while one high-priority client streams closed-loop, all contending
  // for ONE dispatch slot. Every high request must complete, and the
  // background class must still make progress.
  const sparse::CscMatrix l_hi = service_matrix(65);
  const sparse::CscMatrix l_bg = service_matrix(66);

  core::SharedWorkerPool pool(1);
  ServiceOptions opt;
  opt.max_pending_rhs = 256;
  opt.pool = &pool;
  SolveService svc(opt);
  const auto plan_hi = svc.plan_for(l_hi, "cpu-syncfree");
  const auto plan_bg = svc.plan_for(l_bg, "cpu-syncfree");
  ASSERT_TRUE(plan_hi.ok());
  ASSERT_TRUE(plan_bg.ok());
  const std::vector<value_t> b_hi = rhs_for(l_hi, 3);
  const std::vector<value_t> b_bg = rhs_for(l_bg, 4);
  const std::vector<value_t> want_hi = plan_hi->solve(b_hi).value().x;

  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int c = 0; c < 3; ++c) {
    flood.emplace_back([&] {
      while (!stop.load()) {
        auto f = svc.submit(*plan_bg, b_bg,
                            {.priority = service::Priority::kBackground});
        f.wait();  // closed loop, but the class keeps the queue primed
      }
    });
  }

  constexpr int kHighRequests = 40;
  int wrong = 0;
  for (int i = 0; i < kHighRequests; ++i) {
    SolveService::Reply r =
        svc.submit(*plan_hi, b_hi, {.priority = service::Priority::kHigh})
            .get();
    if (!r.ok() || r.value().x != want_hi) ++wrong;
  }
  stop.store(true);
  for (std::thread& th : flood) th.join();
  svc.drain();

  EXPECT_EQ(wrong, 0);
  const ServiceStatsSnapshot s = svc.stats();
  const auto& hi =
      s.per_class[static_cast<std::size_t>(service::Priority::kHigh)];
  const auto& bg =
      s.per_class[static_cast<std::size_t>(service::Priority::kBackground)];
  EXPECT_EQ(hi.completed, static_cast<std::uint64_t>(kHighRequests));
  EXPECT_GT(bg.completed, 0u);
}

TEST(SolveServiceScheduling, QueuePacksRipeSmallGroupsIntoOneDispatch) {
  // Deterministic cross-plan packing at the queue level: several narrow
  // groups of small plans queued -- one pop must carry them all as
  // sibling sub-batches of a single dispatch.
  using service::PoppedDispatch;
  using service::QueueOptions;
  using service::RequestQueue;
  using service::SolveRequest;

  constexpr int kTenants = 5;
  std::vector<core::SolverPlan> plans;
  std::vector<std::vector<value_t>> rhs;
  for (int t = 0; t < kTenants; ++t) {
    const sparse::CscMatrix l = service_matrix(70 + static_cast<std::uint64_t>(t));
    auto plan = core::registry::analyze_cached(l, "serial");
    ASSERT_TRUE(plan.ok());
    rhs.push_back(rhs_for(l, static_cast<std::uint64_t>(t)));
    plans.push_back(*plan);
  }

  QueueOptions qo;
  qo.pack_max_groups = 8;
  qo.pack_narrow_width = 4;
  qo.pack_small_rows = 4096;  // the 400-row test plans qualify
  RequestQueue q(qo);
  for (int t = 0; t < kTenants; ++t) {
    SolveRequest r{plans[static_cast<std::size_t>(t)],
                   rhs[static_cast<std::size_t>(t)],
                   1,
                   service::Priority::kNormal,
                   std::chrono::steady_clock::time_point::max(),
                   {},
                   std::chrono::steady_clock::now()};
    ASSERT_TRUE(q.push(std::move(r)));
  }
  EXPECT_EQ(q.depth_rhs(), static_cast<std::size_t>(kTenants));
  q.shutdown();  // pops still hand out everything queued
  PoppedDispatch d = q.pop_dispatch();
  ASSERT_EQ(d.groups.size(), static_cast<std::size_t>(kTenants))
      << "one pop should pack every queued small tenant into one dispatch";
  for (const auto& g : d.groups) {
    EXPECT_EQ(g.size(), 1u);
  }
  EXPECT_EQ(q.depth_rhs(), 0u);
  EXPECT_TRUE(q.pop_dispatch().groups.empty());  // drained exit signal
}

TEST(SolveServiceScheduling, PackedDispatchAnswersBitForBit) {
  // Service-level packed execution: requests against several small plans
  // queue behind a held dispatch slot; the hold is released as the
  // service dies, and the destructor's drain packs them into sibling
  // sub-batches on one claimed gang. Every reply must be bit-for-bit the
  // direct plan.solve answer.
  if (!support::failpoints_compiled()) GTEST_SKIP();
  constexpr int kTenants = 6;
  std::vector<sparse::CscMatrix> factors;
  std::vector<std::vector<value_t>> rhs, want;
  std::vector<std::future<SolveService::Reply>> futures;
  std::future<SolveService::Reply> holder;
  core::SharedWorkerPool pool(1);
  {
    ServiceOptions opt;
    opt.pack_max_groups = 8;
    opt.pack_narrow_width = 4;
    opt.pack_small_rows = 4096;
    opt.pool = &pool;
    SolveService svc(opt);
    std::vector<core::SolverPlan> plans;
    for (int t = 0; t < kTenants; ++t) {
      factors.push_back(service_matrix(80 + static_cast<std::uint64_t>(t)));
      const auto plan = svc.plan_for(factors.back(), "cpu-syncfree");
      ASSERT_TRUE(plan.ok());
      plans.push_back(*plan);
      rhs.push_back(rhs_for(factors.back(), static_cast<std::uint64_t>(t)));
      want.push_back(plan->solve(rhs.back()).value().x);
    }
    SlotHold hold;
    holder = svc.submit(plans[0], rhs[0]);
    ASSERT_TRUE(hold.parked());
    for (int t = 0; t < kTenants; ++t) {
      futures.push_back(svc.submit(plans[static_cast<std::size_t>(t)],
                                   rhs[static_cast<std::size_t>(t)]));
    }
    // Hold released, then the destructor drains the packed dispatch.
  }
  EXPECT_EQ(holder.get().value().x, want[0]);
  for (std::size_t t = 0; t < futures.size(); ++t) {
    SolveService::Reply r = futures[t].get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want[t])
        << "packed sibling " << t << " diverged from direct plan.solve";
  }
}

TEST(SolveServiceScheduling, PackedDispatchShowsUpInStats) {
  // Live packing: small tenants queued behind a held dispatch slot leave
  // as ONE pool dispatch carrying every plan when the slot frees.
  if (!support::failpoints_compiled()) GTEST_SKIP();
  constexpr int kTenants = 6;
  core::SharedWorkerPool pool(1);
  ServiceOptions opt;
  opt.pack_max_groups = 8;
  opt.pool = &pool;
  SolveService svc(opt);

  std::vector<sparse::CscMatrix> factors;
  std::vector<core::SolverPlan> plans;
  std::vector<std::vector<value_t>> rhs;
  for (int t = 0; t < kTenants; ++t) {
    factors.push_back(service_matrix(90 + static_cast<std::uint64_t>(t)));
    const auto plan = svc.plan_for(factors.back(), "cpu-syncfree");
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
    rhs.push_back(rhs_for(factors.back(), static_cast<std::uint64_t>(t)));
  }
  SlotHold hold;
  auto holder = svc.submit(plans[0], rhs[0]);
  ASSERT_TRUE(hold.parked());
  std::vector<std::future<SolveService::Reply>> futures;
  for (int t = 0; t < kTenants; ++t) {
    futures.push_back(svc.submit(plans[static_cast<std::size_t>(t)],
                                 rhs[static_cast<std::size_t>(t)]));
  }
  hold.release();
  ASSERT_TRUE(holder.get().ok());
  for (auto& f : futures) {
    SolveService::Reply r = f.get();
    ASSERT_TRUE(r.ok()) << r.message();
  }
  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.packed_dispatches, 1u)
      << "six queued tiny tenants did not leave as one packed dispatch";
  EXPECT_EQ(s.packed_plans, static_cast<std::uint64_t>(kTenants));
  std::uint64_t packed_hist_total = 0;
  for (std::uint64_t b : s.packed_hist) packed_hist_total += b;
  EXPECT_EQ(packed_hist_total, 2u);  // the holder's solo dispatch + the pack
}

TEST(SolveServiceScheduling, InFlightDispatchesNeverExceedPoolThreads) {
  // Two dispatch slots (a two-worker dispatch pool, shared by two shards),
  // both held by parked dispatches of two plans. A third plan's burst must
  // stay queued while they are held -- no third dispatch is popped, and an
  // idle shard holds no slot -- and then leave as ONE fused dispatch.
  if (!support::failpoints_compiled()) GTEST_SKIP();
  constexpr int kQueued = 6;
  core::SharedWorkerPool pool(2);
  ServiceOptions opt;
  opt.pool = &pool;
  opt.dispatch_shards = 2;
  SolveService svc(opt);

  std::vector<sparse::CscMatrix> factors;
  std::vector<core::SolverPlan> plans;
  std::vector<std::vector<value_t>> rhs, want;
  for (int t = 0; t < 3; ++t) {
    factors.push_back(service_matrix(110 + static_cast<std::uint64_t>(t)));
    const auto plan = svc.plan_for(factors.back(), "serial");
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
    rhs.push_back(rhs_for(factors.back(), static_cast<std::uint64_t>(t)));
    want.push_back(plan->solve(rhs.back()).value().x);
  }
  SlotHold hold;
  std::vector<std::future<SolveService::Reply>> holders;
  holders.push_back(svc.submit(plans[0], rhs[0]));
  ASSERT_TRUE(hold.parked(1));
  holders.push_back(svc.submit(plans[1], rhs[1]));
  ASSERT_TRUE(hold.parked(2));
  std::vector<std::future<SolveService::Reply>> futures;
  for (int j = 0; j < kQueued; ++j) {
    futures.push_back(svc.submit(plans[2], rhs[2]));
  }
  EXPECT_EQ(svc.stats().queue_depth, static_cast<std::uint64_t>(kQueued));
  hold.release();
  for (std::size_t t = 0; t < holders.size(); ++t) {
    SolveService::Reply r = holders[t].get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want[t]);
  }
  for (auto& f : futures) {
    SolveService::Reply r = f.get();
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value().x, want[2]);
  }
  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.batches, 3u);
  EXPECT_EQ(s.coalesced_rhs, static_cast<std::uint64_t>(kQueued));
}

TEST(SolveServiceScheduling, DeadlineShedsWhenExecutionStartsLate) {
  // A request whose start-by deadline passes while its dispatch waits
  // behind a busy pool is shed with typed kDeadlineExceeded -- not solved
  // late, not dropped silently. Deterministic: the service's dispatch
  // pool has ONE worker, occupied by a sleeper when the request arrives.
  const sparse::CscMatrix l = service_matrix(95);
  core::SharedWorkerPool pool(1);
  ServiceOptions opt;
  opt.pool = &pool;
  {
    SolveService svc(opt);
    const auto plan = svc.plan_for(l, "serial");
    ASSERT_TRUE(plan.ok());
    const std::vector<value_t> b = rhs_for(l, 6);
    const std::vector<value_t> want = plan->solve(b).value().x;

    // Occupy the only dispatch worker -- and WAIT until it is actually
    // running: an unstarted blocker still in the queue would let the
    // (urgent) dispatch overtake it and execute in time. The blocker is
    // GATED, not slept: it holds the worker until this thread releases it
    // below, which happens only once the deadline has provably passed --
    // so the test cannot flake in either direction (a fixed sleep both
    // wastes wall-clock and loses the race on a stalled machine).
    std::atomic<bool> blocking{false};
    std::atomic<bool> release{false};
    pool.submit([&blocking, &release] {
      blocking.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    while (!blocking.load()) std::this_thread::yield();
    auto doomed = svc.submit(
        *plan, b,
        {.priority = service::Priority::kHigh,
         .deadline = std::chrono::milliseconds(20)});
    // The service stamped the deadline no earlier than our pre-submit
    // clock and no later than now; sleeping until now+deadline+margin
    // therefore provably passes it before the worker frees up.
    std::this_thread::sleep_until(std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(25));
    release.store(true);
    SolveService::Reply r = doomed.get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status(), core::SolveStatus::kDeadlineExceeded);

    // A generous deadline on a free pool completes normally.
    auto fine = svc.submit(*plan, b,
                           {.deadline = std::chrono::seconds(30)});
    SolveService::Reply ok = fine.get();
    ASSERT_TRUE(ok.ok()) << ok.message();
    EXPECT_EQ(ok.value().x, want);

    const ServiceStatsSnapshot s = svc.stats();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(
        s.per_class[static_cast<std::size_t>(service::Priority::kHigh)].shed,
        1u);
    EXPECT_EQ(s.completed, 1u);
  }  // service destroyed before `pool` (ServiceOptions::pool contract)
}

TEST(SolveServiceScheduling, ShardedDispatchersStayBitExact) {
  // Multiple dispatcher shards: plans hash onto independent queues, all
  // replies stay bit-for-bit, and per-plan coalescing still works (same
  // plan always lands on the same shard).
  constexpr int kClients = 4;
  constexpr int kIters = 10;
  ServiceOptions opt;
  opt.dispatch_shards = 4;
  SolveService svc(opt);
  EXPECT_EQ(svc.shard_count(), 4);

  std::vector<sparse::CscMatrix> factors;
  std::vector<core::SolverPlan> plans;
  std::vector<std::vector<value_t>> rhs, want;
  for (int t = 0; t < 5; ++t) {
    factors.push_back(service_matrix(100 + static_cast<std::uint64_t>(t)));
    const auto plan = svc.plan_for(factors.back(), "cpu-levelset");
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
    rhs.push_back(rhs_for(factors.back(), static_cast<std::uint64_t>(t)));
    want.push_back(plan->solve(rhs.back()).value().x);
  }

  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t t = static_cast<std::size_t>((c + i) % 5);
        SolveService::Reply r = svc.submit(plans[t], rhs[t]).get();
        if (!r.ok() || r.value().x != want[t]) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& th : clients) th.join();
  EXPECT_EQ(bad.load(), 0);
  const ServiceStatsSnapshot s = svc.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kClients * kIters));
}

TEST(ServiceStatsTest, LatencyRingSizeIsAConstructorParameter) {
  // The quantile window is configurable (and clamped to a sane floor):
  // the documented fix for the fixed-4096-sample limitation.
  service::ServiceStats tiny(1);  // clamped up to 16
  EXPECT_EQ(tiny.latency_ring_capacity(), 16u);
  service::ServiceStats stats(64);
  EXPECT_EQ(stats.latency_ring_capacity(), 64u);
  // Overflow the ring: quantiles reflect only the most recent window.
  for (int i = 0; i < 1000; ++i) {
    stats.on_complete(nullptr, 10, 1, true, service::Priority::kNormal,
                      100.0);
  }
  const ServiceStatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.completed, 1000u);
  EXPECT_DOUBLE_EQ(s.p50_latency_us, 100.0);
  EXPECT_DOUBLE_EQ(
      s.per_class[static_cast<std::size_t>(service::Priority::kNormal)]
          .p50_latency_us,
      100.0);
}

// ---- shared worker pool ----------------------------------------------------

TEST(SharedWorkerPool, GangReservationCapsConcurrentClaims) {
  // Two overlapping gangs on an 8-worker pool: the second claim is capped
  // at its equal share (8 / 2 active = 4 parties) even though it asked for
  // everything. Claimable-now semantics are untouched -- nothing blocks.
  core::SharedWorkerPool pool(8);
  ASSERT_TRUE(pool.gang_reservation());

  std::atomic<bool> a_inside{false};
  std::atomic<bool> b_done{false};
  std::atomic<int> b_parties{0};
  std::thread holder([&] {
    pool.run_gang(
        7, [](int) {},
        [&](int tid, int) {
          if (tid == 0) {
            a_inside.store(true);
            while (!b_done.load()) std::this_thread::yield();
          }
        });
  });
  while (!a_inside.load()) std::this_thread::yield();
  // Gang A is active: B's ask of 7 extras is capped to 3 (4 parties).
  const int parties = pool.run_gang(
      7, [](int) {}, [&](int, int) { b_parties.fetch_add(1); });
  b_done.store(true);
  holder.join();
  EXPECT_LE(parties, 4);
  EXPECT_GE(parties, 1);
  EXPECT_EQ(b_parties.load(), parties);
  EXPECT_GE(pool.stats().gang_capped, 1u);
  EXPECT_EQ(pool.active_gangs(), 0);

  // The toggle restores greedy claims for A/B comparisons.
  pool.set_gang_reservation(false);
  EXPECT_FALSE(pool.gang_reservation());
  const int solo = pool.run_gang(7, [](int) {}, [](int, int) {});
  EXPECT_GE(solo, 1);
}


TEST(SharedWorkerPool, TasksRunAndStealAcrossDeques) {
  core::SharedWorkerPool pool(4);
  constexpr int kTasks = 64;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().tasks_run < static_cast<std::uint64_t>(kTasks) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(pool.stats().tasks_run, static_cast<std::uint64_t>(kTasks));
}

TEST(SharedWorkerPool, GangsShrinkInsteadOfDeadlocking) {
  core::SharedWorkerPool pool(2);
  // Ask for far more members than exist: the gang must run anyway with
  // whatever was idle (possibly just the caller) and report the width.
  std::atomic<int> ran{0};
  const int parties = pool.run_gang(
      16, [](int) {}, [&](int tid, int p) {
        EXPECT_LT(tid, p);
        ran.fetch_add(1);
      });
  EXPECT_GE(parties, 1);
  EXPECT_LE(parties, 3);
  EXPECT_EQ(ran.load(), parties);
  EXPECT_GE(pool.stats().gangs, 1u);

  // Concurrent gang openers from foreign threads never deadlock even
  // when they collectively want every worker several times over.
  std::vector<std::thread> openers;
  std::atomic<int> total{0};
  for (int i = 0; i < 4; ++i) {
    openers.emplace_back([&] {
      for (int it = 0; it < 20; ++it) {
        pool.run_gang(
            8, [](int) {}, [&](int, int) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& th : openers) th.join();
  EXPECT_GE(total.load(), 4 * 20);  // at least the callers themselves ran
}

TEST(SharedWorkerPool, SharedPlansHoldZeroOwnedThreads) {
  const sparse::CscMatrix l = service_matrix(31);
  core::SolveOptions opt =
      core::registry::service_options("cpu-syncfree").value();
  const auto plan = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->owned_thread_count(), 0u);
  const std::vector<value_t> b = rhs_for(l, 2);

  // Same bits as an owned-pool plan, before and after solving.
  core::SolveOptions owned = core::registry::options_for("cpu-syncfree").value();
  const auto baseline = core::SolverPlan::analyze(l, owned);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(plan->solve(b).value().x, baseline->solve(b).value().x);

  EXPECT_GE(plan->workspace_count(), 1u);
  EXPECT_EQ(plan->owned_thread_count(), 0u)
      << "a shared-pool plan must never spawn per-workspace threads";
  // The owned-pool baseline really does own threads after its first
  // solve (unless the machine reports a single hardware thread).
  if (core::resolve_cpu_threads(0) > 1) {
    EXPECT_GT(baseline->owned_thread_count(), 0u);
  }
}

TEST(SharedWorkerPool, OwnedPoolsAreLazyUntilFirstSolve) {
  const sparse::CscMatrix l = service_matrix(37);
  core::SolveOptions opt = core::registry::options_for("cpu-levelset").value();
  const auto plan = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok());
  // Analyzed-but-never-solved plans hold zero threads (the idle-tenant
  // guarantee: a service caching hundreds of plans costs no threads).
  EXPECT_EQ(plan->owned_thread_count(), 0u);
  const std::vector<value_t> b = rhs_for(l, 4);
  ASSERT_TRUE(plan->solve(b).ok());
  if (core::resolve_cpu_threads(0) > 1) {
    EXPECT_GT(plan->owned_thread_count(), 0u);
  }
}

}  // namespace
}  // namespace msptrsv
