// Multi-tenant solve service: the front door many concurrent clients call.
//
// PRs 1-3 built the substrate -- reusable SolverPlans, a true fused
// solve_batch, a content-addressed PlanCache -- and this subsystem turns it
// into a server:
//
//   service::SolveService svc;                        // shared pool + cache
//   auto plan = svc.plan_for(L, "auto");              // analyze-on-first-use
//   auto fut  = svc.submit(*plan, b);                 // async, non-blocking
//   auto slo  = svc.submit(*plan, b2,                 // SLO'd traffic
//       {.priority = service::Priority::kHigh,
//        .deadline = std::chrono::milliseconds(5)});
//   ...
//   core::Expected<core::SolveResult> r = fut.get();  // or r.status() ==
//                                                     // kOverloaded /
//                                                     // kDeadlineExceeded
//
//  * LOAD-DRIVEN COALESCING: the service keeps at most one dispatch in
//    flight per worker of its dispatch pool (the dispatch SLOTS). A
//    request that finds a slot free leaves at once -- nothing waits for
//    company on an idle machine. Requests that arrive while every slot is
//    busy pile up in their plan's group and leave as ONE fused
//    solve_batch when a slot frees, so independent single-RHS traffic
//    rides the 3-7x per-rhs fused path exactly when load makes it pay,
//    and the result bits are exactly what sequential plan.solve calls
//    would produce (the fused kernel's bit-for-bit guarantee).
//  * PRIORITIES + DEADLINES: every submit carries a Priority class and an
//    optional start-by deadline. When a slot frees, the dispatcher takes
//    the group with the largest priority-weighted head wait (see
//    request_queue.hpp): high-priority groups go first at comparable
//    wait, and neither class can starve the other (bounded-delay aging).
//    Requests that would start past their deadline are shed with typed
//    kDeadlineExceeded instead of being solved for a client that already
//    gave up.
//  * CROSS-PLAN PACKING: narrow solves from DIFFERENT small plans queued
//    at the same pop are packed into one pool dispatch and executed as
//    sibling tasks on one claimed gang -- many tiny tenants ride one
//    dispatch instead of queueing one each, which is what keeps occupancy
//    up when no single tenant is wide enough to fill a gang. Bits are
//    unchanged: each sub-batch still runs the plan's own fused
//    solve_batch.
//  * SHARDED DISPATCH: plans hash onto ServiceOptions::dispatch_shards
//    independent queue+dispatcher pairs, so the submit path scales past a
//    single pop/hand-off thread. (Coalescing and packing are per-shard:
//    same-plan requests always share a shard by construction. The
//    dispatch slots are shared by all shards.)
//  * SHARED EXECUTION: dispatches run as tasks on the process-wide
//    core::SharedWorkerPool (per-thread deques, work stealing), every
//    plan built through the service has use_shared_pool set, and gang
//    claims are reservation-capped at pool_size / active_solves under
//    contention -- total host threads stay capped no matter how many
//    tenants solve at once, no tenant's gang monopolizes the machine, and
//    an idle plan holds zero threads.
//  * BACKPRESSURE: admission is bounded in pending right-hand sides;
//    past the bound submit() completes the future immediately with typed
//    kOverloaded (never blocks, never drops silently).
//  * OBSERVABILITY: a lock-free ServiceStats publishes queue depth and
//    latency quantiles per priority class, the coalesce-width and
//    packed-dispatch histograms, per-plan solve counts, and shed counts.
//
// Lifetime: the service drains on destruction -- every admitted request is
// answered before the destructor returns. Plans handed out by plan_for()
// stay valid after the service dies (they only reference the process-wide
// shared pool).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "core/worker_pool.hpp"
#include "service/priority.hpp"
#include "service/request_queue.hpp"
#include "service/service_stats.hpp"

namespace msptrsv::service {

struct ServiceOptions {
  /// Admission bound: OUTSTANDING right-hand sides across all plans --
  /// everything admitted and not yet answered, whether still queued or
  /// already executing. Beyond it submits fail fast with kOverloaded.
  std::size_t max_pending_rhs = 1024;
  /// Widest fused dispatch (rhs per solve_batch call).
  index_t max_coalesce = 32;
  /// Cross-plan packing: a SMALL group (<= pack_small_rows rows,
  /// <= pack_narrow_width pending rhs) carries up to pack_max_groups - 1
  /// other small groups in its pool dispatch, executed as sibling tasks
  /// on one claimed gang. 1 disables packing.
  std::size_t pack_max_groups = 8;
  index_t pack_narrow_width = 4;
  index_t pack_small_rows = 4096;
  /// Dispatcher shards: plans hash onto this many independent
  /// queue+dispatcher pairs (>= 1). Same-plan traffic always lands on one
  /// shard, so coalescing is unaffected; cross-plan packing only packs
  /// within a shard, so many-tiny-tenant deployments should prefer few
  /// shards unless submit rate demands more.
  int dispatch_shards = 1;
  /// Latency quantile window per stats ring (overall + one per priority
  /// class) -- quantiles cover only the most recent this-many
  /// completions; see the service_stats.hpp file comment.
  std::size_t stats_latency_ring = ServiceStats::kDefaultLatencyRing;
  /// Plan cache configuration for analyze-on-first-use (count capacity +
  /// optional byte budget).
  core::CacheOptions cache{};
  /// Optional blob directory for the cache (cross-process warm starts).
  std::string cache_dir;
  /// Pool the DISPATCH TASKS run on; null = the process-wide
  /// SharedWorkerPool::instance(). Its threads() is the number of dispatch
  /// slots: the dispatchers pop only while fewer dispatches than that are
  /// in flight. A non-null pool MUST outlive the service: a pool
  /// destroyed first abandons queued dispatches and the service's
  /// drain/destructor would wait forever. Note the kernel gangs
  /// of served plans always claim from the process-wide instance
  /// (use_shared_pool is a plan-level option with no per-service pool
  /// plumbing), so a private pool here isolates dispatch scheduling, not
  /// kernel threads.
  core::SharedWorkerPool* pool = nullptr;
};

class SolveService {
 public:
  using Reply = core::Expected<core::SolveResult>;

  explicit SolveService(ServiceOptions options = {});
  /// Drains: every admitted request is answered before this returns.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Asynchronous single-RHS solve. The future resolves to the solution
  /// (bit-for-bit what plan.solve(b) returns, however the dispatch was
  /// coalesced or packed) or to a typed error: kOverloaded under
  /// backpressure / shutdown, kDeadlineExceeded when `submit.deadline`
  /// passed before the solve could start, kShapeMismatch for a
  /// wrong-length b (checked at submit -- a malformed request must not
  /// poison a fused batch). Never blocks.
  std::future<Reply> submit(const core::SolverPlan& plan,
                            std::vector<value_t> b, SubmitOptions submit = {});

  /// Asynchronous multi-RHS solve (num_rhs columns, column-major). A
  /// client batch stays whole -- it may be coalesced WITH others but is
  /// never split across dispatches.
  std::future<Reply> submit_batch(const core::SolverPlan& plan,
                                  std::vector<value_t> rhs, index_t num_rhs,
                                  SubmitOptions submit = {});

  /// Runs one multi-RHS request on the CALLING thread when queueing it
  /// would buy nothing: a dispatch slot is free and the plan's shard has
  /// nothing queued. The request is admitted, holds a slot, and is shed,
  /// traced, counted and answered exactly as a dispatched request of its
  /// own would be. It reads `rhs` in place and writes the solution into
  /// `x` (the caller's buffers, the same size; the reply's x stays empty),
  /// so nothing is copied or zero-filled on the way. `admitted` runs
  /// once, after admission and the slot are taken and before the solve
  /// starts (the network server hands its socket's read side to the
  /// connection's other thread there). Returns nullopt -- with no side
  /// effect -- when it declines: a busy slot set, queued work on the
  /// shard, a shape error or a full admission bound. submit_batch is then
  /// the way in, and answers the last two with their typed errors.
  std::optional<Reply> solve_here(const core::SolverPlan& plan,
                                  std::span<const value_t> rhs,
                                  index_t num_rhs, std::span<value_t> x,
                                  SubmitOptions submit,
                                  const std::function<void()>& admitted);

  // ---- analyze-on-first-use ------------------------------------------------
  // All plan_for paths stamp use_shared_pool and go through the service's
  // own PlanCache: the first request against a factor pays the symbolic
  // phase (or a blob read), every later one is an O(1) hit.

  core::Expected<core::SolverPlan> plan_for(const sparse::CscMatrix& lower,
                                            core::SolveOptions options);
  /// Registry-keyed backend ("cpu-levelset", "mg-zerocopy", ...).
  core::Expected<core::SolverPlan> plan_for(const sparse::CscMatrix& lower,
                                            std::string_view backend_key);
  /// Machine-preset construction ("dgx1x8", "dgx2x16", ...).
  core::Expected<core::SolverPlan> plan_for_preset(
      const sparse::CscMatrix& lower, std::string_view preset_key,
      core::Backend backend = core::Backend::kMgZeroCopy);

  /// Blocks until every request admitted so far has been answered.
  void drain();

  /// Abandons every in-flight solve: the dispatch token is cancelled, the
  /// host kernels notice at their next level/claim boundary, and each
  /// affected request is answered kOverloaded with its workspace returned
  /// clean. One-shot and irreversible -- after this call every future
  /// dispatch on this service is abandoned too, so it belongs immediately
  /// before destruction when a bounded shutdown matters more than
  /// finishing queued work. drain() afterwards completes in kernel-stride
  /// time instead of full-solve time.
  void abandon_inflight() { abandon_.cancel(); }

  ServiceStatsSnapshot stats() const { return stats_.snapshot(); }
  /// Reply-phase figure from the layer that actually flushes replies (the
  /// network server's connection thread that writes each reply):
  /// completion-to-socket-flush, in
  /// microseconds. Completes the per-phase histograms the first six
  /// phases of which the service records itself.
  void record_reply_us(double us) { stats_.on_reply_phase(us); }
  core::PlanCache& plan_cache() { return cache_; }
  const core::PlanCache& plan_cache() const { return cache_; }
  core::SharedWorkerPool& pool() { return *pool_; }
  const ServiceOptions& options() const { return options_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  std::future<Reply> enqueue(const core::SolverPlan& plan,
                             std::vector<value_t> rhs, index_t num_rhs,
                             SubmitOptions submit);
  /// The queue shard serving `state_id` (same plan -> same shard, always).
  std::size_t shard_of(const void* state_id) const;
  void dispatch_loop(std::size_t shard);
  /// Blocks until a dispatch slot is free and takes it.
  void acquire_slot();
  /// Returns a slot: the last thing a dispatch task does with the service.
  void release_slot();
  /// Publishes total + per-class queue depth across all shards.
  void publish_depth();

  /// Runs one popped dispatch on a pool worker: shed expired requests,
  /// then execute the (possibly packed) group set. Must not throw.
  void execute_dispatch(PoppedDispatch& dispatch) noexcept;
  /// One single-plan sub-batch: concatenate, one fused solve_batch,
  /// split, answer every promise. Must not throw.
  void execute_group(std::vector<SolveRequest>& batch) noexcept;
  /// Answers `r` with kDeadlineExceeded and settles the admission
  /// accounting (the shed path of the deadline contract).
  void shed_request(SolveRequest& r) noexcept;

  ServiceOptions options_;
  core::SharedWorkerPool* pool_;
  core::PlanCache cache_;
  /// One queue per dispatcher shard; plans hash onto shards by state_id.
  std::vector<std::unique_ptr<RequestQueue>> shards_;
  ServiceStats stats_;

  /// Cross-shard queued-rhs gauges, mirrored from push/pop deltas so
  /// publish_depth() is a few atomic loads instead of locking every
  /// shard's mutex on every submit (which would serialize exactly the
  /// path dispatch_shards exists to scale).
  std::atomic<std::uint64_t> queued_rhs_{0};
  std::array<std::atomic<std::uint64_t>, kNumPriorities> queued_by_class_{};

  /// Lifetime cancellation source: its token rides every dispatched
  /// solve_batch, so abandon_inflight() can stop mid-execution work.
  core::CancelSource abandon_;

  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  /// Requests admitted but not yet answered (queued OR executing): the
  /// drain condition is this hitting zero, which closes the window where
  /// a request is out of the queue but not yet answered.
  std::size_t unanswered_ = 0;
  /// The same span counted in RIGHT-HAND SIDES -- what max_pending_rhs
  /// bounds (popped-but-executing work included, so backpressure holds
  /// even when the dispatchers keep the queues themselves near empty).
  std::size_t outstanding_rhs_ = 0;

  /// Dispatch slots, shared by every shard: dispatches in flight (popped
  /// and not yet finished) never exceed slot_limit_ = pool_->threads().
  /// The destructor waits for this count to reach zero, which is what
  /// keeps a finishing dispatch task from touching a destroyed service.
  const int slot_limit_;
  std::mutex slot_mutex_;
  std::condition_variable slot_cv_;
  int dispatches_in_flight_ = 0;

  std::vector<std::thread> dispatchers_;
};

}  // namespace msptrsv::service
