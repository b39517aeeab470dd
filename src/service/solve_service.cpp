#include "service/solve_service.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "core/registry.hpp"
#include "core/workspace.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace msptrsv::service {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - t0).count();
}

/// steady_clock time_point -> the trace layer's nanosecond time base
/// (both are time_since_epoch of the same clock).
std::uint64_t ns_of(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

/// A future already carrying its answer (the rejection/validation path).
std::future<SolveService::Reply> ready_reply(SolveService::Reply reply) {
  std::promise<SolveService::Reply> p;
  std::future<SolveService::Reply> f = p.get_future();
  p.set_value(std::move(reply));
  return f;
}

/// One admitted request as the queue and the dispatch path carry it.
SolveRequest make_request(const core::SolverPlan& plan,
                          std::vector<value_t> rhs, index_t num_rhs,
                          const SubmitOptions& submit,
                          Clock::time_point submitted) {
  SolveRequest request{plan,
                       std::move(rhs),
                       num_rhs,
                       submit.priority,
                       Clock::time_point::max(),
                       {},
                       submitted};
  if (submit.deadline.count() > 0) {
    request.deadline = request.submitted + submit.deadline;
  }
  request.trace_id = submit.trace_id;
  request.parent_span = submit.parent_span;
  return request;
}

QueueOptions queue_options(const ServiceOptions& o) {
  QueueOptions q;
  q.max_width = o.max_coalesce;
  q.pack_max_groups = o.pack_max_groups;
  q.pack_narrow_width = o.pack_narrow_width;
  q.pack_small_rows = o.pack_small_rows;
  return q;
}

}  // namespace

SolveService::SolveService(ServiceOptions options)
    : options_(options),
      pool_(options.pool != nullptr ? options.pool
                                    : &core::SharedWorkerPool::instance()),
      cache_(options.cache),
      stats_(options.stats_latency_ring),
      slot_limit_(pool_->threads()) {
  if (!options_.cache_dir.empty()) {
    cache_.set_disk_directory(options_.cache_dir);
  }
  const int n_shards = std::max(1, options_.dispatch_shards);
  options_.dispatch_shards = n_shards;
  shards_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    shards_.push_back(std::make_unique<RequestQueue>(queue_options(options_)));
  }
  dispatchers_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    dispatchers_.emplace_back(
        [this, s] { dispatch_loop(static_cast<std::size_t>(s)); });
  }
}

SolveService::~SolveService() {
  // Stop admission and let each dispatcher hand out whatever is queued on
  // its shard. Then wait for every dispatch task to give its slot back:
  // the tasks run on the pool and reference this object up to and
  // including release_slot(), which comes after every promise is answered
  // -- so an empty slot count also means everything admitted is answered.
  for (auto& q : shards_) q->shutdown();
  for (std::thread& d : dispatchers_) d.join();
  std::unique_lock<std::mutex> lock(slot_mutex_);
  slot_cv_.wait(lock, [&] { return dispatches_in_flight_ == 0; });
}

std::size_t SolveService::shard_of(const void* state_id) const {
  // Fibonacci-mix the pointer (state ids are heap addresses: the low bits
  // are alignment zeros, the high bits are shared) so plans spread evenly
  // over the shards.
  const std::uint64_t h =
      (reinterpret_cast<std::uintptr_t>(state_id) >> 4) *
      UINT64_C(0x9E3779B97F4A7C15);
  return static_cast<std::size_t>((h >> 32) % shards_.size());
}

std::future<SolveService::Reply> SolveService::submit(
    const core::SolverPlan& plan, std::vector<value_t> b,
    SubmitOptions submit) {
  return enqueue(plan, std::move(b), 1, submit);
}

std::future<SolveService::Reply> SolveService::submit_batch(
    const core::SolverPlan& plan, std::vector<value_t> rhs, index_t num_rhs,
    SubmitOptions submit) {
  return enqueue(plan, std::move(rhs), num_rhs, submit);
}

std::future<SolveService::Reply> SolveService::enqueue(
    const core::SolverPlan& plan, std::vector<value_t> rhs, index_t num_rhs,
    SubmitOptions submit) {
  // Shape errors are caught HERE, not at dispatch: a wrong-length rhs
  // concatenated into a fused batch would corrupt its neighbors' columns.
  if (num_rhs < 1) {
    return ready_reply(Reply(core::SolveStatus::kShapeMismatch,
                             "num_rhs must be >= 1 (got " +
                                 std::to_string(num_rhs) + ")"));
  }
  const std::size_t expected = static_cast<std::size_t>(plan.rows()) *
                               static_cast<std::size_t>(num_rhs);
  if (rhs.size() != expected) {
    return ready_reply(
        Reply(core::SolveStatus::kShapeMismatch,
              "batch of " + std::to_string(num_rhs) + " rhs requires " +
                  std::to_string(expected) + " values (column-major), got " +
                  std::to_string(rhs.size())));
  }
  // A batch wider than the whole admission bound can NEVER be admitted:
  // that is a permanent shape problem, not transient overload -- telling
  // the client to "retry later" would loop it forever.
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  if (k > options_.max_pending_rhs) {
    return ready_reply(
        Reply(core::SolveStatus::kShapeMismatch,
              "batch of " + std::to_string(num_rhs) +
                  " rhs exceeds the service admission bound of " +
                  std::to_string(options_.max_pending_rhs) +
                  " outstanding rhs; split the batch or raise "
                  "ServiceOptions::max_pending_rhs"));
  }

  SolveRequest request =
      make_request(plan, std::move(rhs), num_rhs, submit, Clock::now());
  std::future<Reply> future = request.promise.get_future();

  // Admission counts OUTSTANDING rhs -- admitted but not yet answered --
  // not just the un-popped queues: a popped batch moves to the shared
  // pool's deques, and bounding only the queues would let a sustained
  // flood accumulate admitted work there without limit.
  bool admitted;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    admitted = outstanding_rhs_ + k <= options_.max_pending_rhs;
    if (admitted) {
      ++unanswered_;
      outstanding_rhs_ += k;
    }
  }
  const Priority priority = request.priority;
  const std::size_t cls = static_cast<std::size_t>(priority);
  if (admitted) {
    // Count the request as queued BEFORE push() makes it poppable: the
    // dispatcher's decrement must never run first and wrap the unsigned
    // depth gauges.
    queued_rhs_.fetch_add(k, std::memory_order_relaxed);
    queued_by_class_[cls].fetch_add(k, std::memory_order_relaxed);
    RequestQueue& shard = *shards_[shard_of(plan.state_id())];
    if (!shard.push(std::move(request))) {
      // Shutdown, the queue's only refusal: roll the admission back.
      queued_rhs_.fetch_sub(k, std::memory_order_relaxed);
      queued_by_class_[cls].fetch_sub(k, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(pending_mutex_);
      --unanswered_;
      outstanding_rhs_ -= k;
      pending_cv_.notify_all();
      admitted = false;
    }
  }
  if (!admitted) {
    stats_.on_reject(static_cast<std::uint64_t>(num_rhs));
    return ready_reply(
        Reply(core::SolveStatus::kOverloaded,
              "solve service is at capacity (" +
                  std::to_string(options_.max_pending_rhs) +
                  " pending rhs) or shutting down; retry later"));
  }
  stats_.on_submit(priority, static_cast<std::uint64_t>(num_rhs));
  publish_depth();
  return future;
}

std::optional<SolveService::Reply> SolveService::solve_here(
    const core::SolverPlan& plan, std::span<const value_t> rhs,
    index_t num_rhs, std::span<value_t> x, SubmitOptions submit,
    const std::function<void()>& admitted) {
  const Clock::time_point submitted = Clock::now();
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  if (num_rhs < 1 ||
      rhs.size() != static_cast<std::size_t>(plan.rows()) * k ||
      x.size() != rhs.size()) {
    return std::nullopt;
  }
  // Queued work on the shard goes first (and is already waiting for the
  // next free slot): running past it would reorder the shard.
  if (shards_[shard_of(plan.state_id())]->depth_rhs() != 0) {
    return std::nullopt;
  }
  {
    // The slot and the admission are taken together or not at all.
    std::lock_guard<std::mutex> slot(slot_mutex_);
    if (dispatches_in_flight_ >= slot_limit_) return std::nullopt;
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (outstanding_rhs_ + k > options_.max_pending_rhs) return std::nullopt;
    ++dispatches_in_flight_;
    ++unanswered_;
    outstanding_rhs_ += k;
  }
  stats_.on_submit(submit.priority, static_cast<std::uint64_t>(num_rhs));
  admitted();
  PoppedDispatch dispatch;
  SolveRequest& request = dispatch.groups.emplace_back().emplace_back(
      make_request(plan, {}, num_rhs, submit, submitted));
  request.in = rhs;
  request.out = x;
  std::future<Reply> reply =
      dispatch.groups.front().front().promise.get_future();
  execute_dispatch(dispatch);
  release_slot();
  return reply.get();
}

void SolveService::publish_depth() {
  // Mirrored atomics, not the shard mutexes: this runs on every submit
  // and every pop, and locking all N shards here would serialize the
  // very path sharding is meant to scale. The gauges are eventually
  // consistent with the queues (push increments before this publish, pop
  // decrements before its publish).
  std::array<std::uint64_t, kNumPriorities> by_class{};
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    by_class[c] = queued_by_class_[c].load(std::memory_order_relaxed);
  }
  stats_.on_queue_depth(queued_rhs_.load(std::memory_order_relaxed),
                        by_class);
}

void SolveService::acquire_slot() {
  std::unique_lock<std::mutex> lock(slot_mutex_);
  slot_cv_.wait(lock, [&] { return dispatches_in_flight_ < slot_limit_; });
  ++dispatches_in_flight_;
}

void SolveService::release_slot() {
  // Notify UNDER the lock: the destructor may tear the condition variable
  // down the moment the count hits zero, so the notify must complete
  // before the waiter can observe it.
  std::lock_guard<std::mutex> lock(slot_mutex_);
  --dispatches_in_flight_;
  slot_cv_.notify_all();
}

void SolveService::dispatch_loop(std::size_t shard) {
  RequestQueue& queue = *shards_[shard];
  // Work-conserving: a slot is taken only once this shard has work (an
  // idle shard holding one would starve a busy one), and the pop then
  // takes whatever accumulated while every slot was busy -- that pile-up
  // is the coalescing.
  while (queue.wait_for_work()) {
    acquire_slot();
    PoppedDispatch dispatch = queue.pop_dispatch();
    for (const std::vector<SolveRequest>& g : dispatch.groups) {
      for (const SolveRequest& r : g) {
        const std::uint64_t k = static_cast<std::uint64_t>(r.num_rhs);
        queued_rhs_.fetch_sub(k, std::memory_order_relaxed);
        queued_by_class_[static_cast<std::size_t>(r.priority)].fetch_sub(
            k, std::memory_order_relaxed);
      }
    }
    publish_depth();

    // Hand the dispatch to the shared pool: per-thread deques + stealing
    // spread concurrent plans' batches across the machine, and the worker
    // that picks it up becomes tid 0 of the dispatch's gang. A dispatch
    // carrying any high-priority request jumps the pool's task queue
    // (urgent submit) -- the priority must survive the last FIFO stage
    // between this pop and a worker, not just the pop order. shared_ptr
    // because std::function must be copyable.
    bool urgent = false;
    for (const std::vector<SolveRequest>& g : dispatch.groups) {
      for (const SolveRequest& r : g) {
        urgent = urgent || r.priority == Priority::kHigh;
      }
    }
    auto job = std::make_shared<PoppedDispatch>(std::move(dispatch));
    pool_->submit(
        [this, job] {
          execute_dispatch(*job);
          release_slot();
        },
        urgent);
  }
}

void SolveService::shed_request(SolveRequest& r) noexcept {
  stats_.on_shed(r.priority, static_cast<std::uint64_t>(r.num_rhs));
  const double waited = us_since(r.submitted, Clock::now());
  r.promise.set_value(Reply(
      core::SolveStatus::kDeadlineExceeded,
      "deadline passed before the solve could start (waited " +
          std::to_string(static_cast<long long>(waited)) +
          " us); request shed"));
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    --unanswered_;
    outstanding_rhs_ -= static_cast<std::size_t>(r.num_rhs);
    pending_cv_.notify_all();
  }
}

void SolveService::execute_dispatch(PoppedDispatch& dispatch) noexcept {
  // Shed requests whose start-by deadline has already passed -- solving
  // them would spend gang time on answers nobody is waiting for. The
  // check sits at execution start (not pop) so queue-to-worker handoff
  // delay counts against the deadline too.
  const Clock::time_point now = Clock::now();
  for (std::vector<SolveRequest>& group : dispatch.groups) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (group[i].deadline < now) {
        shed_request(group[i]);
      } else {
        if (kept != i) group[kept] = std::move(group[i]);
        ++kept;
      }
    }
    group.erase(group.begin() + static_cast<std::ptrdiff_t>(kept),
                group.end());
  }
  std::erase_if(dispatch.groups,
                [](const std::vector<SolveRequest>& g) { return g.empty(); });
  if (dispatch.groups.empty()) return;

  stats_.on_pool_dispatch(dispatch.groups.size());
  if (dispatch.groups.size() == 1) {
    execute_group(dispatch.groups.front());
    return;
  }

  // Cross-plan packed dispatch: the sub-batches run as SIBLING tasks on
  // one claimed gang -- one claim for the whole pack instead of one tiny
  // (and reservation-throttled) gang per tenant. Each sibling pins its
  // nested solve to width 1 (ScopedGangCap): the packed plans are small,
  // so intra-solve parallelism is worth less than solving the pack's
  // members concurrently, and the siblings must not steal each other's
  // workers. Bits are unchanged -- the kernels are width-invariant.
  std::atomic<std::size_t> next{0};
  pool_->run_gang(
      static_cast<int>(dispatch.groups.size()) - 1, [](int) {},
      [&](int, int) {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= dispatch.groups.size()) return;
          core::ScopedGangCap solo(1);
          execute_group(dispatch.groups[i]);
        }
      });
}

void SolveService::execute_group(std::vector<SolveRequest>& batch) noexcept {
  const core::SolverPlan& plan = batch.front().plan;
  const std::size_t n = static_cast<std::size_t>(plan.rows());
  index_t total_rhs = 0;
  for (const SolveRequest& r : batch) total_rhs += r.num_rhs;
  stats_.on_dispatch(total_rhs, batch.size());

  // Execution start / coalesce end: queue_us is each request's
  // submit-to-here wait; coalesce_us is the part of that wait spent
  // gathering companions (submit to the YOUNGEST member's submit).
  const Clock::time_point exec_start = Clock::now();
  Clock::time_point youngest = batch.front().submitted;
  for (const SolveRequest& r : batch) {
    youngest = std::max(youngest, r.submitted);
  }
  // Synthetic spans for the wait the requests already served: emitted
  // with the stored timestamps, parented under each request's own client
  // span (the tree is per-request even when the dispatch is fused).
  if (MSPTRSV_TRACE_ARMED()) {
    const std::uint64_t exec_ns = ns_of(exec_start);
    const std::uint64_t youngest_ns = ns_of(youngest);
    for (const SolveRequest& r : batch) {
      if (!support::trace::trace_id_set(r.trace_id)) continue;
      const std::uint64_t sub_ns = ns_of(r.submitted);
      support::trace::trace_emit("service.queue", sub_ns, exec_ns, r.trace_id,
                                 r.parent_span, "rhs",
                                 static_cast<std::int64_t>(r.num_rhs));
      support::trace::trace_emit(
          "service.coalesce", sub_ns, youngest_ns, r.trace_id, r.parent_span,
          "companions", static_cast<std::int64_t>(batch.size() - 1));
    }
  }

  // Answer exactly once per request, in order; `answered` makes the
  // catch-all below safe (a promise set twice would itself throw).
  std::size_t answered = 0;
  const auto answer = [&](SolveRequest& r, Reply reply, bool ok) {
    const double latency = us_since(r.submitted, Clock::now());
    stats_.on_complete(plan.state_id(), plan.rows(),
                       static_cast<std::uint64_t>(r.num_rhs), ok, r.priority,
                       latency);
    // Slow-request sampler: report every completion (no-op when tracing
    // is disarmed or the request is untraced).
    support::trace::trace_note_completion(r.trace_id, latency);
    r.promise.set_value(std::move(reply));
    ++answered;
    {
      // Notify UNDER the lock: a drain()-ing destructor may tear the
      // condition variable down the moment the count hits zero, so the
      // notify must complete before the waiter can observe it.
      std::lock_guard<std::mutex> lock(pending_mutex_);
      --unanswered_;
      outstanding_rhs_ -= static_cast<std::size_t>(r.num_rhs);
      pending_cv_.notify_all();
    }
  };

  try {
    Reply result = [&]() -> Reply {
      // Chaos seam: fail or stall a whole dispatch group here without
      // involving the kernels (error arg = the SolveStatus to inject).
      if (const support::FailpointHit fp =
              MSPTRSV_FAILPOINT("service.dispatch");
          fp.kind == support::FailpointHit::Kind::kError) {
        return Reply(static_cast<core::SolveStatus>(fp.arg),
                     "injected by failpoint service.dispatch");
      }
      // The fused solve is ONE kernel run: its spans (gang claim, kernel
      // levels) record under the FIRST traced request of the batch -- the
      // executing thread is tid 0 of the gang, so installing the context
      // here is what carries the id all the way into the kernels. Riders
      // still get their own queue/coalesce spans and phase figures.
      std::optional<support::trace::ScopedTraceContext> trace_ctx;
      if (MSPTRSV_TRACE_ARMED()) {
        for (const SolveRequest& r : batch) {
          if (support::trace::trace_id_set(r.trace_id)) {
            trace_ctx.emplace(r.trace_id, r.parent_span);
            break;
          }
        }
      }
      MSPTRSV_TRACE_SPAN("service.execute", "rhs",
                         static_cast<std::int64_t>(total_rhs));
      // The service-lifetime abandon token rides every dispatch so
      // abandon_inflight() stops mid-execution solves; the plan tightens
      // it with its own time_budget (core::SolverPlan::effective_token).
      const core::CancelToken cancel = abandon_.token();
      if (batch.size() == 1) {
        // The common un-coalesced case: solve straight from the client's
        // buffer, no concatenation copy -- and for solve_here, straight
        // into the caller's.
        const SolveRequest& r = batch.front();
        if (!r.out.empty()) {
          return plan.solve_batch(r.in, r.num_rhs, r.out, cancel);
        }
        return plan.solve_batch(r.rhs, r.num_rhs, cancel);
      }
      std::vector<value_t> concat;
      concat.reserve(n * static_cast<std::size_t>(total_rhs));
      for (const SolveRequest& r : batch) {
        concat.insert(concat.end(), r.rhs.begin(), r.rhs.end());
      }
      return plan.solve_batch(concat, total_rhs, cancel);
    }();

    if (!result.ok()) {
      for (SolveRequest& r : batch) {
        answer(r, Reply(result.error()), /*ok=*/false);
      }
      return;
    }

    core::SolveResult& whole = result.value();
    // Per-request phase attribution: claim/pack/kernel/unpack are batch
    // figures from the core (shared by every rider -- the fused run IS
    // their solve); queue/coalesce are each request's own wait. reply_us
    // stays 0 here -- the server thread that writes the reply stamps it
    // once the frame flushes.
    const auto stamp_phases = [&](SolveRequest& r, core::SolveResult& reply) {
      reply.phases.queue_us = us_since(r.submitted, exec_start);
      reply.phases.coalesce_us = us_since(r.submitted, youngest);
      reply.completed_ns = whole.completed_ns;
      stats_.on_phases(reply.phases);
    };
    if (batch.size() == 1) {
      stamp_phases(batch.front(), whole);
      answer(batch.front(), std::move(whole), /*ok=*/true);
      return;
    }
    std::size_t offset = 0;
    for (SolveRequest& r : batch) {
      core::SolveResult reply;
      const std::size_t cols = static_cast<std::size_t>(r.num_rhs);
      reply.x.assign(whole.x.begin() + static_cast<std::ptrdiff_t>(offset * n),
                     whole.x.begin() +
                         static_cast<std::ptrdiff_t>((offset + cols) * n));
      // Every rider shares the batch's report: the solve cost IS the
      // fused makespan (that is the whole point of coalescing); only the
      // rhs count is each client's own.
      reply.report = whole.report;
      reply.report.num_rhs = r.num_rhs;
      reply.wall_seconds = whole.wall_seconds;
      reply.phases = whole.phases;
      stamp_phases(r, reply);
      answer(r, std::move(reply), /*ok=*/true);
      offset += cols;
    }
  } catch (const std::exception& e) {
    const std::string what = e.what();
    for (std::size_t i = answered; i < batch.size(); ++i) {
      answer(batch[i],
             Reply(core::SolveStatus::kInternalError,
                   "dispatch failed: " + what),
             /*ok=*/false);
    }
  } catch (...) {
    for (std::size_t i = answered; i < batch.size(); ++i) {
      answer(batch[i],
             Reply(core::SolveStatus::kInternalError,
                   "dispatch failed with a non-standard exception"),
             /*ok=*/false);
    }
  }
}

core::Expected<core::SolverPlan> SolveService::plan_for(
    const sparse::CscMatrix& lower, core::SolveOptions options) {
  options.use_shared_pool = true;
  return cache_.get_or_analyze(lower, options);
}

core::Expected<core::SolverPlan> SolveService::plan_for(
    const sparse::CscMatrix& lower, std::string_view backend_key) {
  core::Expected<core::SolveOptions> opt =
      core::registry::service_options(backend_key);
  if (!opt.ok()) return core::Expected<core::SolverPlan>(opt.error());
  return cache_.get_or_analyze(lower, opt.value());
}

core::Expected<core::SolverPlan> SolveService::plan_for_preset(
    const sparse::CscMatrix& lower, std::string_view preset_key,
    core::Backend backend) {
  core::Expected<core::SolveOptions> opt =
      core::registry::service_preset_options(preset_key, backend);
  if (!opt.ok()) return core::Expected<core::SolverPlan>(opt.error());
  return cache_.get_or_analyze(lower, opt.value());
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [&] { return unanswered_ == 0; });
}

}  // namespace msptrsv::service
