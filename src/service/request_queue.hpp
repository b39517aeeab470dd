// Plan-grouped request queue with priority-weighted selection and
// cross-plan packing of small tenants.
//
// The queue is the service's batching AND scheduling point. Requests are
// grouped by plan identity (SolverPlan::state_id()), and every group is
// poppable as soon as it holds a request: there is no time window. Width
// comes from load instead. The service pops only while one of its
// dispatch slots is free (solve_service.hpp), so requests that arrive
// while every slot is busy pile up in their plan's group and leave
// together. pop_dispatch() hands the dispatcher ONE dispatch -- usually up
// to max_width right-hand sides of one group (whole requests, never
// splitting one), which becomes a single fused solve_batch call; when the
// chosen group is SMALL (few rows, few rhs), other small groups are PACKED
// into the same dispatch as sibling sub-batches so many tiny tenants ride
// one gang claim instead of queueing one dispatch each.
//
// Selection: the dispatcher takes the group with the largest
// priority-WEIGHTED head wait (weights 16/4/1 for high/normal/background).
// Higher classes win while waits are comparable, but a background group's
// score grows without bound as it waits, so a flood of one class can delay
// another by at most the weight ratio times its own service time --
// starvation-free in both directions, by construction. Classes differ in
// this weight only (and the service's urgent pool submit for kHigh).
// Deadlines do not reorder anything here: a request that STARTS past its
// deadline is shed by the service with typed kDeadlineExceeded instead of
// being solved late (SolveService::execute_dispatch).
//
// Admission control does NOT live here: the service bounds OUTSTANDING rhs
// (queued or executing), a strict superset of what this queue holds, so
// push() only ever refuses after shutdown.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "service/priority.hpp"

namespace msptrsv::service {

/// One admitted client request: a plan reference (copies share state), the
/// right-hand sides, scheduling fields, and the promise the dispatcher
/// answers through.
struct SolveRequest {
  core::SolverPlan plan;
  /// num_rhs columns of length plan.rows(), column-major.
  std::vector<value_t> rhs;
  index_t num_rhs = 1;
  Priority priority = Priority::kNormal;
  /// Absolute start-by time; time_point::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::promise<core::Expected<core::SolveResult>> promise;
  std::chrono::steady_clock::time_point submitted;
  /// Request-scoped trace identity (all-zero = untraced) and the span the
  /// submitting side opened for this request -- the dispatcher installs
  /// them as the executing thread's context so server-side spans stitch
  /// under the client's tree. See support/trace.hpp.
  support::trace::TraceId trace_id{};
  std::uint64_t parent_span = 0;
  /// Set instead of `rhs` by SolveService::solve_here, whose caller owns
  /// both buffers: the solve reads `in` and writes x into `out`, and the
  /// reply's x stays empty. Such a request is never queued or coalesced.
  std::span<const value_t> in{};
  std::span<value_t> out{};
};

/// Scheduling configuration of one queue shard.
struct QueueOptions {
  /// Widest fused dispatch, in rhs.
  index_t max_width = 32;
  /// Cross-plan packing: a SMALL group (<= pack_small_rows rows and
  /// <= pack_narrow_width pending rhs) may carry up to pack_max_groups - 1
  /// other small groups in its dispatch. 1 disables packing.
  std::size_t pack_max_groups = 8;
  index_t pack_narrow_width = 4;
  index_t pack_small_rows = 4096;
};

/// One popped dispatch: groups[0] is the scheduling winner; any further
/// entries are small-tenant sub-batches packed onto the same dispatch.
/// Every inner vector is non-empty and single-plan (ready for one fused
/// solve_batch); distinct entries are distinct plans. Empty `groups` means
/// shut down AND drained: the dispatcher's exit signal.
struct PoppedDispatch {
  std::vector<std::vector<SolveRequest>> groups;
};

class RequestQueue {
 public:
  explicit RequestQueue(QueueOptions options);

  /// Enqueues `r`; false only after shutdown() (the caller rolls its
  /// admission back).
  bool push(SolveRequest r);

  /// Blocks until the queue holds a request (true) or is shut down and
  /// empty (false). The service's dispatcher waits here BEFORE taking a
  /// dispatch slot, so an idle shard never holds one.
  bool wait_for_work();

  /// Blocks until the queue holds a request and pops one dispatch (see
  /// PoppedDispatch); returns an empty one once shut down and drained.
  PoppedDispatch pop_dispatch();

  /// Stops admission; pop_dispatch keeps handing out what is queued.
  /// Idempotent.
  void shutdown();

  /// Pending right-hand sides (the backpressure/depth gauge), total and
  /// per priority class. (The service publishes its depth gauges from
  /// its own mirrored atomics; these locked accessors are for tests and
  /// direct queue users.)
  std::size_t depth_rhs() const;
  std::size_t depth_rhs(Priority p) const;

 private:
  struct Group {
    std::deque<SolveRequest> requests;
    /// Summed num_rhs of `requests`.
    index_t width = 0;
    /// Most urgent class among members (a high-priority rider promotes
    /// the whole group: it will be dispatched with it anyway).
    Priority priority = Priority::kBackground;
  };
  using Clock = std::chrono::steady_clock;

  /// True when `g` qualifies for cross-plan packing (small plan, narrow
  /// pending width). Caller locks.
  bool packable_locked(const Group& g) const;
  /// Pops up to `width_cap` rhs of `g` (whole requests, oldest first) into
  /// `out` and refreshes the group's derived fields; erases the group from
  /// the map when emptied. Caller locks.
  std::vector<SolveRequest> take_locked(const void* id, Group& g,
                                        index_t width_cap);

  const QueueOptions opt_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<const void*, Group> groups_;
  std::size_t pending_rhs_ = 0;
  std::size_t pending_by_class_[kNumPriorities] = {0, 0, 0};
  bool stopping_ = false;
};

}  // namespace msptrsv::service
