#include "core/cpu_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "support/contracts.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace msptrsv::core {

namespace {

// ---- Per-position gather-and-solve ------------------------------------------

/// Plain-pointer view of a RowForm for the inner loops, so the compiler
/// need not reload the vectors' internals after every x store.
struct Rows {
  const offset_t* row_ptr;
  const index_t* col_idx;
  const value_t* val;
  const index_t* row_of;
  explicit Rows(const RowForm& rf)
      : row_ptr(rf.row_ptr.data()),
        col_idx(rf.col_idx.data()),
        val(rf.val.data()),
        row_of(rf.row_of.data()) {}
};

/// Solves the row at position p for kBlock column-major rhs (column q of
/// the block at b/x + q*n) by PULLING the final x entries of its
/// dependencies: register accumulators start at zero and gather in the
/// stored column order, then one divide per rhs. This is the one per-row
/// operation sequence of every host kernel -- whatever the schedule,
/// thread count or batch width -- so all of them agree bit for bit.
template <std::size_t kBlock>
inline void solve_block(const Rows& rows, std::size_t p, const value_t* b,
                        value_t* x, std::size_t n) {
  // The diagonal terminates every stored row.
  const offset_t diag = rows.row_ptr[p + 1] - 1;
  value_t acc[kBlock] = {};
  for (offset_t e = rows.row_ptr[p]; e < diag; ++e) {
    const std::size_t c = static_cast<std::size_t>(rows.col_idx[e]);
    const value_t lv = rows.val[e];
    for (std::size_t q = 0; q < kBlock; ++q) acc[q] += lv * x[q * n + c];
  }
  const std::size_t i = static_cast<std::size_t>(rows.row_of[p]);
  const value_t d = rows.val[diag];
  for (std::size_t q = 0; q < kBlock; ++q) {
    x[q * n + i] = (b[q * n + i] - acc[q]) / d;
  }
}

/// Position p for all k column-major rhs, in register blocks of up to
/// four: one pass over the row's entries per block.
inline void solve_position(const Rows& rows, std::size_t p, const value_t* b,
                           value_t* x, std::size_t n, std::size_t k) {
  std::size_t r = 0;
  for (; r + 4 <= k; r += 4) solve_block<4>(rows, p, b + r * n, x + r * n, n);
  switch (k - r) {
    case 1:
      solve_block<1>(rows, p, b + r * n, x + r * n, n);
      break;
    case 2:
      solve_block<2>(rows, p, b + r * n, x + r * n, n);
      break;
    case 3:
      solve_block<3>(rows, p, b + r * n, x + r * n, n);
      break;
    default:
      break;
  }
}

// ---- The serial backend: one front-to-back sweep over the positions ---------

/// Solves kBlock column-major rhs in one sweep over every position. The
/// serial order puts each window's rows of one level side by side, so
/// consecutive rows rarely depend on each other and the core overlaps
/// their gathers and divides.
template <std::size_t kBlock>
bool serial_sweep(const Rows& rows, const value_t* b, value_t* x,
                  std::size_t n, const CancelToken* cancel) {
  // One clock read per ~4096 rows keeps the budget check invisible next
  // to the gather work.
  constexpr std::size_t kCancelStride = 4096;
  for (std::size_t p = 0; p < n; ++p) {
    if (cancel != nullptr && p % kCancelStride == 0 && cancel->cancelled()) {
      return false;
    }
    solve_block<kBlock>(rows, p, b, x, n);
  }
  return true;
}

// ---- Scheduling drivers ----------------------------------------------------
//
// The barrier/claim protocols and the abort machinery; solve_one(p) must
// fully solve the row at position p for the whole batch.

template <typename SolveOne>
bool drive_levelset(const sparse::LevelAnalysis& analysis, SolveWorkspace& ws,
                    const CancelToken* cancel, SolveOne&& solve_one) {
  SpinBarrier& sync = ws.level_barrier();

  // `threads` is the ACTUAL party count of this run (a shared-pool gang
  // may be narrower than the cap); the level slices and the barrier --
  // resized by run_parallel -- both follow it.
  //
  // Abort protocol: tid 0 checks the token AFTER its level work and
  // stores the flag BEFORE arriving at the barrier; every party reads it
  // after leaving. All parties therefore pass the same number of barriers
  // and exit at the same level -- the barrier stays coherent and the
  // workspace needs no repair.
  std::atomic<bool> abort{false};
  ws.run_parallel([&](int tid, int threads) {
    // Tracing is leader-only: the gang leader is the dispatching thread,
    // so its thread-local context carries the request's trace id into the
    // kernel; one span per LEVEL (start -> barrier passed), never per row.
    const bool lead_trace = tid == 0 && MSPTRSV_TRACE_ARMED();
    for (index_t l = 0; l < analysis.num_levels; ++l) {
      const std::uint64_t lvl_t0 =
          lead_trace ? support::trace::trace_now_ns() : 0;
      const offset_t begin = analysis.level_ptr[static_cast<std::size_t>(l)];
      const offset_t end = analysis.level_ptr[static_cast<std::size_t>(l) + 1];
      // Each party solves ONE contiguous slice of the level's positions:
      // its rows' structure is one unit-stride stream. Every dependency
      // sits in an earlier level, already final behind the barrier; ONE
      // barrier wave resolves the whole batch.
      const offset_t rows = end - begin;
      const offset_t hi = begin + rows * (tid + 1) / threads;
      for (offset_t p = begin + rows * tid / threads; p < hi; ++p) {
        solve_one(p);
      }
      if (tid == 0) {
        // Chaos seam: delay/pause here stretches the level without
        // touching the clock-driven budget logic under test.
        (void)MSPTRSV_FAILPOINT("kernel.level");
        if (cancel != nullptr && cancel->cancelled()) {
          abort.store(true, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();
      if (lead_trace) {
        support::trace::trace_emit_here(
            "kernel.level", lvl_t0, support::trace::trace_now_ns(), "level",
            static_cast<std::int64_t>(l), "rows",
            static_cast<std::int64_t>(rows));
      }
      if (abort.load(std::memory_order_relaxed)) return;
    }
  });
  return !abort.load(std::memory_order_relaxed);
}

template <typename SolveOne>
bool drive_syncfree(const sparse::CscMatrix& lower,
                    std::span<const index_t> order,
                    std::span<const index_t> in_degrees, SolveWorkspace& ws,
                    const CancelToken* cancel, SolveOne&& solve_one) {
  const index_t n = lower.rows;
  std::atomic<std::uint64_t>* delivered = ws.delivered(n);
  // Generation tagging replaces the per-solve countdown copy: each batch
  // delivers exactly in_degree(i) updates to component i (one per incoming
  // edge, regardless of num_rhs), so in generation g the ready target is
  // g * in_degree(i) and the counters are never reset.
  const std::uint64_t generation = ws.begin_generation();

  // Ascending position claiming: thread-safe and deadlock-free (see
  // header) -- and indifferent to the party count, so a shrunk
  // shared-pool gang just claims more positions per thread.
  //
  // Abort protocol: any thread that observes the token fired raises the
  // shared flag; claimants check it per claim and spinners on EVERY turn
  // (a component whose producer aborted would otherwise be waited on
  // forever). The clock itself is only read on a stride.
  std::atomic<bool> abort{false};
  std::atomic<index_t> next{0};
  ws.run_parallel([&](int tid, int /*threads*/) {
    std::uint64_t checks = 0;
    // Leader-only, one span for the leader's whole claim loop (the
    // sync-free sweep has no level structure to hang per-phase spans on;
    // per-component spans would be per-row noise). `claimed` counts the
    // components THIS thread solved.
    const bool lead_trace = tid == 0 && MSPTRSV_TRACE_ARMED();
    const std::uint64_t sweep_t0 =
        lead_trace ? support::trace::trace_now_ns() : 0;
    std::int64_t claimed = 0;
    const auto emit_sweep = [&] {
      if (lead_trace) {
        support::trace::trace_emit_here(
            "kernel.sweep", sweep_t0, support::trace::trace_now_ns(),
            "claimed", claimed, "rows", static_cast<std::int64_t>(n));
      }
    };
    for (;;) {
      const index_t p = next.fetch_add(1, std::memory_order_relaxed);
      if (p >= n) {
        emit_sweep();
        return;
      }
      if (abort.load(std::memory_order_relaxed)) {
        emit_sweep();
        return;
      }
      // Chaos seam, evaluated on EVERY real claim (not just tid 0): on a
      // sequential chain one warm worker can drain the whole solve before
      // another party ever claims, so gating on a tid would let a `pause`
      // arming miss the solve entirely.
      (void)MSPTRSV_FAILPOINT("kernel.task");
      if (cancel != nullptr && (++checks & 255) == 0 && cancel->cancelled()) {
        abort.store(true, std::memory_order_relaxed);
        emit_sweep();
        return;
      }
      // Delivery counters and the fan-out speak the analyzed factor's
      // row ids; the row form speaks positions.
      const index_t i = order[static_cast<std::size_t>(p)];
      // Lock-wait phase: ONE spin per component per batch. The acquire
      // load pairs with the producers' delivery increments, making their
      // final x entries visible to the gather below.
      const std::uint64_t target =
          generation *
          static_cast<std::uint64_t>(in_degrees[static_cast<std::size_t>(i)]);
      std::uint64_t spins = 0;
      while (delivered[static_cast<std::size_t>(i)].load(
                 std::memory_order_acquire) < target) {
        if (abort.load(std::memory_order_relaxed)) {
          emit_sweep();
          return;
        }
        if (cancel != nullptr && (++spins & 1023) == 0 &&
            cancel->cancelled()) {
          abort.store(true, std::memory_order_relaxed);
          emit_sweep();
          return;
        }
        std::this_thread::yield();
      }
      solve_one(p);
      ++claimed;
      // Delivery fan-out down column i: one increment per edge per batch
      // (the x stores above must be visible first, hence release).
      const offset_t d = lower.col_ptr[i];
      for (offset_t e = d + 1; e < lower.col_ptr[i + 1]; ++e) {
        delivered[static_cast<std::size_t>(lower.row_idx[e])].fetch_add(
            1, std::memory_order_acq_rel);
      }
    }
  });
  if (abort.load(std::memory_order_relaxed)) {
    // The generation's deliveries are torn; rewind the counters so the
    // next solve on this workspace computes targets from a clean slate.
    ws.reset_delivery();
    return false;
  }
  return true;
}

template <typename SolveOne>
bool drive_taskgraph(const sparse::TaskGraph& graph, SolveWorkspace& ws,
                     const CancelToken* cancel, SolveOne&& solve_one) {
  const index_t num_tasks = graph.num_tasks;
  // The sync-free delivery machinery, lifted from rows to tasks: the
  // counters are indexed by TASK id and the per-batch target of task t is
  // generation * in_degree[t] (one delivery per distinct incoming
  // cross-task edge).
  std::atomic<std::uint64_t>* delivered = ws.delivered(num_tasks);
  const std::uint64_t generation = ws.begin_generation();

  // Ascending task claiming is deadlock-free for the same reason the
  // sync-free row claim is: every edge goes from a lower task id to a
  // strictly higher one (tasks are numbered in level order), so the
  // smallest unsolved task is always claimed and its predecessors done.
  //
  // Cancellation is checked at TASK boundaries -- every claim, and on a
  // stride inside the delivery spin (a cancelled gang must not wait on
  // deliveries that will never arrive). Tasks are coarse by construction,
  // so a per-claim clock read is already amortized.
  std::atomic<bool> abort{false};
  std::atomic<index_t> next{0};
  ws.run_parallel([&](int tid, int /*threads*/) {
    // Leader-only, one span for the whole claim loop (mirrors the
    // sync-free sweep; per-task spans would be noise on fine DAGs).
    const bool lead_trace = tid == 0 && MSPTRSV_TRACE_ARMED();
    const std::uint64_t sweep_t0 =
        lead_trace ? support::trace::trace_now_ns() : 0;
    std::int64_t claimed = 0;
    const auto emit_sweep = [&] {
      if (lead_trace) {
        support::trace::trace_emit_here(
            "kernel.tasks", sweep_t0, support::trace::trace_now_ns(),
            "claimed", claimed, "tasks",
            static_cast<std::int64_t>(num_tasks));
      }
    };
    for (;;) {
      const index_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= num_tasks || abort.load(std::memory_order_relaxed)) {
        emit_sweep();
        return;
      }
      // Chaos seam shared with the sync-free kernel: a `pause` armed on
      // kernel.task stalls a task hand-off mid-solve.
      (void)MSPTRSV_FAILPOINT("kernel.task");
      if (cancel != nullptr && cancel->cancelled()) {
        abort.store(true, std::memory_order_relaxed);
        emit_sweep();
        return;
      }
      const std::uint64_t target =
          generation * static_cast<std::uint64_t>(
                           graph.in_degree[static_cast<std::size_t>(t)]);
      std::uint64_t spins = 0;
      while (delivered[static_cast<std::size_t>(t)].load(
                 std::memory_order_acquire) < target) {
        if (abort.load(std::memory_order_relaxed)) {
          emit_sweep();
          return;
        }
        if (cancel != nullptr && (++spins & 1023) == 0 &&
            cancel->cancelled()) {
          abort.store(true, std::memory_order_relaxed);
          emit_sweep();
          return;
        }
        std::this_thread::yield();
      }
      // The task body: its range of level-ordered positions (level order
      // for chains -- which is exactly what satisfies intra-task
      // dependencies -- and a slice of one level's independent rows for
      // blocks).
      for (offset_t p = graph.task_ptr[static_cast<std::size_t>(t)];
           p < graph.task_ptr[static_cast<std::size_t>(t) + 1]; ++p) {
        solve_one(p);
      }
      ++claimed;
      // Delivery fan-out to successor tasks: one increment per distinct
      // cross-task edge per batch (the x stores above must be visible
      // first, hence release semantics).
      for (offset_t e = graph.succ_ptr[static_cast<std::size_t>(t)];
           e < graph.succ_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
        delivered[static_cast<std::size_t>(
                      graph.succ[static_cast<std::size_t>(e)])]
            .fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });
  if (abort.load(std::memory_order_relaxed)) {
    ws.reset_delivery();
    return false;
  }
  return true;
}

/// Shape checks shared by the entry points.
void require_batch(const RowForm& rows, std::span<const value_t> b,
                   index_t num_rhs, std::span<const value_t> x) {
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(
      b.size() == static_cast<std::size_t>(rows.rows()) *
                      static_cast<std::size_t>(num_rhs) &&
          x.size() == b.size(),
      "batch must be column-major n x num_rhs");
}

}  // namespace

bool solve_lower_serial_pull(const RowForm& rows, std::span<const value_t> b,
                             index_t num_rhs, std::span<value_t> x,
                             const CancelToken* cancel) {
  require_batch(rows, b, num_rhs, x);
  const std::size_t n = static_cast<std::size_t>(rows.rows());
  const Rows view(rows);
  // Column blocks of up to four rhs, one full sweep each: four independent
  // accumulator chains hide the add latency, and the row structure is
  // streamed once per block instead of once per rhs.
  constexpr index_t kMaxBlock = 4;
  for (index_t r0 = 0; r0 < num_rhs; r0 += kMaxBlock) {
    const std::size_t off = static_cast<std::size_t>(r0) * n;
    const value_t* bb = b.data() + off;
    value_t* xb = x.data() + off;
    bool done = false;
    switch (std::min(kMaxBlock, num_rhs - r0)) {
      case 1:
        done = serial_sweep<1>(view, bb, xb, n, cancel);
        break;
      case 2:
        done = serial_sweep<2>(view, bb, xb, n, cancel);
        break;
      case 3:
        done = serial_sweep<3>(view, bb, xb, n, cancel);
        break;
      default:
        done = serial_sweep<4>(view, bb, xb, n, cancel);
        break;
    }
    if (!done) return false;
  }
  return true;
}

bool solve_lower_taskgraph_fused(const sparse::TaskGraph& graph,
                                 const RowForm& rows,
                                 std::span<const value_t> b, index_t num_rhs,
                                 SolveWorkspace& ws, std::span<value_t> x,
                                 const CancelToken* cancel) {
  require_batch(rows, b, num_rhs, x);
  MSPTRSV_REQUIRE(graph.n == rows.rows(),
                  "task graph belongs to a different matrix");
  const std::size_t n = static_cast<std::size_t>(rows.rows());
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const Rows view(rows);
  return drive_taskgraph(graph, ws, cancel, [&](offset_t p) {
    solve_position(view, static_cast<std::size_t>(p), b.data(), x.data(), n,
                   k);
  });
}

bool solve_lower_levelset_fused(const RowForm& rows,
                                std::span<const value_t> b, index_t num_rhs,
                                const sparse::LevelAnalysis& analysis,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel) {
  require_batch(rows, b, num_rhs, x);
  MSPTRSV_REQUIRE(analysis.n == rows.rows(),
                  "analysis belongs to a different matrix");
  const std::size_t n = static_cast<std::size_t>(rows.rows());
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const Rows view(rows);
  return drive_levelset(analysis, ws, cancel, [&](offset_t p) {
    solve_position(view, static_cast<std::size_t>(p), b.data(), x.data(), n,
                   k);
  });
}

bool solve_lower_syncfree_fused(const sparse::CscMatrix& lower,
                                const RowForm& rows,
                                std::span<const index_t> order,
                                std::span<const value_t> b, index_t num_rhs,
                                std::span<const index_t> in_degrees,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel) {
  require_batch(rows, b, num_rhs, x);
  const std::size_t n = static_cast<std::size_t>(lower.rows);
  MSPTRSV_REQUIRE(rows.rows() == lower.rows && order.size() == n &&
                      in_degrees.size() == n,
                  "row form / order / in-degrees sized for a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const Rows view(rows);
  return drive_syncfree(lower, order, in_degrees, ws, cancel, [&](offset_t p) {
    solve_position(view, static_cast<std::size_t>(p), b.data(), x.data(), n,
                   k);
  });
}

}  // namespace msptrsv::core
