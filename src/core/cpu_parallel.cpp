#include "core/cpu_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "sparse/triangular.hpp"
#include "support/contracts.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace msptrsv::core {

namespace {

// ---- Inner RHS-sweep kernel, runtime-dispatched ----------------------------
//
// acc[r] += lv * xc[r] over the unit-stride interleaved panel slice of one
// dependency. Written as separate multiply and add EVERYWHERE (the build
// sets -ffp-contract=off as well): an FMA would round once where the
// scalar reference rounds twice, and the bit-for-bit contract across
// layouts, thread counts, and dispatch targets is the whole point.
// Per-lane arithmetic is identical in all three bodies -- lane r always
// computes round(acc[r] + round(lv * xc[r])) -- so which one runs is
// unobservable in the results.

using AxpyFn = void (*)(value_t* acc, const value_t* xc, value_t lv,
                        std::size_t k);

void axpy_scalar(value_t* acc, const value_t* xc, value_t lv, std::size_t k) {
#pragma omp simd
  for (std::size_t r = 0; r < k; ++r) acc[r] += lv * xc[r];
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void axpy_avx2(value_t* acc, const value_t* xc,
                                               value_t lv, std::size_t k) {
  const __m256d vlv = _mm256_set1_pd(lv);
  std::size_t r = 0;
  for (; r + 4 <= k; r += 4) {
    const __m256d a = _mm256_loadu_pd(acc + r);
    const __m256d xv = _mm256_loadu_pd(xc + r);
    // mul then add, never _mm256_fmadd_pd -- see the dispatch comment.
    _mm256_storeu_pd(acc + r, _mm256_add_pd(a, _mm256_mul_pd(vlv, xv)));
  }
  for (; r < k; ++r) acc[r] += lv * xc[r];
}
#endif

/// Dispatch target resolved once per process (same idiom as the crc32c
/// hardware probe in support/blob.cpp).
AxpyFn resolve_axpy() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return axpy_avx2;
#endif
  return axpy_scalar;
}

AxpyFn axpy_kernel() {
  static const AxpyFn fn = resolve_axpy();
  return fn;
}

// ---- Per-component gather-and-solve, one per layout ------------------------

/// Gathers component i's solution for every rhs by PULLING the final x
/// entries of its dependencies through the row form (ascending column
/// order: deterministic regardless of thread count or batch width). The
/// diagonal terminates row i of a solvable lower factor. Column-major
/// batch: the inner RHS loop strides by n.
inline void gather_and_solve(const sparse::CsrMatrix& rows, index_t i,
                             std::span<const value_t> b, std::size_t num_rhs,
                             std::size_t n, value_t* acc,
                             std::span<value_t> x) {
  const offset_t rb = rows.row_ptr[static_cast<std::size_t>(i)];
  const offset_t re = rows.row_ptr[static_cast<std::size_t>(i) + 1];
  const value_t diag = rows.val[static_cast<std::size_t>(re - 1)];
  for (std::size_t r = 0; r < num_rhs; ++r) acc[r] = 0.0;
  for (offset_t e = rb; e < re - 1; ++e) {
    const std::size_t c =
        static_cast<std::size_t>(rows.col_idx[static_cast<std::size_t>(e)]);
    const value_t lv = rows.val[static_cast<std::size_t>(e)];
    for (std::size_t r = 0; r < num_rhs; ++r) {
      acc[r] += lv * x[r * n + c];
    }
  }
  for (std::size_t r = 0; r < num_rhs; ++r) {
    x[r * n + static_cast<std::size_t>(i)] =
        (b[r * n + static_cast<std::size_t>(i)] - acc[r]) / diag;
  }
}

/// Interleaved-panel variant: b and x are component-major n x k panels
/// (entry i of rhs r at [i*k + r]), so the dependency read is ONE
/// contiguous k-vector and the whole gather is the dispatched axpy. Same
/// per-rhs operation order as the column-major form: ascending column
/// gather, then one divide -- bit-for-bit identical results.
inline void gather_and_solve_interleaved(const sparse::CsrMatrix& rows,
                                         index_t i, const value_t* b,
                                         std::size_t k, value_t* acc,
                                         value_t* x, AxpyFn axpy) {
  const offset_t rb = rows.row_ptr[static_cast<std::size_t>(i)];
  const offset_t re = rows.row_ptr[static_cast<std::size_t>(i) + 1];
  const value_t diag = rows.val[static_cast<std::size_t>(re - 1)];
  for (std::size_t r = 0; r < k; ++r) acc[r] = 0.0;
  for (offset_t e = rb; e < re - 1; ++e) {
    const std::size_t c =
        static_cast<std::size_t>(rows.col_idx[static_cast<std::size_t>(e)]);
    axpy(acc, x + c * k, rows.val[static_cast<std::size_t>(e)], k);
  }
  const value_t* bi = b + static_cast<std::size_t>(i) * k;
  value_t* xi = x + static_cast<std::size_t>(i) * k;
#pragma omp simd
  for (std::size_t r = 0; r < k; ++r) {
    xi[r] = (bi[r] - acc[r]) / diag;
  }
}

// ---- The serial backend: one natural-order pull sweep ----------------------

/// Solves kBlock right-hand sides (column-major, column q of the block at
/// b/x + q*n) in one ascending-row sweep. Each row gathers its
/// dependencies in ascending column order into register accumulators
/// that start at zero, then divides -- the exact operation sequence of
/// gather_and_solve, so the bits match every parallel kernel.
template <int kBlock>
bool serial_pull_block(const sparse::CsrMatrix& rows, const value_t* b,
                       value_t* x, std::size_t n, const CancelToken* cancel) {
  // One clock read per ~4096 rows keeps the budget check invisible next
  // to the gather work.
  constexpr std::size_t kCancelStride = 4096;
  const offset_t* row_ptr = rows.row_ptr.data();
  const index_t* col_idx = rows.col_idx.data();
  const value_t* val = rows.val.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (cancel != nullptr && i % kCancelStride == 0 && cancel->cancelled()) {
      return false;
    }
    // The diagonal terminates row i of a solvable lower factor.
    const offset_t diag = row_ptr[i + 1] - 1;
    value_t acc[kBlock] = {};
    for (offset_t e = row_ptr[i]; e < diag; ++e) {
      const std::size_t c = static_cast<std::size_t>(col_idx[e]);
      const value_t lv = val[e];
      for (int q = 0; q < kBlock; ++q) acc[q] += lv * x[q * n + c];
    }
    for (int q = 0; q < kBlock; ++q) {
      x[q * n + i] = (b[q * n + i] - acc[q]) / val[diag];
    }
  }
  return true;
}

// ---- Scheduling drivers, shared by both layouts ----------------------------
//
// The barrier/claim protocols and the abort machinery are layout-blind;
// only the per-component body differs. solve_one(i, acc) must fully solve
// component i for the whole batch using the thread-private accumulator.

template <typename SolveOne>
bool drive_levelset(const sparse::LevelAnalysis& analysis, index_t num_rhs,
                    SolveWorkspace& ws, const CancelToken* cancel,
                    SolveOne&& solve_one) {
  SpinBarrier& sync = ws.level_barrier();
  // Workspace-owned per-thread accumulators: nothing allocates (or can
  // throw) inside the parallel region once the batch width has been seen.
  // Sized for the workspace's party CAP, so a shared-pool gang of any
  // width indexes in bounds.
  value_t* scratch = ws.gather_scratch(num_rhs);
  const std::size_t stride = ws.gather_stride();

  // `threads` is the ACTUAL party count of this run (a shared-pool gang
  // may be narrower than the cap); the level stride and the barrier --
  // resized by run_parallel -- both follow it.
  //
  // Abort protocol: tid 0 checks the token AFTER its level work and
  // stores the flag BEFORE arriving at the barrier; every party reads it
  // after leaving. All parties therefore pass the same number of barriers
  // and exit at the same level -- the barrier stays coherent and the
  // workspace needs no repair.
  std::atomic<bool> abort{false};
  ws.run_parallel([&](int tid, int threads) {
    value_t* acc = scratch + static_cast<std::size_t>(tid) * stride;
    // Tracing is leader-only: the gang leader is the dispatching thread,
    // so its thread-local context carries the request's trace id into the
    // kernel; one span per LEVEL (start -> barrier passed), never per row.
    const bool lead_trace = tid == 0 && MSPTRSV_TRACE_ARMED();
    for (index_t l = 0; l < analysis.num_levels; ++l) {
      const std::uint64_t lvl_t0 =
          lead_trace ? support::trace::trace_now_ns() : 0;
      const offset_t begin = analysis.level_ptr[static_cast<std::size_t>(l)];
      const offset_t end = analysis.level_ptr[static_cast<std::size_t>(l) + 1];
      for (offset_t p = begin + tid; p < end; p += threads) {
        // Every dependency sits in an earlier level, already final behind
        // the barrier; ONE barrier wave resolves the whole batch.
        solve_one(analysis.order[static_cast<std::size_t>(p)], acc);
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
            static_cast<std::int64_t>(end - begin));
      }
      if (abort.load(std::memory_order_relaxed)) return;
    }
  });
  return !abort.load(std::memory_order_relaxed);
}

template <typename SolveOne>
bool drive_syncfree(const sparse::CscMatrix& lower,
                    std::span<const index_t> in_degrees, index_t num_rhs,
                    SolveWorkspace& ws, const CancelToken* cancel,
                    SolveOne&& solve_one) {
  const index_t n = lower.rows;
  std::atomic<std::uint64_t>* delivered = ws.delivered(n);
  // Generation tagging replaces the per-solve countdown copy: each batch
  // delivers exactly in_degree(i) updates to component i (one per incoming
  // edge, regardless of num_rhs), so in generation g the ready target is
  // g * in_degree(i) and the counters are never reset.
  const std::uint64_t generation = ws.begin_generation();
  value_t* scratch = ws.gather_scratch(num_rhs);
  const std::size_t stride = ws.gather_stride();

  // Ascending work claiming: thread-safe and deadlock-free (see header) --
  // and indifferent to the party count, so a shrunk shared-pool gang just
  // claims more components per thread.
  //
  // Abort protocol: any thread that observes the token fired raises the
  // shared flag; claimants check it per claim and spinners on EVERY turn
  // (a component whose producer aborted would otherwise be waited on
  // forever). The clock itself is only read on a stride.
  std::atomic<bool> abort{false};
  std::atomic<index_t> next{0};
  ws.run_parallel([&](int tid, int /*threads*/) {
    value_t* acc = scratch + static_cast<std::size_t>(tid) * stride;
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
      const index_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
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
      solve_one(i, acc);
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
bool drive_taskgraph(const sparse::TaskGraph& graph, index_t num_rhs,
                     SolveWorkspace& ws, const CancelToken* cancel,
                     SolveOne&& solve_one) {
  const index_t num_tasks = graph.num_tasks;
  value_t* scratch = ws.gather_scratch(num_rhs);
  const std::size_t stride = ws.gather_stride();
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
    value_t* acc = scratch + static_cast<std::size_t>(tid) * stride;
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
      // The task body: rows in stored order (level order for chains --
      // which is exactly what satisfies intra-task dependencies -- and a
      // single level's independent rows for blocks).
      for (offset_t p = graph.task_ptr[static_cast<std::size_t>(t)];
           p < graph.task_ptr[static_cast<std::size_t>(t) + 1]; ++p) {
        solve_one(graph.task_rows[static_cast<std::size_t>(p)], acc);
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

}  // namespace

bool solve_lower_serial_pull(const sparse::CsrMatrix& row_form,
                             std::span<const value_t> b, index_t num_rhs,
                             std::span<value_t> x, const CancelToken* cancel) {
  const std::size_t n = static_cast<std::size_t>(row_form.rows);
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(b.size() == n * static_cast<std::size_t>(num_rhs) &&
                      x.size() == b.size(),
                  "batch must be column-major n x num_rhs");
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
        done = serial_pull_block<1>(row_form, bb, xb, n, cancel);
        break;
      case 2:
        done = serial_pull_block<2>(row_form, bb, xb, n, cancel);
        break;
      case 3:
        done = serial_pull_block<3>(row_form, bb, xb, n, cancel);
        break;
      default:
        done = serial_pull_block<4>(row_form, bb, xb, n, cancel);
        break;
    }
    if (!done) return false;
  }
  return true;
}

bool solve_lower_taskgraph_fused(const sparse::TaskGraph& graph,
                                 const sparse::CsrMatrix& row_form,
                                 std::span<const value_t> b, index_t num_rhs,
                                 SolveWorkspace& ws, std::span<value_t> x,
                                 const CancelToken* cancel) {
  const index_t n = row_form.rows;
  const std::size_t un = static_cast<std::size_t>(n);
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(b.size() == un * static_cast<std::size_t>(num_rhs) &&
                      x.size() == b.size(),
                  "batch must be column-major n x num_rhs");
  MSPTRSV_REQUIRE(graph.n == n, "task graph belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  return drive_taskgraph(graph, num_rhs, ws, cancel,
                         [&](index_t i, value_t* acc) {
                           gather_and_solve(row_form, i, b, k, un, acc, x);
                         });
}

bool solve_lower_taskgraph_fused_interleaved(
    const sparse::TaskGraph& graph, const sparse::CsrMatrix& row_form,
    const value_t* b, index_t num_rhs, SolveWorkspace& ws, value_t* x,
    const CancelToken* cancel) {
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(graph.n == row_form.rows,
                  "task graph belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const AxpyFn axpy = axpy_kernel();
  return drive_taskgraph(
      graph, num_rhs, ws, cancel, [&](index_t i, value_t* acc) {
        gather_and_solve_interleaved(row_form, i, b, k, acc, x, axpy);
      });
}

bool solve_lower_levelset_fused(const sparse::CsrMatrix& row_form,
                                std::span<const value_t> b, index_t num_rhs,
                                const sparse::LevelAnalysis& analysis,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel) {
  const index_t n = row_form.rows;
  const std::size_t un = static_cast<std::size_t>(n);
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(b.size() == un * static_cast<std::size_t>(num_rhs) &&
                      x.size() == b.size(),
                  "batch must be column-major n x num_rhs");
  MSPTRSV_REQUIRE(analysis.n == n, "analysis belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  return drive_levelset(analysis, num_rhs, ws, cancel,
                        [&](index_t i, value_t* acc) {
                          gather_and_solve(row_form, i, b, k, un, acc, x);
                        });
}

bool solve_lower_levelset_fused_interleaved(
    const sparse::CsrMatrix& row_form, const value_t* b, index_t num_rhs,
    const sparse::LevelAnalysis& analysis, SolveWorkspace& ws, value_t* x,
    const CancelToken* cancel) {
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(analysis.n == row_form.rows,
                  "analysis belongs to a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const AxpyFn axpy = axpy_kernel();
  return drive_levelset(
      analysis, num_rhs, ws, cancel, [&](index_t i, value_t* acc) {
        gather_and_solve_interleaved(row_form, i, b, k, acc, x, axpy);
      });
}

bool solve_lower_syncfree_fused(const sparse::CscMatrix& lower,
                                const sparse::CsrMatrix& row_form,
                                std::span<const value_t> b, index_t num_rhs,
                                std::span<const index_t> in_degrees,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel) {
  const index_t n = lower.rows;
  const std::size_t un = static_cast<std::size_t>(n);
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(b.size() == un * static_cast<std::size_t>(num_rhs) &&
                      x.size() == b.size(),
                  "batch must be column-major n x num_rhs");
  MSPTRSV_REQUIRE(row_form.rows == n && in_degrees.size() == un,
                  "row form / in-degrees sized for a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  return drive_syncfree(lower, in_degrees, num_rhs, ws, cancel,
                        [&](index_t i, value_t* acc) {
                          gather_and_solve(row_form, i, b, k, un, acc, x);
                        });
}

bool solve_lower_syncfree_fused_interleaved(
    const sparse::CscMatrix& lower, const sparse::CsrMatrix& row_form,
    const value_t* b, index_t num_rhs, std::span<const index_t> in_degrees,
    SolveWorkspace& ws, value_t* x, const CancelToken* cancel) {
  const index_t n = lower.rows;
  MSPTRSV_REQUIRE(num_rhs >= 1, "num_rhs must be >= 1");
  MSPTRSV_REQUIRE(row_form.rows == n &&
                      in_degrees.size() == static_cast<std::size_t>(n),
                  "row form / in-degrees sized for a different matrix");
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const AxpyFn axpy = axpy_kernel();
  return drive_syncfree(
      lower, in_degrees, num_rhs, ws, cancel, [&](index_t i, value_t* acc) {
        gather_and_solve_interleaved(row_form, i, b, k, acc, x, axpy);
      });
}

std::vector<value_t> solve_lower_levelset_threads(
    const sparse::CscMatrix& lower, std::span<const value_t> b,
    const sparse::LevelAnalysis& analysis, int num_threads,
    bool prevalidated) {
  if (!prevalidated) sparse::require_solvable_lower(lower);
  MSPTRSV_REQUIRE(b.size() == static_cast<std::size_t>(lower.rows),
                  "rhs length must match the matrix dimension");
  const sparse::CsrMatrix rows = sparse::csr_from_csc(lower);
  SolveWorkspace ws(resolve_cpu_threads(num_threads));
  std::vector<value_t> x(static_cast<std::size_t>(lower.rows));
  solve_lower_levelset_fused(rows, b, 1, analysis, ws, x);
  return x;
}

std::vector<value_t> solve_lower_syncfree_threads(
    const sparse::CscMatrix& lower, std::span<const value_t> b,
    int num_threads) {
  // Pre-processing of the sync-free scheme: per-component in-degrees
  // (compute_in_degrees also validates the input).
  return solve_lower_syncfree_threads(lower, b,
                                      sparse::compute_in_degrees(lower),
                                      num_threads);
}

std::vector<value_t> solve_lower_syncfree_threads(
    const sparse::CscMatrix& lower, std::span<const value_t> b,
    std::span<const index_t> in_degrees, int num_threads) {
  MSPTRSV_REQUIRE(b.size() == static_cast<std::size_t>(lower.rows),
                  "rhs length must match the matrix dimension");
  const sparse::CsrMatrix rows = sparse::csr_from_csc(lower);
  SolveWorkspace ws(resolve_cpu_threads(num_threads));
  std::vector<value_t> x(static_cast<std::size_t>(lower.rows));
  solve_lower_syncfree_fused(lower, rows, b, 1, in_degrees, ws, x);
  return x;
}

}  // namespace msptrsv::core
