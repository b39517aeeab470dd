#include "core/cpu_parallel.hpp"

#include <algorithm>
#include <atomic>

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

// ---- The range sweep: the inner loop of every host kernel -------------------

/// Solves positions [begin, end) for kBlock column-major rhs, front to
/// back. The serial order puts each window's rows of one level side by
/// side, and a level slice holds independent rows only, so consecutive
/// rows rarely depend on each other and the core overlaps their gathers
/// and divides. `cancel` (may be null) is read once per ~4096 positions,
/// which keeps the budget check invisible next to the gather work.
template <std::size_t kBlock>
bool sweep(const Rows& rows, std::size_t begin, std::size_t end,
           const value_t* b, value_t* x, std::size_t n,
           const CancelToken* cancel) {
  constexpr std::size_t kCancelStride = 4096;
  for (std::size_t p = begin; p < end; ++p) {
    if (cancel != nullptr && p % kCancelStride == 0 && cancel->cancelled()) {
      return false;
    }
    solve_block<kBlock>(rows, p, b, x, n);
  }
  return true;
}

/// Positions [begin, end) for all k column-major rhs, in column blocks of
/// up to four, one sweep each: four independent accumulator chains hide
/// the add latency, and the row structure is streamed once per block
/// instead of once per rhs. False when `cancel` fired.
bool sweep_range(const Rows& rows, std::size_t begin, std::size_t end,
                 const value_t* b, value_t* x, std::size_t n, std::size_t k,
                 const CancelToken* cancel) {
  constexpr std::size_t kMaxBlock = 4;
  for (std::size_t r0 = 0; r0 < k; r0 += kMaxBlock) {
    const value_t* bb = b + r0 * n;
    value_t* xb = x + r0 * n;
    bool done = false;
    switch (std::min(kMaxBlock, k - r0)) {
      case 1:
        done = sweep<1>(rows, begin, end, bb, xb, n, cancel);
        break;
      case 2:
        done = sweep<2>(rows, begin, end, bb, xb, n, cancel);
        break;
      case 3:
        done = sweep<3>(rows, begin, end, bb, xb, n, cancel);
        break;
      default:
        done = sweep<4>(rows, begin, end, bb, xb, n, cancel);
        break;
    }
    if (!done) return false;
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
  return sweep_range(Rows(rows), 0, n, b.data(), x.data(), n,
                     static_cast<std::size_t>(num_rhs), cancel);
}

bool solve_lower_levelset_fused(const RowForm& rows,
                                std::span<const value_t> b, index_t num_rhs,
                                std::span<const offset_t> level_ptr,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel) {
  require_batch(rows, b, num_rhs, x);
  MSPTRSV_REQUIRE(!level_ptr.empty() && level_ptr.back() == rows.rows(),
                  "level boundaries belong to a different matrix");
  const auto num_levels = static_cast<index_t>(level_ptr.size() - 1);
  const std::size_t n = static_cast<std::size_t>(rows.rows());
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const Rows view(rows);
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
    for (index_t l = 0; l < num_levels; ++l) {
      const std::uint64_t lvl_t0 =
          lead_trace ? support::trace::trace_now_ns() : 0;
      const offset_t begin = level_ptr[static_cast<std::size_t>(l)];
      const offset_t width = level_ptr[static_cast<std::size_t>(l) + 1] - begin;
      // Each party sweeps ONE contiguous slice of the level's positions:
      // its rows' structure is one unit-stride stream. Every dependency
      // sits in an earlier level, already final behind the barrier; ONE
      // barrier wave resolves the whole batch.
      sweep_range(view,
                  static_cast<std::size_t>(begin + width * tid / threads),
                  static_cast<std::size_t>(begin + width * (tid + 1) / threads),
                  b.data(), x.data(), n, k, nullptr);
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
            static_cast<std::int64_t>(width));
      }
      if (abort.load(std::memory_order_relaxed)) return;
    }
  });
  return !abort.load(std::memory_order_relaxed);
}

}  // namespace msptrsv::core
