// Real host backends: the serial pull sweep and the multi-threaded
// schedules.
//
// The parallel ones are genuinely parallel implementations (std::thread +
// atomics), not simulations: they validate the two parallelization
// strategies of Section II under true races and feed the
// micro-benchmarks.
//
//  * level-set: one barrier per level, each level split into one
//    contiguous slice per thread (Naumov's strategy);
//  * sync-free: all components active from the start; a component spins on
//    its delivery counter until its dependencies resolve (Liu's strategy).
//    Threads claim positions of a topological order in ascending order
//    from a shared counter, which guarantees deadlock freedom: the
//    earliest unsolved position is always already claimed and its
//    dependencies are all solved.
//
// Execution is PULL-based (the host analogue of the paper's read-only
// NVSHMEM gather, Algorithm 3): when a row's dependencies are known
// resolved -- by the level barrier or by its delivery counter -- it gathers
// its left-sum directly from the already-final x entries of its
// dependencies through the plan's row form (row_form.hpp), which stores
// the rows in the order the schedule executes them and in the caller's
// numbering. Kernels walk POSITIONS of that form: the serial sweep front
// to back, a level-set party one contiguous slice of each level, a task
// its range of positions, a sync-free claimant the next position.
// Producers never push partial sums into shared accumulators, so the
// value path has no atomics at all; the only atomic traffic is the
// sync-free per-edge delivery increment, and that is paid once per edge
// per BATCH. A pleasant corollary: the per-rhs summation order is the
// stored order of each row, independent of the position order, thread
// count and batch width, so fused and looped results agree bit-for-bit --
// and the serial backend, one party sweeping its own execution order,
// agrees with all of them.
//
// The fused kernels solve all `num_rhs` right-hand sides of a batch in one
// dependency resolution and one sweep over the structure, each row
// gathered for column-major register blocks of up to four rhs (the one
// batch layout, the public one). They run on a leased
// SolveWorkspace: persistent threads (no spawn/join per solve) and
// generation-tagged delivery counters (no O(n) scratch zeroing per solve)
// -- see workspace.hpp. The party count is PER RUN (ws.run_parallel
// reports it to the kernel lambda): a shared-pool gang may be narrower
// than the workspace cap when the machine is busy, and because the gather
// order is a property of the structure, not the schedule, the result bits
// do not depend on it.
#pragma once

#include <span>

#include "core/cancel.hpp"
#include "core/row_form.hpp"
#include "core/workspace.hpp"
#include "sparse/csc.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/task_graph.hpp"

namespace msptrsv::core {

/// The serial backend: one front-to-back sweep over the positions of
/// `rows` (built in serial_row_order), each row gathered in its stored
/// order from zero -- the same per-row arithmetic as every parallel
/// kernel below, so serial, cpu-levelset, cpu-syncfree and cpu-taskgraph
/// agree bit for bit. It is also every simulated plan's numeric kernel,
/// run over the plan's replay form (rows and entries in the simulated
/// push order; row_form.hpp). A batch runs in column blocks of up to
/// four rhs, one sweep per block with register accumulators. `b`/`x` are
/// column-major n x num_rhs in the row form's (caller) numbering.
/// `cancel` (may be null) is checked every few thousand rows; returns
/// false -- `x` partially written -- when it fires.
bool solve_lower_serial_pull(const RowForm& rows, std::span<const value_t> b,
                             index_t num_rhs, std::span<value_t> x,
                             const CancelToken* cancel = nullptr);

/// Fused level-set forward substitution for `num_rhs` right-hand sides.
/// `rows` is the row form built in `analysis.order`, so level l is the
/// positions [level_ptr[l], level_ptr[l+1]); `b` and `x` are column-major
/// n x num_rhs (entry i of rhs r at [r*n + i], caller numbering); `x`
/// must be sized n*num_rhs. No input validation: the caller (SolverPlan)
/// established the solvable-lower invariants at analysis time.
///
/// Cancellation: `cancel` (may be null) is checked by tid 0 once per level
/// BEFORE the level barrier; the abort flag is read by every party after
/// leaving it, so the whole gang exits at the same level with the barrier
/// coherent and the workspace immediately reusable. Returns false -- `x`
/// partially written, contents unspecified -- on abort, true on completion.
bool solve_lower_levelset_fused(const RowForm& rows,
                                std::span<const value_t> b, index_t num_rhs,
                                const sparse::LevelAnalysis& analysis,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel = nullptr);

/// Fused synchronization-free forward substitution; same batch layout and
/// workspace contract as solve_lower_levelset_fused. `rows` is built in
/// `order` (a topological order of `lower`'s rows), which the gang claims
/// front to back; `lower` supplies the column structure for the delivery
/// fan-out, and the delivery counters and `in_degrees` are indexed by
/// `lower`'s row ids.
///
/// Cancellation: checked on a stride inside the claim loop and on every
/// turn of the delivery spin (a cancelled gang must not spin on deliveries
/// that will never arrive). On abort the workspace's delivery counters are
/// mid-generation; the kernel resets them (reset_delivery) before
/// returning false, so the next solve on this workspace starts clean.
bool solve_lower_syncfree_fused(const sparse::CscMatrix& lower,
                                const RowForm& rows,
                                std::span<const index_t> order,
                                std::span<const value_t> b, index_t num_rhs,
                                std::span<const index_t> in_degrees,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel = nullptr);

/// Fused task-graph forward substitution: executes a coarsened task DAG
/// (sparse::coarsen_levels) with the sync-free claim/delivery protocol
/// lifted from rows to TASKS. `rows` is built in the level order the
/// graph was coarsened from, so task t is the positions [task_ptr[t],
/// task_ptr[t+1]). Threads claim tasks in ascending id order and spin on
/// per-task delivery counters (one per distinct cross-task edge per
/// batch); a task's positions then solve sequentially with the same
/// pull-based gather as the level-set kernel, so a fused chain of 1000
/// narrow levels costs one claim instead of 1000 barriers. The per-row
/// gather order is a property of the structure, not the schedule --
/// results are bit-for-bit identical to the level-set and sync-free
/// kernels at any thread count.
///
/// Cancellation: checked at TASK boundaries (every claim, and on a stride
/// inside the delivery spin). Same abort/reset_delivery contract as the
/// sync-free kernel; same batch layout and workspace contract as
/// solve_lower_levelset_fused.
bool solve_lower_taskgraph_fused(const sparse::TaskGraph& graph,
                                 const RowForm& rows,
                                 std::span<const value_t> b, index_t num_rhs,
                                 SolveWorkspace& ws, std::span<value_t> x,
                                 const CancelToken* cancel = nullptr);

}  // namespace msptrsv::core
