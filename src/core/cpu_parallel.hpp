// Real host backends: the serial pull sweep and the level-set gang.
//
// The gang is a genuinely parallel implementation (std::thread + a spin
// barrier), not a simulation: it runs the level-set strategy of Section
// II -- one barrier per level, each level split into one contiguous slice
// per thread (Naumov's strategy) -- under true races.
//
// Execution is PULL-based (the host analogue of the paper's read-only
// NVSHMEM gather, Algorithm 3): once the level barrier has resolved a
// row's dependencies, the row gathers its left-sum directly from the
// already-final x entries of its dependencies through the plan's row form
// (row_form.hpp), which stores the rows in the order the schedule
// executes them and in the caller's numbering. Both kernels run ONE range
// sweep over POSITIONS of that form: the serial backend over [0, n), a
// level-set party over its slice of each level. Producers never push
// partial sums into shared accumulators, so the value path has no atomics
// at all. A pleasant corollary: the per-rhs summation order is the stored
// order of each row, independent of the position order, thread count and
// batch width, so fused and looped results agree bit-for-bit -- and the
// serial backend, one party sweeping its own execution order, agrees with
// the gang.
//
// Both kernels solve all `num_rhs` right-hand sides of a batch in column
// blocks of up to four rhs (the one batch layout, the public one), one
// sweep per block with register accumulators; the gang resolves the
// dependencies of the whole batch with one barrier wave per level. It
// runs on a leased SolveWorkspace: persistent threads (no spawn/join per
// solve) and a reusable barrier -- see workspace.hpp. The party count is
// PER RUN (ws.run_parallel reports it to the kernel lambda): a
// shared-pool gang may be narrower than the workspace cap when the
// machine is busy, and because the gather order is a property of the
// structure, not the schedule, the result bits do not depend on it.
#pragma once

#include <span>

#include "core/cancel.hpp"
#include "core/row_form.hpp"
#include "core/workspace.hpp"

namespace msptrsv::core {

/// The serial backend: one front-to-back range sweep over the positions
/// of `rows` (built in serial_row_order), each row gathered in its stored
/// order from zero -- the sweep every level-set party runs over its
/// slice, so serial and cpu-levelset agree bit for bit. It is also every
/// simulated plan's numeric kernel, run over the plan's replay form (rows
/// and entries in the simulated push order; row_form.hpp). A batch runs
/// in column blocks of up to four rhs, one sweep per block with register
/// accumulators. `b`/`x` are column-major n x num_rhs in the row form's
/// (caller) numbering. `cancel` (may be null) is checked every few
/// thousand rows; returns false -- `x` partially written -- when it fires.
bool solve_lower_serial_pull(const RowForm& rows, std::span<const value_t> b,
                             index_t num_rhs, std::span<value_t> x,
                             const CancelToken* cancel = nullptr);

/// Fused level-set forward substitution for `num_rhs` right-hand sides.
/// `rows` is the row form built in level order, so level l is the
/// positions [level_ptr[l], level_ptr[l+1]); `b` and `x` are column-major
/// n x num_rhs (entry i of rhs r at [r*n + i], caller numbering); `x`
/// must be sized n*num_rhs. No input validation: the caller (SolverPlan)
/// built the form and its level boundaries at analysis, or proved them at
/// restore (is_row_schedule).
///
/// Cancellation: `cancel` (may be null) is checked by tid 0 once per level
/// BEFORE the level barrier; the abort flag is read by every party after
/// leaving it, so the whole gang exits at the same level with the barrier
/// coherent and the workspace immediately reusable. Returns false -- `x`
/// partially written, contents unspecified -- on abort, true on completion.
bool solve_lower_levelset_fused(const RowForm& rows,
                                std::span<const value_t> b, index_t num_rhs,
                                std::span<const offset_t> level_ptr,
                                SolveWorkspace& ws, std::span<value_t> x,
                                const CancelToken* cancel = nullptr);

}  // namespace msptrsv::core
