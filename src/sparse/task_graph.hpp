// Coarsened task-DAG schedule over a level analysis.
//
// The level-set schedule pays one gang synchronization per level even when
// hundreds of consecutive levels are nearly serial chains -- exactly the
// regime the paper's Section VI-D "low parallelism" matrices live in. This
// pass coarsens a LevelAnalysis into TASKS under a simple cost model:
//
//  * runs of consecutive NARROW levels (population <= narrow_width) are
//    fused into ONE chain task whose rows execute sequentially in level
//    order. A width-1000-level chain collapses from 1000 barriers to one
//    task claim; intra-task dependencies are satisfied by the sequential
//    level-order sweep, so the run needs no synchronization at all.
//  * WIDE levels are split into cache-sized row blocks (block_rows rows
//    per task). Rows of one level are mutually independent, so a block
//    task is a plain parallel slice with no internal ordering.
//
// Cross-task dependencies stay explicit: task t carries an in-degree (the
// number of distinct predecessor tasks) and a deduplicated successor list,
// which is what the cpu-taskgraph backend's delivery counters run on.
//
// Tasks are numbered in level order, so every edge goes from a lower task
// id to a strictly higher one -- ascending-id claiming is deadlock-free by
// the same argument as the sync-free row schedule, and ascending task
// order IS a topological order (the property test pins this down).
//
// The pass is structure-only (no values), deterministic in its inputs, and
// costs O(n + nnz). The narrow threshold comes from measured host costs
// (HostCosts, timed once per process by core::measured_host_costs) so it
// tracks the machine; every caller that must rebuild an IDENTICAL graph
// later (plan blobs) pins it explicitly through CoarsenOptions.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/level_analysis.hpp"

namespace msptrsv::sparse {

enum class TaskKind : std::uint8_t {
  /// Fused run of narrow levels; rows execute sequentially in level order.
  kChain = 0,
  /// Row block of a single wide level; rows are mutually independent.
  kBlock = 1,
};

struct TaskGraph {
  index_t n = 0;
  index_t num_tasks = 0;

  /// Task t runs the level-order positions [task_ptr[t], task_ptr[t+1])
  /// -- rows levels.order[task_ptr[t] ..] of the analysis it was coarsened
  /// from (level order for chains, one level's ascending ids for a
  /// block). Tasks tile the positions in order, so every row appears
  /// exactly once across all tasks.
  std::vector<offset_t> task_ptr;
  /// TaskKind per task.
  std::vector<std::uint8_t> kind;
  /// task_of[row]: the task that solves the row.
  std::vector<index_t> task_of;

  /// Cross-task dependency structure, deduplicated: in_degree[t] distinct
  /// predecessor tasks must deliver before t may run; the successors of t
  /// are succ[succ_ptr[t] .. succ_ptr[t+1]), each strictly greater than t.
  std::vector<index_t> in_degree;
  std::vector<offset_t> succ_ptr;
  std::vector<index_t> succ;

  /// Coarsening statistics (observability + the autotuner's features).
  index_t num_chain_tasks = 0;
  index_t num_block_tasks = 0;
  /// Levels fused away: num_levels - (level runs surviving as sync points).
  index_t levels_fused = 0;

  bool chain(index_t t) const {
    return kind[static_cast<std::size_t>(t)] ==
           static_cast<std::uint8_t>(TaskKind::kChain);
  }
};

/// Coarsening thresholds. Zero block_rows derives a cache-sized block
/// from the structure; narrow_width must be resolved first (see
/// resolve_coarsen_options).
struct CoarsenOptions {
  /// Levels with population <= narrow_width fuse into chain tasks.
  index_t narrow_width = 0;
  /// Rows per block task when splitting a wide level.
  index_t block_rows = 0;
};

/// Measured host execution costs, the inputs of every schedule decision:
/// the autotuner's predicted solve times and the coarsener's narrow cut.
/// Timed once per process on a fixed calibration factor
/// (core::measured_host_costs); tests inject their own.
struct HostCosts {
  /// Serial sweep over its windowed level order (core::serial_row_order),
  /// ns per stored nonzero (k = 1).
  double serial_ns_per_nnz = 0.0;
  /// The parallel kernels' level-ordered gather on one party, ns per
  /// stored nonzero (k = 1).
  double gather_ns_per_nnz = 0.0;
  /// Effective cost of one level of a real gang at width w, in ns, at
  /// index w (indices 0 and 1 unused): what a barrier costs with work
  /// between barriers, so wake-ups and imbalance are in it.
  std::vector<double> level_sync_ns;

  /// Widest gang with a measured sync cost (1 when none was measured).
  int max_width() const {
    return level_sync_ns.size() < 3
               ? 1
               : static_cast<int>(level_sync_ns.size()) - 1;
  }
  /// Per-level sync at `width`, clamped into the measured range; 0 for a
  /// one-party gang.
  double sync_ns(int width) const;
};

/// Resolves zeroed CoarsenOptions fields. The narrow threshold is the
/// widest level for which running it as part of a sequential chain
/// (width * row_cost) is no dearer than running it on a `gang_width`
/// gang (width * row_cost / gang_width + one level sync), with row_cost
/// from the measured gather cost and the factor's nnz/row; clamped to
/// [2, 64]. Blocks size to ~256 KB of gathered structure. Deterministic
/// for fixed inputs.
CoarsenOptions resolve_coarsen_options(CoarsenOptions opts,
                                       const LevelAnalysis& levels,
                                       const HostCosts& costs, int gang_width);

/// Builds the coarsened task DAG for `lower` (the analyzed factor whose
/// level sets `levels` describes). Requires a positive narrow_width; a
/// zero block_rows is resolved from the structure.
TaskGraph coarsen_levels(const CscMatrix& lower, const LevelAnalysis& levels,
                         CoarsenOptions opts);

/// Structural features of a level analysis, extracted once at analyze time
/// and recorded in the plan blob next to the schedule decision, so a
/// decision can be explained after the fact.
struct ScheduleFeatures {
  double nnz_per_row = 0.0;
  index_t num_levels = 0;
  index_t max_level_width = 0;
  double avg_level_width = 0.0;
  /// Fraction of levels with population <= narrow_width.
  double narrow_level_fraction = 0.0;
  /// Longest / mean run of consecutive narrow levels.
  index_t longest_narrow_run = 0;
  double avg_narrow_run = 0.0;
};

/// Computes the features against an explicit narrow threshold (pass the
/// resolved CoarsenOptions::narrow_width so the tuner and the coarsener
/// agree on what "narrow" means).
ScheduleFeatures schedule_features(const LevelAnalysis& levels, offset_t nnz,
                                   index_t narrow_width);

}  // namespace msptrsv::sparse
