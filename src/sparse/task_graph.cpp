#include "sparse/task_graph.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace msptrsv::sparse {

double HostCosts::sync_ns(int width) const {
  if (width < 2 || level_sync_ns.size() < 3) return 0.0;
  return level_sync_ns[static_cast<std::size_t>(std::min(width, max_width()))];
}

namespace {

index_t structural_block_rows(const LevelAnalysis& levels) {
  // Target ~256 KB of gathered structure per block task (row pointers,
  // column indices, values, and the solution entries it writes).
  const double nnz_per_row =
      levels.n == 0 ? 1.0
                    : static_cast<double>(levels.nnz) /
                          static_cast<double>(levels.n);
  const double bytes_per_row =
      nnz_per_row * (sizeof(value_t) + sizeof(index_t)) + 3 * sizeof(value_t);
  const double rows = 256.0 * 1024.0 / std::max(1.0, bytes_per_row);
  return static_cast<index_t>(std::clamp(rows, 64.0, 1048576.0));
}

}  // namespace

CoarsenOptions resolve_coarsen_options(CoarsenOptions opts,
                                       const LevelAnalysis& levels,
                                       const HostCosts& costs, int gang_width) {
  if (opts.narrow_width == 0) {
    const double nnz_per_row =
        levels.n == 0 ? 1.0
                      : static_cast<double>(levels.nnz) /
                            static_cast<double>(levels.n);
    const double row_ns = std::max(1e-3, nnz_per_row * costs.gather_ns_per_nnz);
    // A one-party gang gains nothing from any level: fuse as much as the
    // ceiling allows.
    const double w =
        gang_width < 2
            ? 64.0
            : costs.sync_ns(gang_width) /
                  (row_ns * (1.0 - 1.0 / static_cast<double>(gang_width)));
    opts.narrow_width = static_cast<index_t>(std::clamp(w, 2.0, 64.0));
  }
  if (opts.block_rows == 0) opts.block_rows = structural_block_rows(levels);
  return opts;
}

TaskGraph coarsen_levels(const CscMatrix& lower, const LevelAnalysis& levels,
                         CoarsenOptions opts) {
  MSPTRSV_REQUIRE(lower.rows == levels.n,
                  "level analysis belongs to a different matrix");
  MSPTRSV_REQUIRE(opts.narrow_width > 0,
                  "coarsen_levels needs a resolved narrow_width");
  if (opts.block_rows == 0) opts.block_rows = structural_block_rows(levels);

  TaskGraph g;
  g.n = levels.n;
  if (g.n == 0) {
    g.task_ptr.assign(1, 0);
    g.succ_ptr.assign(1, 0);
    return g;
  }

  const auto width_of = [&](index_t l) {
    return static_cast<index_t>(
        levels.level_ptr[static_cast<std::size_t>(l) + 1] -
        levels.level_ptr[static_cast<std::size_t>(l)]);
  };

  // ---- Pass 1: carve the level sequence into tasks -------------------------
  // Tasks are consecutive ranges of the level order, so a task is fully
  // described by where it ends.
  g.task_ptr.reserve(16);
  g.task_ptr.push_back(0);
  g.task_of.assign(static_cast<std::size_t>(g.n), 0);

  index_t chain_levels = 0;  // levels absorbed by the open chain run
  const auto close_chain = [&](index_t end_level) {
    if (chain_levels == 0) return;
    // One task for the whole run, rows in level order: the sequential
    // sweep satisfies every intra-run dependency (a row's predecessors
    // sit in strictly earlier levels).
    g.task_ptr.push_back(levels.level_ptr[static_cast<std::size_t>(end_level)]);
    g.kind.push_back(static_cast<std::uint8_t>(TaskKind::kChain));
    ++g.num_chain_tasks;
    g.levels_fused += chain_levels - 1;
    chain_levels = 0;
  };

  for (index_t l = 0; l < levels.num_levels; ++l) {
    const index_t width = width_of(l);
    if (width <= opts.narrow_width) {
      ++chain_levels;
      continue;
    }
    close_chain(l);
    // Wide level: independent rows, sliced into cache-sized blocks.
    const offset_t b = levels.level_ptr[static_cast<std::size_t>(l)];
    const offset_t e = levels.level_ptr[static_cast<std::size_t>(l) + 1];
    for (offset_t blk = b; blk < e; blk += opts.block_rows) {
      g.task_ptr.push_back(std::min<offset_t>(blk + opts.block_rows, e));
      g.kind.push_back(static_cast<std::uint8_t>(TaskKind::kBlock));
      ++g.num_block_tasks;
    }
  }
  close_chain(levels.num_levels);

  g.num_tasks = static_cast<index_t>(g.kind.size());
  for (index_t t = 0; t < g.num_tasks; ++t) {
    for (offset_t p = g.task_ptr[static_cast<std::size_t>(t)];
         p < g.task_ptr[static_cast<std::size_t>(t) + 1]; ++p) {
      const index_t i = levels.order[static_cast<std::size_t>(p)];
      g.task_of[static_cast<std::size_t>(i)] = t;
    }
  }

  // ---- Pass 2: deduplicated cross-task edges -------------------------------
  // Successors of row i are column i's strict-lower entries. Tasks are
  // numbered in level order, so every cross-task edge points forward
  // (task_of[successor] > t); `last_emit` dedups per source task.
  g.in_degree.assign(static_cast<std::size_t>(g.num_tasks), 0);
  g.succ_ptr.assign(static_cast<std::size_t>(g.num_tasks) + 1, 0);
  std::vector<index_t> last_emit(static_cast<std::size_t>(g.num_tasks),
                                 static_cast<index_t>(-1));
  for (index_t t = 0; t < g.num_tasks; ++t) {
    for (offset_t p = g.task_ptr[static_cast<std::size_t>(t)];
         p < g.task_ptr[static_cast<std::size_t>(t) + 1]; ++p) {
      const index_t i = levels.order[static_cast<std::size_t>(p)];
      for (offset_t e = lower.col_ptr[static_cast<std::size_t>(i)] + 1;
           e < lower.col_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
        const index_t ts = g.task_of[static_cast<std::size_t>(
            lower.row_idx[static_cast<std::size_t>(e)])];
        if (ts == t || last_emit[static_cast<std::size_t>(ts)] == t) continue;
        last_emit[static_cast<std::size_t>(ts)] = t;
        g.succ.push_back(ts);
        ++g.succ_ptr[static_cast<std::size_t>(t) + 1];
        ++g.in_degree[static_cast<std::size_t>(ts)];
      }
    }
    // succ entries for task t were appended contiguously; sort them so the
    // delivery fan-out walks ascending ids (friendlier to the spinners).
    const auto begin = g.succ.end() - g.succ_ptr[static_cast<std::size_t>(t) + 1];
    std::sort(begin, g.succ.end());
  }
  for (index_t t = 0; t < g.num_tasks; ++t) {
    g.succ_ptr[static_cast<std::size_t>(t) + 1] +=
        g.succ_ptr[static_cast<std::size_t>(t)];
  }
  return g;
}

ScheduleFeatures schedule_features(const LevelAnalysis& levels, offset_t nnz,
                                   index_t narrow_width) {
  ScheduleFeatures f;
  f.num_levels = levels.num_levels;
  f.max_level_width = levels.max_level_width;
  if (levels.n == 0 || levels.num_levels == 0) return f;
  f.nnz_per_row = static_cast<double>(nnz) / static_cast<double>(levels.n);
  f.avg_level_width =
      static_cast<double>(levels.n) / static_cast<double>(levels.num_levels);

  index_t narrow = 0, run = 0, runs = 0;
  index_t narrow_total_runs_len = 0;
  for (index_t l = 0; l < levels.num_levels; ++l) {
    const index_t width = static_cast<index_t>(
        levels.level_ptr[static_cast<std::size_t>(l) + 1] -
        levels.level_ptr[static_cast<std::size_t>(l)]);
    if (width <= narrow_width) {
      ++narrow;
      ++run;
      f.longest_narrow_run = std::max(f.longest_narrow_run, run);
    } else {
      if (run > 0) {
        ++runs;
        narrow_total_runs_len += run;
      }
      run = 0;
    }
  }
  if (run > 0) {
    ++runs;
    narrow_total_runs_len += run;
  }
  f.narrow_level_fraction =
      static_cast<double>(narrow) / static_cast<double>(levels.num_levels);
  f.avg_narrow_run = runs == 0 ? 0.0
                               : static_cast<double>(narrow_total_runs_len) /
                                     static_cast<double>(runs);
  return f;
}

}  // namespace msptrsv::sparse
