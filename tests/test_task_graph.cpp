// Property test for the level coarsener (sparse/coarsen_levels): the task
// graph is what the cpu-taskgraph backend's claim/delivery protocol runs
// on, so its structural invariants are load-bearing for both correctness
// (exactly-once row coverage, dependency order) and liveness (ascending
// task order must be topological, or the ascending claim deadlocks).
//
// The sweep runs the full invariant suite over 200 seeded matrices drawn
// from every generator family at several coarsening thresholds, so chains,
// fans, grids, scale-free tails, and degenerate shapes all pass through
// the same checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sparse/generators.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/task_graph.hpp"

namespace msptrsv::sparse {
namespace {

/// Fixed host costs for resolving zeroed thresholds: the coarsener's
/// narrow cut is a pure function of them, so the sweep is the same on
/// every machine.
HostCosts test_costs() {
  HostCosts c;
  c.serial_ns_per_nnz = 1.0;
  c.gather_ns_per_nnz = 1.5;
  c.level_sync_ns = {0.0, 0.0, 40.0, 60.0, 80.0};
  return c;
}

/// Runs every coarsener invariant against one matrix/options pair (zeroed
/// fields resolved under test_costs() for a 4-wide gang). `what` tags
/// failures with the generating case so a seed sweep failure is
/// reproducible in isolation.
void check_invariants(const CscMatrix& lower, const CoarsenOptions& opts,
                      const std::string& what) {
  SCOPED_TRACE(what);
  const LevelAnalysis levels = analyze_levels(lower);
  const TaskGraph g = coarsen_levels(
      lower, levels, resolve_coarsen_options(opts, levels, test_costs(), 4));
  const auto n = static_cast<std::size_t>(lower.rows);

  ASSERT_EQ(g.n, lower.rows);
  ASSERT_EQ(g.task_ptr.size(), static_cast<std::size_t>(g.num_tasks) + 1);
  ASSERT_EQ(g.kind.size(), static_cast<std::size_t>(g.num_tasks));
  ASSERT_EQ(g.in_degree.size(), static_cast<std::size_t>(g.num_tasks));
  ASSERT_EQ(g.succ_ptr.size(), static_cast<std::size_t>(g.num_tasks) + 1);
  // Tasks tile the level order: task t runs levels.order[task_ptr[t] ..).
  ASSERT_EQ(g.task_ptr.back(), static_cast<offset_t>(n));
  ASSERT_EQ(g.task_of.size(), n);
  EXPECT_EQ(g.num_chain_tasks + g.num_block_tasks, g.num_tasks);
  EXPECT_GE(g.levels_fused, 0);
  EXPECT_LT(g.levels_fused, std::max<index_t>(levels.num_levels, 1));

  // Exactly-once coverage: every row appears in exactly one task, and
  // task_of agrees with the tasks' position ranges. position[i] is the
  // row's index in the flattened execution order, used for the
  // intra-task order check.
  std::vector<index_t> seen(n, 0);
  std::vector<offset_t> position(n, 0);
  for (index_t t = 0; t < g.num_tasks; ++t) {
    const offset_t begin = g.task_ptr[static_cast<std::size_t>(t)];
    const offset_t end = g.task_ptr[static_cast<std::size_t>(t) + 1];
    ASSERT_LT(begin, end) << "empty task " << t;
    for (offset_t p = begin; p < end; ++p) {
      const index_t row = levels.order[static_cast<std::size_t>(p)];
      ASSERT_GE(row, 0);
      ASSERT_LT(row, lower.rows);
      ++seen[static_cast<std::size_t>(row)];
      position[static_cast<std::size_t>(row)] = p;
      EXPECT_EQ(g.task_of[static_cast<std::size_t>(row)], t);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[i], 1) << "row " << i << " covered " << seen[i]
                          << " times";
  }

  // Task shape invariants. Chain rows must execute in level order (that
  // sequential sweep is what satisfies intra-chain dependencies without
  // synchronization); block tasks must hold rows of ONE level, which are
  // mutually independent by the level-set definition.
  for (index_t t = 0; t < g.num_tasks; ++t) {
    const offset_t begin = g.task_ptr[static_cast<std::size_t>(t)];
    const offset_t end = g.task_ptr[static_cast<std::size_t>(t) + 1];
    if (g.chain(t)) {
      for (offset_t p = begin + 1; p < end; ++p) {
        const index_t prev = levels.order[static_cast<std::size_t>(p - 1)];
        const index_t cur = levels.order[static_cast<std::size_t>(p)];
        EXPECT_LE(levels.level_of[static_cast<std::size_t>(prev)],
                  levels.level_of[static_cast<std::size_t>(cur)])
            << "chain task " << t << " rows out of level order";
      }
    } else {
      const index_t l = levels.level_of[static_cast<std::size_t>(
          levels.order[static_cast<std::size_t>(begin)])];
      for (offset_t p = begin; p < end; ++p) {
        EXPECT_EQ(levels.level_of[static_cast<std::size_t>(
                      levels.order[static_cast<std::size_t>(p)])],
                  l)
            << "block task " << t << " spans levels";
      }
    }
  }

  // Dependency order: for every strict-lower entry x(i, j) (row i depends
  // on column j), the producer's task must not come after the consumer's;
  // within one task the producer must already have executed (no forward
  // intra-task dependencies). A corollary: block tasks can never contain
  // both ends of a dependency.
  for (index_t j = 0; j < lower.cols; ++j) {
    for (offset_t e = lower.col_ptr[static_cast<std::size_t>(j)] + 1;
         e < lower.col_ptr[static_cast<std::size_t>(j) + 1]; ++e) {
      const index_t i = lower.row_idx[static_cast<std::size_t>(e)];
      const index_t tj = g.task_of[static_cast<std::size_t>(j)];
      const index_t ti = g.task_of[static_cast<std::size_t>(i)];
      ASSERT_LE(tj, ti) << "dependency " << j << " -> " << i
                        << " goes backward in task order";
      if (tj == ti) {
        EXPECT_TRUE(g.chain(ti))
            << "block task " << ti << " carries an internal dependency";
        EXPECT_LT(position[static_cast<std::size_t>(j)],
                  position[static_cast<std::size_t>(i)])
            << "intra-task forward dependency " << j << " -> " << i;
      }
    }
  }

  // Edge structure: successors strictly ascending (sorted, deduplicated,
  // all > t, so ascending task id IS a topological order), in-degrees
  // equal to the distinct-predecessor counts the successor lists imply,
  // and every cross-task dependency covered by an explicit edge.
  std::vector<index_t> preds(static_cast<std::size_t>(g.num_tasks), 0);
  std::set<std::pair<index_t, index_t>> edges;
  for (index_t t = 0; t < g.num_tasks; ++t) {
    for (offset_t e = g.succ_ptr[static_cast<std::size_t>(t)];
         e < g.succ_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
      const index_t s = g.succ[static_cast<std::size_t>(e)];
      ASSERT_GT(s, t) << "edge " << t << " -> " << s << " not forward";
      ASSERT_LT(s, g.num_tasks);
      if (e > g.succ_ptr[static_cast<std::size_t>(t)]) {
        EXPECT_LT(g.succ[static_cast<std::size_t>(e - 1)], s)
            << "successors of task " << t << " not strictly ascending";
      }
      ++preds[static_cast<std::size_t>(s)];
      edges.emplace(t, s);
    }
  }
  for (index_t t = 0; t < g.num_tasks; ++t) {
    EXPECT_EQ(g.in_degree[static_cast<std::size_t>(t)],
              preds[static_cast<std::size_t>(t)])
        << "in_degree of task " << t
        << " disagrees with the successor lists";
  }
  for (index_t j = 0; j < lower.cols; ++j) {
    for (offset_t e = lower.col_ptr[static_cast<std::size_t>(j)] + 1;
         e < lower.col_ptr[static_cast<std::size_t>(j) + 1]; ++e) {
      const index_t i = lower.row_idx[static_cast<std::size_t>(e)];
      const index_t tj = g.task_of[static_cast<std::size_t>(j)];
      const index_t ti = g.task_of[static_cast<std::size_t>(i)];
      if (tj != ti) {
        EXPECT_TRUE(edges.count({tj, ti}))
            << "cross-task dependency " << tj << " -> " << ti
            << " (rows " << j << " -> " << i << ") has no edge";
      }
    }
  }
}

CscMatrix matrix_for_case(int family, std::uint64_t seed) {
  switch (family) {
    case 0:
      return gen_chain(64 + static_cast<index_t>(seed % 64));
    case 1:
      return gen_diagonal(32 + static_cast<index_t>(seed % 96));
    case 2:
      return gen_banded(200, 4, 0.6, seed);
    case 3:
      return gen_random_lower(256, 3.0, seed);
    case 4:
      return gen_layered_dag(300, 25, 1500, 0.5, seed);
    case 5:
      return gen_chain_heavy(6, 24, 12, 3, seed);
    case 6:
      return gen_grid2d_lower(11 + static_cast<index_t>(seed % 6), 9);
    default:
      return gen_rmat_lower(8, 1200, seed);
  }
}

TEST(TaskGraphProperties, InvariantsHoldAcross200SeededMatrices) {
  const CoarsenOptions kOptionGrid[] = {
      {},            // resolved from the (fixed) host costs
      {1, 64},       // only width-1 levels fuse; small blocks
      {8, 16},       // aggressive fusion, tiny blocks (max cross-task edges)
      {1 << 20, 0},  // everything narrow: the whole matrix is one chain
  };
  int case_id = 0;
  for (int family = 0; family < 8; ++family) {
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
      const CscMatrix lower = matrix_for_case(family, seed * 17);
      for (std::size_t o = 0; o < std::size(kOptionGrid); ++o) {
        check_invariants(lower, kOptionGrid[o],
                         "family=" + std::to_string(family) +
                             " seed=" + std::to_string(seed) +
                             " opts=" + std::to_string(o));
        ++case_id;
      }
    }
  }
  // 8 families x 7 seeds x 4 option sets.
  EXPECT_EQ(case_id, 224);
}

TEST(TaskGraphProperties, ChainCollapsesToOneTask) {
  const CscMatrix lower = gen_chain(512);
  const LevelAnalysis levels = analyze_levels(lower);
  const TaskGraph g = coarsen_levels(lower, levels, {4, 0});
  EXPECT_EQ(g.num_tasks, 1);
  EXPECT_EQ(g.num_chain_tasks, 1);
  EXPECT_EQ(g.levels_fused, 511);
  EXPECT_EQ(g.in_degree[0], 0);
}

TEST(TaskGraphProperties, WideLevelSplitsIntoBlocks) {
  const CscMatrix lower = gen_diagonal(1000);
  const LevelAnalysis levels = analyze_levels(lower);
  const TaskGraph g = coarsen_levels(lower, levels, {4, 128});
  EXPECT_EQ(g.num_chain_tasks, 0);
  EXPECT_EQ(g.num_tasks, (1000 + 127) / 128);
  for (index_t t = 0; t < g.num_tasks; ++t) {
    EXPECT_EQ(g.in_degree[static_cast<std::size_t>(t)], 0);
  }
}

TEST(TaskGraphProperties, ResolvedOptionsArePositiveAndStable) {
  const CscMatrix lower = gen_layered_dag(200, 20, 900, 0.5, 3);
  const LevelAnalysis levels = analyze_levels(lower);
  const HostCosts costs = test_costs();
  const CoarsenOptions a = resolve_coarsen_options({}, levels, costs, 4);
  const CoarsenOptions b = resolve_coarsen_options({}, levels, costs, 4);
  EXPECT_GT(a.narrow_width, 0);
  EXPECT_GT(a.block_rows, 0);
  // Resolution is a pure function of the costs (measured once per
  // process; plan blobs pin the result across processes).
  EXPECT_EQ(a.narrow_width, b.narrow_width);
  EXPECT_EQ(a.block_rows, b.block_rows);
  // The narrow cut is the widest level that costs no more as part of a
  // sequential chain than on the gang: width * row <= width * row / 4 +
  // sync(4).
  const double row_ns = static_cast<double>(levels.nnz) /
                        static_cast<double>(levels.n) *
                        costs.gather_ns_per_nnz;
  EXPECT_EQ(a.narrow_width,
            static_cast<index_t>(costs.sync_ns(4) / (row_ns * 0.75)));
  // Dearer sync widens the cut; a one-party gang fuses up to the ceiling.
  HostCosts dear = costs;
  for (double& v : dear.level_sync_ns) v *= 4.0;
  EXPECT_GT(resolve_coarsen_options({}, levels, dear, 4).narrow_width,
            a.narrow_width);
  EXPECT_EQ(resolve_coarsen_options({}, levels, costs, 1).narrow_width, 64);
  // Explicit fields pass through untouched.
  const CoarsenOptions pinned =
      resolve_coarsen_options({7, 33}, levels, costs, 4);
  EXPECT_EQ(pinned.narrow_width, 7);
  EXPECT_EQ(pinned.block_rows, 33);
}

}  // namespace
}  // namespace msptrsv::sparse
