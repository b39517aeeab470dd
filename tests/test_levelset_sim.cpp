// Simulated level-set baseline (the csrsv2 stand-in): its cost model, and
// the numerics a gpu-levelset plan computes.
#include <gtest/gtest.h>

#include "core/levelset.hpp"
#include "core/plan.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "core/residual.hpp"
#include "sparse/generators.hpp"

namespace msptrsv::core {
namespace {

sim::RunReport simulate(const sparse::CscMatrix& l, const sim::Machine& m) {
  return simulate_levelset(l, sparse::analyze_levels(l), m, 1);
}

TEST(LevelSetSim, SolutionMatchesSerial) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(2000, 50, 10000, 0.5, 9);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 1));
  SolveOptions opt = registry::options_for("gpu-levelset").value();
  opt.machine = sim::Machine::dgx1(1);
  const auto plan = SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok()) << plan.message();
  EXPECT_LT(max_relative_difference(plan->solve(b).value().x,
                                    solve_lower_serial(l, b)),
            1e-12);
}

TEST(LevelSetSim, TimeScalesWithLevelCountAtFixedWork) {
  // Same n and nnz, different depth: the per-level synchronization must
  // dominate for the deep variant.
  const sparse::CscMatrix shallow =
      sparse::gen_layered_dag(4000, 8, 20000, 0.5, 11);
  const sparse::CscMatrix deep =
      sparse::gen_layered_dag(4000, 800, 20000, 0.5, 11);
  const sim::Machine m = sim::Machine::dgx1(1);
  const sim::RunReport rs = simulate(shallow, m);
  const sim::RunReport rd = simulate(deep, m);
  EXPECT_GT(rd.solve_us, 5.0 * rs.solve_us);
  EXPECT_EQ(rd.kernel_launches, 800u);
  EXPECT_EQ(rs.kernel_launches, 8u);
}

TEST(LevelSetSim, PerLevelCostIsAtLeastTheSyncOverhead) {
  const sparse::CscMatrix l = sparse::gen_chain(500);
  const sim::Machine m = sim::Machine::dgx1(1);
  EXPECT_GE(simulate(l, m).solve_us, 500.0 * m.cost.level_sync_us);
}

TEST(LevelSetSim, AnalysisCostsMoreThanSyncFreePreprocessing) {
  // csrsv2_analysis does level construction; the sync-free design only
  // counts in-degrees. The charge must reflect that asymmetry.
  const sparse::CscMatrix l = sparse::gen_layered_dag(5000, 40, 25000, 0.5, 13);
  const sim::Machine m = sim::Machine::dgx1(1);
  const double syncfree_analysis =
      static_cast<double>(l.nnz()) * m.cost.indegree_per_nnz_us;
  EXPECT_GT(levelset_analysis_us(l, m.cost), syncfree_analysis);
}

TEST(LevelSetSim, WideLevelUsesAllWarpSlots) {
  // A single-level matrix with many more components than slots: time must
  // reflect slot-limited throughput, not one-shot width.
  const sparse::CscMatrix l = sparse::gen_diagonal(100000);
  const sim::Machine m = sim::Machine::dgx1(1);
  const double per_comp = m.cost.solve_base_us;
  const double lower_bound =
      100000.0 * per_comp / m.cost.warp_slots_per_gpu;
  EXPECT_GE(simulate(l, m).solve_us, lower_bound);
}

}  // namespace
}  // namespace msptrsv::core
