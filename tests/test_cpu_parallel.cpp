// Real-thread host backends under true concurrency: correctness across
// repeated runs, thread counts and matrix shapes, through the plan API.
#include <gtest/gtest.h>

#include "core/msptrsv.hpp"

namespace msptrsv::core {
namespace {

/// A plan of the host backend `key` on `threads` workers (0 = hardware
/// concurrency).
SolverPlan host_plan(const sparse::CscMatrix& l, const char* key,
                     int threads) {
  SolveOptions o = registry::options_for(key).value();
  o.cpu_threads = threads;
  return SolverPlan::analyze(l, o).value();
}

class CpuParallelThreads : public ::testing::TestWithParam<int> {};

TEST_P(CpuParallelThreads, LevelSetMatchesSerial) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(3000, 60, 15000, 0.4, 3);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 1));
  const std::vector<value_t> gold = solve_lower_serial(l, b);
  const std::vector<value_t> x =
      host_plan(l, "cpu-levelset", GetParam()).solve(b).value().x;
  EXPECT_LT(max_relative_difference(x, gold), 1e-10);
}

TEST_P(CpuParallelThreads, SyncFreeMatchesSerial) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(3000, 60, 15000, 0.4, 5);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 2));
  const std::vector<value_t> gold = solve_lower_serial(l, b);
  const std::vector<value_t> x =
      host_plan(l, "cpu-syncfree", GetParam()).solve(b).value().x;
  EXPECT_LT(max_relative_difference(x, gold), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CpuParallelThreads,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(CpuParallel, SyncFreeSurvivesDeepChains) {
  // Worst case for busy-wait scheduling: a pure chain with more components
  // than threads. The ascending-claim scheme must not deadlock.
  const sparse::CscMatrix l = sparse::gen_chain(5000);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 3));
  const std::vector<value_t> gold = solve_lower_serial(l, b);
  const std::vector<value_t> x =
      host_plan(l, "cpu-syncfree", 4).solve(b).value().x;
  EXPECT_LT(max_relative_difference(x, gold), 1e-10);
}

TEST(CpuParallel, RepeatedRunsAreConsistentUnderRaces) {
  // Every run races the same gang over the same workspace (a new
  // delivery generation each time); the residual must stay tiny on
  // every run.
  const sparse::CscMatrix l = sparse::gen_rmat_lower(10, 6000, 17);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 4));
  const SolverPlan plan = host_plan(l, "cpu-syncfree", 4);
  for (int run = 0; run < 10; ++run) {
    const std::vector<value_t> x = plan.solve(b).value().x;
    EXPECT_LT(relative_residual(l, x, b), 1e-11) << "run " << run;
  }
}

TEST(CpuParallel, LevelSetHandlesSingleLevelAndSingleChain) {
  {
    const sparse::CscMatrix l = sparse::gen_diagonal(100);
    const std::vector<value_t> b(100, 2.0);
    const std::vector<value_t> x =
        host_plan(l, "cpu-levelset", 3).solve(b).value().x;
    EXPECT_LT(max_relative_difference(x, solve_lower_serial(l, b)), 1e-12);
  }
  {
    const sparse::CscMatrix l = sparse::gen_chain(200);
    const std::vector<value_t> b(200, 1.0);
    const std::vector<value_t> x =
        host_plan(l, "cpu-levelset", 3).solve(b).value().x;
    EXPECT_LT(max_relative_difference(x, solve_lower_serial(l, b)), 1e-12);
  }
}

TEST(CpuParallel, DefaultThreadCountWorks) {
  const sparse::CscMatrix l = sparse::gen_banded(1000, 6, 0.5, 7);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 5));
  const std::vector<value_t> x =
      host_plan(l, "cpu-syncfree", 0).solve(b).value().x;
  EXPECT_LT(relative_residual(l, x, b), 1e-11);
}

}  // namespace
}  // namespace msptrsv::core
