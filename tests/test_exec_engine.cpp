// The fused execution engine: persistent WorkerPool semantics, workspace
// reuse (no growth under sequential solves), fused solve_batch bit-for-bit
// against looped solves on every backend with amortized launch/sync
// accounting, and value-only plan refresh (update_values).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

sparse::CscMatrix test_matrix() {
  return sparse::gen_layered_dag(900, 24, 5400, 0.5, 77);
}

std::vector<value_t> batch_for(const sparse::CscMatrix& l, index_t num_rhs,
                               std::uint64_t seed0) {
  std::vector<value_t> batch;
  for (index_t j = 0; j < num_rhs; ++j) {
    const std::vector<value_t> bj = sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(l.rows, seed0 + static_cast<std::uint64_t>(j)));
    batch.insert(batch.end(), bj.begin(), bj.end());
  }
  return batch;
}

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, RunsEveryPartyAndReusesThreadsAcrossRuns) {
  core::WorkerPool pool(4);
  EXPECT_EQ(pool.parties(), 4);
  std::set<std::thread::id> thread_ids;
  std::mutex m;
  for (int run = 0; run < 50; ++run) {
    std::atomic<int> hits{0};
    std::vector<int> seen(4, 0);
    pool.run([&](int tid) {
      seen[static_cast<std::size_t>(tid)] += 1;
      hits.fetch_add(1);
      std::lock_guard<std::mutex> lock(m);
      thread_ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(hits.load(), 4) << "run " << run;
    for (int t = 0; t < 4; ++t) ASSERT_EQ(seen[static_cast<std::size_t>(t)], 1);
  }
  // Parked threads persist: 50 runs use the same 3 workers + the caller,
  // never 50 fresh spawns.
  EXPECT_EQ(thread_ids.size(), 4u);
}

TEST(WorkerPool, SinglePartyOwnsNoThreadsAndRunsInline) {
  core::WorkerPool pool(1);
  EXPECT_EQ(pool.parties(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.run([&](int tid) {
    EXPECT_EQ(tid, 0);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

// ---- Workspace reuse -------------------------------------------------------

TEST(SolveWorkspace, SequentialPlanSolvesReuseOneWorkspace) {
  const sparse::CscMatrix l = test_matrix();
  const std::vector<value_t> b = batch_for(l, 1, 5);
  for (const char* key : {"cpu-levelset"}) {
    core::SolveOptions opt = core::registry::options_for(key).value();
    opt.cpu_threads = 2;
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->workspace_count(), 0u) << key << " (lazy until first solve)";
    for (int i = 0; i < 20; ++i) {
      // A reused workspace: solve i must not observe solve i-1's state;
      // the residual catches any leakage.
      const auto r = plan->solve(b);
      ASSERT_TRUE(r.ok()) << key;
      EXPECT_LT(core::relative_residual(l, r.value().x, b), 1e-11)
          << key << " iteration " << i;
    }
    EXPECT_EQ(plan->workspace_count(), 1u)
        << key << ": sequential solves must reuse one workspace";
  }
}

// ---- Fused solve_batch -----------------------------------------------------

/// A fused solve_batch must agree bit-for-bit with one solve() per rhs
/// on every backend. Host thread counts are pinned to 1 so the
/// floating-point summation order is deterministic and the comparison can
/// be exact.
TEST(FusedBatch, BitForBitMatchesLoopedOnEveryBackendAndWidth) {
  const sparse::CscMatrix l = test_matrix();
  const std::size_t n = static_cast<std::size_t>(l.rows);
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    core::SolveOptions opt = core::registry::default_options(e.backend);
    opt.cpu_threads = 1;
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok()) << e.key;

    for (index_t num_rhs : {1, 4, 16}) {
      const std::vector<value_t> batch = batch_for(l, num_rhs, 300);
      const auto rf = plan->solve_batch(batch, num_rhs);
      ASSERT_TRUE(rf.ok()) << e.key;
      // The same rhs, one solve() each.
      std::vector<value_t> looped_x;
      double looped_us = 0.0;
      std::uint64_t looped_launches = 0;
      for (index_t j = 0; j < num_rhs; ++j) {
        const auto rj = plan->solve(std::span<const value_t>(batch).subspan(
            static_cast<std::size_t>(j) * n, n));
        ASSERT_TRUE(rj.ok()) << e.key;
        looped_x.insert(looped_x.end(), rj.value().x.begin(),
                        rj.value().x.end());
        looped_us += rj.value().report.solve_us;
        looped_launches += rj.value().report.kernel_launches;
      }
      EXPECT_EQ(rf.value().x, looped_x)
          << e.key << " fused vs looped, " << num_rhs << " rhs";
      EXPECT_EQ(rf.value().report.num_rhs, num_rhs) << e.key;
      // A fused batch is one solve.
      EXPECT_EQ(rf.value().report.max_solve_us, rf.value().report.solve_us)
          << e.key;
      if (e.simulated && num_rhs > 1) {
        // The whole point: amortized launch/sync per batch, not per rhs.
        EXPECT_LT(rf.value().report.solve_us, looped_us)
            << e.key << " at " << num_rhs << " rhs";
        EXPECT_LT(rf.value().report.kernel_launches, looped_launches)
            << e.key;
        EXPECT_EQ(rf.value().report.kernel_launches,
                  looped_launches / static_cast<std::uint64_t>(num_rhs))
            << e.key << ": one launch per level/task per batch";
      }
    }
  }
}

TEST(FusedBatch, MultiThreadedHostBackendsStayCorrect) {
  const sparse::CscMatrix l = test_matrix();
  const index_t num_rhs = 8;
  const std::vector<value_t> batch = batch_for(l, num_rhs, 900);
  const std::size_t n = static_cast<std::size_t>(l.rows);
  for (const char* key : {"cpu-levelset"}) {
    core::SolveOptions opt = core::registry::options_for(key).value();
    opt.cpu_threads = 4;
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok());
    for (int round = 0; round < 5; ++round) {
      const auto r = plan->solve_batch(batch, num_rhs);
      ASSERT_TRUE(r.ok()) << key;
      for (index_t j = 0; j < num_rhs; ++j) {
        const std::vector<value_t> xj(
            r.value().x.begin() + static_cast<std::ptrdiff_t>(j * l.rows),
            r.value().x.begin() + static_cast<std::ptrdiff_t>((j + 1) * l.rows));
        const std::span<const value_t> bj =
            std::span<const value_t>(batch).subspan(
                static_cast<std::size_t>(j) * n, n);
        EXPECT_LT(core::relative_residual(l, xj, bj), 1e-11)
            << key << " rhs " << j << " round " << round;
      }
    }
  }
}

TEST(FusedBatch, UpperPlansSolveBatchesThroughTheFusedKernel) {
  const sparse::CscMatrix lower = sparse::gen_layered_dag(500, 14, 2500, 0.5, 9);
  const sparse::CscMatrix upper = sparse::mirror_to_upper(lower);
  const index_t num_rhs = 4;
  const std::size_t n = static_cast<std::size_t>(upper.rows);

  std::vector<value_t> refs;  // reference solutions, column-major
  std::vector<value_t> batch;
  for (index_t j = 0; j < num_rhs; ++j) {
    const std::vector<value_t> xj =
        sparse::gen_solution(upper.rows, 50 + static_cast<std::uint64_t>(j));
    const std::vector<value_t> bj = sparse::multiply(upper, xj);
    refs.insert(refs.end(), xj.begin(), xj.end());
    batch.insert(batch.end(), bj.begin(), bj.end());
  }

  core::SolveOptions opt = core::registry::options_for("mg-zerocopy").value();
  const auto plan = core::SolverPlan::analyze_upper(upper, opt);
  ASSERT_TRUE(plan.ok()) << plan.message();
  const auto rb = plan->solve_batch(batch, num_rhs);
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(rb.value().x.size(), refs.size());
  EXPECT_LT(core::max_relative_difference(rb.value().x, refs), 1e-9);

  // And bit-for-bit against per-column solves of the same plan.
  for (index_t j = 0; j < num_rhs; ++j) {
    const auto rj = plan->solve(
        std::span<const value_t>(batch).subspan(static_cast<std::size_t>(j) * n,
                                                n));
    ASSERT_TRUE(rj.ok());
    const std::vector<value_t> col(
        rb.value().x.begin() + static_cast<std::ptrdiff_t>(j) *
                                   static_cast<std::ptrdiff_t>(n),
        rb.value().x.begin() + (static_cast<std::ptrdiff_t>(j) + 1) *
                                   static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(col, rj.value().x) << "rhs " << j;
  }
}

// ---- update_values ---------------------------------------------------------

TEST(UpdateValues, RefreshesNumericsWithoutReanalysis) {
  const sparse::CscMatrix l = test_matrix();
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    core::SolveOptions opt = core::registry::default_options(e.backend);
    opt.cpu_threads = 1;
    auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok()) << e.key;

    // Same sparsity, new values: scale everything by 3 (keeps the factor
    // solvable) and nudge off-diagonals so it is not a pure rescale.
    sparse::CscMatrix l2 = l;
    for (std::size_t k = 0; k < l2.val.size(); ++k) {
      l2.val[k] *= 3.0;
      l2.val[k] += (k % 7 == 0) ? 0.25 : 0.0;
    }
    for (index_t j = 0; j < l2.cols; ++j) {
      ASSERT_NE(l2.val[static_cast<std::size_t>(l2.col_ptr[j])], 0.0);
    }

    const auto updated = plan->update_values(l2.val);
    ASSERT_TRUE(updated.ok()) << e.key << ": " << updated.message();

    const std::vector<value_t> b = batch_for(l2, 1, 4);
    const auto r = plan->solve(b);
    ASSERT_TRUE(r.ok()) << e.key;
    // The refreshed plan must agree bit-for-bit with a from-scratch plan
    // of the new matrix (identical analysis, identical kernels).
    const auto fresh = core::SolverPlan::analyze(l2, opt);
    ASSERT_TRUE(fresh.ok());
    const auto rf = fresh->solve(b);
    ASSERT_TRUE(rf.ok());
    EXPECT_EQ(r.value().x, rf.value().x) << e.key;
  }
}

TEST(UpdateValues, UpperPlansScatterThroughTheReversalMapping) {
  const sparse::CscMatrix lower = sparse::gen_layered_dag(400, 12, 2000, 0.5, 3);
  const sparse::CscMatrix upper = sparse::mirror_to_upper(lower);
  core::SolveOptions opt = core::registry::options_for("serial").value();
  auto plan = core::SolverPlan::analyze_upper(upper, opt);
  ASSERT_TRUE(plan.ok());

  sparse::CscMatrix upper2 = upper;
  for (std::size_t k = 0; k < upper2.val.size(); ++k) {
    upper2.val[k] = upper2.val[k] * 2.0 + (k % 5 == 0 ? 0.125 : 0.0);
  }
  const auto updated = plan->update_values(upper2.val);
  ASSERT_TRUE(updated.ok()) << updated.message();

  const std::vector<value_t> x_ref = sparse::gen_solution(upper2.rows, 8);
  const std::vector<value_t> b = sparse::multiply(upper2, x_ref);
  const auto r = plan->solve(b);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(core::max_relative_difference(r.value().x, x_ref), 1e-9);
}

TEST(UpdateValues, RejectsBadInputWithoutMutating) {
  const sparse::CscMatrix l = test_matrix();
  core::SolveOptions opt = core::registry::options_for("cpu-levelset").value();
  opt.cpu_threads = 1;
  auto plan = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok());
  const std::vector<value_t> b = batch_for(l, 1, 6);
  const std::vector<value_t> x_before = plan->solve(b).value().x;

  // Wrong size.
  std::vector<value_t> short_vals(l.val.size() - 1, 1.0);
  EXPECT_EQ(plan->update_values(short_vals).status(),
            core::SolveStatus::kShapeMismatch);

  // Zero diagonal: rejected before any value is written.
  std::vector<value_t> singular = l.val;
  singular[static_cast<std::size_t>(l.col_ptr[5])] = 0.0;
  EXPECT_EQ(plan->update_values(singular).status(),
            core::SolveStatus::kSingularDiagonal);
  EXPECT_EQ(plan->solve(b).value().x, x_before)
      << "a rejected refresh must leave the plan untouched";

  // Borrowed plans read the caller's matrix; refresh is in-place there.
  auto borrowed = core::SolverPlan::analyze_borrowed(l, opt);
  ASSERT_TRUE(borrowed.ok());
  EXPECT_EQ(borrowed->update_values(l.val).status(),
            core::SolveStatus::kInvalidOptions);
}

}  // namespace
}  // namespace msptrsv
