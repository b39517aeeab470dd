// The phase-split API contract: a SolverPlan analyzed once must reproduce
// the one-shot API bit-for-bit on every backend across many right-hand
// sides, solve_batch must match looped solve, the analysis phase must be
// charged exactly once, and user-input errors must come back through the
// SolveStatus channel instead of thrown contract violations.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

sparse::CscMatrix test_matrix() {
  return sparse::gen_layered_dag(800, 20, 4800, 0.5, 21);
}

std::vector<value_t> rhs_for(const sparse::CscMatrix& l, std::uint64_t seed) {
  return sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, seed));
}

/// Every backend in its registry-default configuration. Host thread counts
/// are pinned to 1 so the floating-point summation order is deterministic
/// and the bit-for-bit comparisons below are exact.
std::vector<core::SolveOptions> all_backend_options() {
  std::vector<core::SolveOptions> out;
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    core::SolveOptions o = core::registry::default_options(e.backend);
    o.cpu_threads = 1;
    out.push_back(o);
  }
  return out;
}

TEST(SolverPlanReuse, MatchesOneShotBitForBitOnEveryBackend) {
  const sparse::CscMatrix l = test_matrix();
  for (const core::SolveOptions& opt : all_backend_options()) {
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok()) << core::backend_name(opt.backend) << ": "
                           << plan.message();
    for (std::uint64_t seed : {11, 22, 33}) {
      const std::vector<value_t> b = rhs_for(l, seed);
      const auto r = plan->solve(b);
      ASSERT_TRUE(r.ok()) << core::backend_name(opt.backend);
      const core::SolveResult one_shot = core::solve(l, b, opt);
      EXPECT_EQ(r.value().x, one_shot.x)
          << core::backend_name(opt.backend) << " seed " << seed;
    }
  }
}

TEST(SolverPlanReuse, RepeatedSolvesAreIdenticalAndNeverReanalyze) {
  const sparse::CscMatrix l = test_matrix();
  const std::vector<value_t> b = rhs_for(l, 5);
  const auto plan = core::SolverPlan::analyze(
      l, core::registry::options_for("mg-zerocopy").value());
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->analysis_us(), 0.0);

  const auto r1 = plan->solve(b);
  const auto r2 = plan->solve(b);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().x, r2.value().x);
  EXPECT_EQ(r1.value().report.solve_us, r2.value().report.solve_us);
  // Analysis is charged once at analyze() time, never per solve.
  EXPECT_EQ(r1.value().report.analysis_us, 0.0);
  EXPECT_EQ(r2.value().report.analysis_us, 0.0);
}

TEST(SolverPlanReuse, OneShotWrapperChargesAnalysisExactlyOnce) {
  const sparse::CscMatrix l = test_matrix();
  const std::vector<value_t> b = rhs_for(l, 9);
  core::SolveOptions opt = core::registry::options_for("mg-zerocopy").value();

  const auto plan = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok());
  const core::SolveResult one_shot = core::solve(l, b, opt);
  EXPECT_EQ(one_shot.report.analysis_us, plan->analysis_us());
  EXPECT_GT(one_shot.report.analysis_us, 0.0);

  opt.include_analysis = false;
  const core::SolveResult bare = core::solve(l, b, opt);
  EXPECT_EQ(bare.report.analysis_us, 0.0);
  EXPECT_EQ(bare.report.solve_us, one_shot.report.solve_us);
}

TEST(SolverPlanReuse, GpuLevelsetRespectsIncludeAnalysis) {
  // The csrsv2 stand-in historically charged its (heavy) analysis phase
  // unconditionally; the plan-based wrapper honors include_analysis for it
  // like for every other simulated backend.
  const sparse::CscMatrix l = test_matrix();
  const std::vector<value_t> b = rhs_for(l, 3);
  core::SolveOptions opt = core::registry::options_for("gpu-levelset").value();
  const core::SolveResult with = core::solve(l, b, opt);
  EXPECT_GT(with.report.analysis_us, 0.0);
  opt.include_analysis = false;
  const core::SolveResult without = core::solve(l, b, opt);
  EXPECT_EQ(without.report.analysis_us, 0.0);
  EXPECT_EQ(with.report.solve_us, without.report.solve_us);
}

TEST(SolverPlanBatch, MatchesLoopedSolveOnEveryBackend) {
  // A batch's x is bit-for-bit what one solve() per rhs gives; its report
  // covers the whole batch. The fused timing is covered by
  // test_exec_engine (amortized launches and makespan).
  const sparse::CscMatrix l = test_matrix();
  const index_t num_rhs = 5;
  const std::size_t n = static_cast<std::size_t>(l.rows);

  std::vector<value_t> batch;
  for (index_t j = 0; j < num_rhs; ++j) {
    const std::vector<value_t> bj =
        rhs_for(l, 40 + static_cast<std::uint64_t>(j));
    batch.insert(batch.end(), bj.begin(), bj.end());
  }

  for (const core::SolveOptions& opt : all_backend_options()) {
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok());
    const auto rb = plan->solve_batch(batch, num_rhs);
    ASSERT_TRUE(rb.ok()) << core::backend_name(opt.backend);
    ASSERT_EQ(rb.value().x.size(), n * static_cast<std::size_t>(num_rhs));
    EXPECT_EQ(rb.value().report.num_rhs, num_rhs);
    EXPECT_EQ(rb.value().report.analysis_us, 0.0);

    for (index_t j = 0; j < num_rhs; ++j) {
      const std::span<const value_t> col =
          std::span<const value_t>(batch).subspan(
              static_cast<std::size_t>(j) * n, n);
      const auto rj = plan->solve(col);
      ASSERT_TRUE(rj.ok());
      const std::vector<value_t> batch_col(
          rb.value().x.begin() + static_cast<std::ptrdiff_t>(j) *
                                     static_cast<std::ptrdiff_t>(n),
          rb.value().x.begin() + (static_cast<std::ptrdiff_t>(j) + 1) *
                                     static_cast<std::ptrdiff_t>(n));
      EXPECT_EQ(batch_col, rj.value().x)
          << core::backend_name(opt.backend) << " rhs " << j;
    }
  }
}

TEST(SolverPlanBatch, CallerBufferOverloadMatchesAndTakesNoFaultWhenWarm) {
  // 16^3 grid, 16 rhs: a 512 KB x, the size glibc hands back to the OS
  // on free, so an allocating solve faults it in again on every call.
  // Into a caller buffer, warm calls must take no minor fault at all, and
  // give the allocating overload's bits.
  const sparse::CscMatrix l = sparse::gen_grid3d_lower(16, 16, 16);
  constexpr index_t kRhs = 16;
  std::vector<value_t> rhs;
  for (index_t j = 0; j < kRhs; ++j) {
    const std::vector<value_t> b = rhs_for(l, 100 + static_cast<std::uint64_t>(j));
    rhs.insert(rhs.end(), b.begin(), b.end());
  }
  for (const std::string key : {"serial", "cpu-levelset"}) {
    core::SolveOptions opt = core::registry::options_for(key).value();
    opt.cpu_threads = 1;
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok()) << key << ": " << plan.message();
    const auto want = plan->solve_batch(rhs, kRhs);
    ASSERT_TRUE(want.ok()) << key;

    std::vector<value_t> x(rhs.size());
    for (int warm = 0; warm < 3; ++warm) {
      ASSERT_TRUE(plan->solve_batch(rhs, kRhs, x).ok()) << key;
    }
    rusage before{};
    ASSERT_EQ(getrusage(RUSAGE_THREAD, &before), 0);
    int equal = 0;
    for (int call = 0; call < 100; ++call) {
      const auto r = plan->solve_batch(rhs, kRhs, x);
      equal += r.ok() && r.value().x.empty() && x == want.value().x;
    }
    rusage after{};
    ASSERT_EQ(getrusage(RUSAGE_THREAD, &after), 0);
    EXPECT_EQ(equal, 100) << key;
    EXPECT_EQ(after.ru_minflt - before.ru_minflt, 0) << key;
  }
}

TEST(SolverPlanBatch, CallerBufferOverloadMatchesOnEveryBackend) {
  const sparse::CscMatrix l = test_matrix();
  constexpr index_t kRhs = 3;
  std::vector<value_t> rhs;
  for (index_t j = 0; j < kRhs; ++j) {
    const std::vector<value_t> b = rhs_for(l, 40 + static_cast<std::uint64_t>(j));
    rhs.insert(rhs.end(), b.begin(), b.end());
  }
  for (const core::SolveOptions& opt : all_backend_options()) {
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok()) << core::backend_name(opt.backend);
    const auto want = plan->solve_batch(rhs, kRhs);
    ASSERT_TRUE(want.ok());
    // Garbage in the buffer must not matter: its contents are never read.
    std::vector<value_t> x(rhs.size(), std::numeric_limits<value_t>::quiet_NaN());
    const auto got = plan->solve_batch(rhs, kRhs, x);
    ASSERT_TRUE(got.ok()) << core::backend_name(opt.backend);
    EXPECT_TRUE(got.value().x.empty());
    EXPECT_EQ(x, want.value().x) << core::backend_name(opt.backend);
    EXPECT_EQ(got.value().report.num_rhs, kRhs);
    std::vector<value_t> short_x(rhs.size() - 1);
    const auto bad = plan->solve_batch(rhs, kRhs, short_x);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status(), core::SolveStatus::kShapeMismatch);
  }
}

TEST(SolverPlanUpper, SolvesBackwardAndExcludesTransformFromTimings) {
  const sparse::CscMatrix lower = sparse::gen_layered_dag(600, 15, 3000, 0.5, 8);
  const sparse::CscMatrix upper = sparse::mirror_to_upper(lower);
  const std::vector<value_t> x_ref = sparse::gen_solution(upper.rows, 31);
  const std::vector<value_t> b = sparse::multiply(upper, x_ref);
  const core::SolveOptions opt =
      core::registry::options_for("mg-zerocopy").value();

  const auto plan = core::SolverPlan::analyze_upper(upper, opt);
  ASSERT_TRUE(plan.ok()) << plan.message();
  EXPECT_TRUE(plan->is_upper());
  const auto r = plan->solve(b);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(core::max_relative_difference(r.value().x, x_ref), 1e-9);

  // The one-shot wrapper goes through the same plan machinery.
  const core::SolveResult one_shot = core::solve_upper(upper, b, opt);
  EXPECT_EQ(one_shot.x, r.value().x);

  // Timing purity: the reported solve time must equal solving the reversed
  // lower system directly -- the host-side reversal transforms are
  // analysis-phase work, never part of the measured solve.
  const sparse::CscMatrix reversed_lower = core::reverse_upper_to_lower(upper);
  const std::vector<value_t> rb = core::reversed(b);
  const core::SolveResult direct = core::solve(reversed_lower, rb, opt);
  EXPECT_EQ(r.value().report.solve_us, direct.report.solve_us);
  EXPECT_EQ(one_shot.report.solve_us, direct.report.solve_us);
}

TEST(SolverPlanErrors, RhsShapeMismatchIsAStatusNotAThrow) {
  const sparse::CscMatrix l = test_matrix();
  const auto plan = core::SolverPlan::analyze(
      l, core::registry::options_for("serial").value());
  ASSERT_TRUE(plan.ok());

  const std::vector<value_t> short_b(static_cast<std::size_t>(l.rows) - 1, 1.0);
  const auto r = plan->solve(short_b);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kShapeMismatch);
  EXPECT_NE(r.message().find("rhs length"), std::string::npos);

  const auto rb = plan->solve_batch(short_b, 1);
  EXPECT_EQ(rb.status(), core::SolveStatus::kShapeMismatch);
  const std::vector<value_t> good(static_cast<std::size_t>(l.rows), 1.0);
  EXPECT_EQ(plan->solve_batch(good, 0).status(),
            core::SolveStatus::kShapeMismatch);
  EXPECT_EQ(plan->solve_batch(good, 2).status(),
            core::SolveStatus::kShapeMismatch);
}

TEST(SolverPlanErrors, NonTriangularInputIsReported) {
  sparse::CooMatrix coo;
  coo.rows = coo.cols = 3;
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(2, 2, 1.0);
  coo.add(0, 2, 0.5);  // above the diagonal
  const sparse::CscMatrix not_lower = sparse::csc_from_coo(std::move(coo));

  const auto plan = core::SolverPlan::analyze(
      not_lower, core::registry::options_for("serial").value());
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status(), core::SolveStatus::kNotTriangular);
}

TEST(SolverPlanErrors, NonSquareInputIsReported) {
  sparse::CooMatrix coo;
  coo.rows = 3;
  coo.cols = 2;
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  const sparse::CscMatrix rect = sparse::csc_from_coo(std::move(coo));
  const auto plan = core::SolverPlan::analyze(
      rect, core::registry::options_for("serial").value());
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status(), core::SolveStatus::kNotTriangular);
}

TEST(SolverPlanErrors, MissingDiagonalIsSingular) {
  sparse::CooMatrix coo;
  coo.rows = coo.cols = 2;
  coo.add(1, 0, 1.0);  // column 0 has no diagonal
  coo.add(1, 1, 2.0);
  const sparse::CscMatrix singular = sparse::csc_from_coo(std::move(coo));
  const auto plan = core::SolverPlan::analyze(
      singular, core::registry::options_for("serial").value());
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status(), core::SolveStatus::kSingularDiagonal);
}

TEST(SolverPlanErrors, EmptySystemSolvesVacuouslyOnEveryBackend) {
  // 0x0 systems are degenerate but valid: the historical host backends
  // solved them trivially and the plan API must not regress that.
  sparse::CscMatrix empty;  // 0x0
  empty.col_ptr.assign(1, 0);
  for (const core::SolveOptions& opt : all_backend_options()) {
    const auto plan = core::SolverPlan::analyze(empty, opt);
    ASSERT_TRUE(plan.ok()) << core::backend_name(opt.backend) << ": "
                           << plan.message();
    EXPECT_EQ(plan->rows(), 0);
    const auto r = plan->solve(std::span<const value_t>{});
    ASSERT_TRUE(r.ok()) << core::backend_name(opt.backend);
    EXPECT_TRUE(r.value().x.empty());
  }
  // The legacy wrapper keeps its pre-plan behavior too.
  const core::SolveResult legacy = core::solve(
      empty, {}, core::registry::options_for("serial").value());
  EXPECT_TRUE(legacy.x.empty());
}

TEST(SolverPlanReuse, BorrowedPlanMatchesOwningPlan) {
  const sparse::CscMatrix l = test_matrix();
  const std::vector<value_t> b = rhs_for(l, 13);
  const core::SolveOptions opt =
      core::registry::options_for("mg-zerocopy").value();
  const auto owning = core::SolverPlan::analyze(l, opt);
  const auto borrowed = core::SolverPlan::analyze_borrowed(l, opt);
  ASSERT_TRUE(owning.ok());
  ASSERT_TRUE(borrowed.ok());
  const auto ro = owning->solve(b);
  const auto rb = borrowed->solve(b);
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ro.value().x, rb.value().x);
  EXPECT_EQ(ro.value().report.solve_us, rb.value().report.solve_us);
  EXPECT_EQ(owning->analysis_us(), borrowed->analysis_us());
}

TEST(SolverPlanErrors, InvalidOptionsAreReported) {
  const sparse::CscMatrix l = sparse::gen_chain(16);
  core::SolveOptions opt = core::registry::options_for("mg-zerocopy").value();
  opt.tasks_per_gpu = 0;
  const auto plan = core::SolverPlan::analyze(l, opt);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status(), core::SolveStatus::kInvalidOptions);
}

TEST(SolverPlanErrors, LegacyWrapperStillThrowsOnBadInput) {
  const sparse::CscMatrix l = sparse::gen_chain(16);
  const std::vector<value_t> short_b(8, 1.0);
  const core::SolveOptions opt = core::registry::options_for("serial").value();
  EXPECT_THROW(core::solve(l, short_b, opt), support::PreconditionError);
}

TEST(SolverPlanAccessors, ExposeCachedAnalysisState) {
  const sparse::CscMatrix l = test_matrix();

  const auto zero = core::SolverPlan::analyze(
      l, core::registry::options_for("mg-zerocopy").value());
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->rows(), l.rows);
  EXPECT_FALSE(zero->is_upper());
  EXPECT_EQ(zero->partition().n(), l.rows);
  EXPECT_EQ(zero->partition().num_gpus(), 4);
  EXPECT_EQ(zero->in_degrees().size(), static_cast<std::size_t>(l.rows));
  EXPECT_EQ(zero->level_analysis(), nullptr);
  EXPECT_GT(zero->footprint().total_bytes, 0.0);
  EXPECT_GE(zero->analysis_seconds(), 0.0);

  const auto ls = core::SolverPlan::analyze(
      l, core::registry::options_for("gpu-levelset").value());
  ASSERT_TRUE(ls.ok());
  ASSERT_NE(ls->level_analysis(), nullptr);
  EXPECT_EQ(ls->level_analysis()->n, l.rows);
}

TEST(SolverPlanAccessors, ResidentBytesChargeTheSimulatedScheduleFromAnalysis) {
  // A simulated plan builds its replay form -- the factor again, stored in
  // its solve order -- at the first solve; a byte budget that charges
  // plans at insert time must already see it.
  const sparse::CscMatrix l = test_matrix();
  const sparse::CscMatrix u = sparse::transpose(l);
  const std::vector<value_t> b = rhs_for(l, 3);
  const std::size_t factor_bytes = l.col_ptr.size() * sizeof(offset_t) +
                                   l.row_idx.size() * sizeof(index_t) +
                                   l.val.size() * sizeof(value_t);
  // A row form of this factor, as a serial plan holds one from analysis.
  const auto serial =
      core::SolverPlan::analyze(l, core::registry::options_for("serial").value());
  ASSERT_TRUE(serial.ok());
  const core::RowForm& rf = *serial->row_form();
  const std::size_t form_bytes = rf.row_ptr.size() * sizeof(offset_t) +
                                 rf.col_idx.size() * sizeof(index_t) +
                                 rf.val.size() * sizeof(value_t) +
                                 rf.row_of.size() * sizeof(index_t);
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    if (!e.simulated) continue;
    const core::SolveOptions opt = core::registry::default_options(e.backend);
    for (const bool upper : {false, true}) {
      const std::string label =
          std::string(e.key) + (upper ? "/upper" : "/lower");
      const auto plan = upper ? core::SolverPlan::analyze_upper(u, opt)
                              : core::SolverPlan::analyze(l, opt);
      ASSERT_TRUE(plan.ok()) << label;
      const std::size_t analyzed = plan->resident_bytes();
      EXPECT_GE(analyzed, factor_bytes + form_bytes) << label;
      ASSERT_TRUE(plan->solve(b).ok()) << label;
      EXPECT_EQ(plan->resident_bytes(), analyzed) << label;
    }
  }
}

TEST(SolverPlanPhases, SimulatedSolvesCarryAKernelPhase) {
  // The replay sweep is a simulated solve's kernel: its host time is the
  // kernel phase, while wall_seconds stays 0 (the simulated report is the
  // solve's time).
  const sparse::CscMatrix l = test_matrix();
  const sparse::CscMatrix u = sparse::transpose(l);
  const std::vector<value_t> b = rhs_for(l, 4);
  std::vector<value_t> batch = b;
  batch.insert(batch.end(), b.begin(), b.end());
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    if (!e.simulated) continue;
    const core::SolveOptions opt = core::registry::default_options(e.backend);
    for (const bool upper : {false, true}) {
      const std::string label =
          std::string(e.key) + (upper ? "/upper" : "/lower");
      const auto plan = upper ? core::SolverPlan::analyze_upper(u, opt)
                              : core::SolverPlan::analyze(l, opt);
      ASSERT_TRUE(plan.ok()) << label;
      for (const index_t k : {1, 2}) {
        const auto r = plan->solve_batch(k == 1 ? std::span(b) : batch, k);
        ASSERT_TRUE(r.ok()) << label;
        EXPECT_GT(r.value().phases.kernel_us, 0.0) << label << " k=" << k;
        EXPECT_EQ(r.value().wall_seconds, 0.0) << label << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace msptrsv
