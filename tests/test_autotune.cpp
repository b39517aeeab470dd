// The analyze-time autotuner as a pure function of (level structure,
// measured host costs, thread budget): every branch is pinned here with
// injected costs, so the decisions do not depend on the machine running
// the test. The plan-level paths (analyze with the "auto" preset, blob
// round trips) take the same costs through the ScopedHostCosts seam.
#include <gtest/gtest.h>

#include <vector>

#include "core/autotune.hpp"
#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

using core::Backend;

/// Host costs measured by the calibration on a 4-vCPU cloud VM (Release
/// build): a gang barrier costs microseconds there, thousands of times a
/// row's gather work.
core::HostCosts vm_costs() {
  core::HostCosts c;
  c.serial_ns_per_nnz = 1.67;
  c.gather_ns_per_nnz = 6.9;
  c.level_sync_ns = {0.0, 0.0, 2400.0, 3800.0, 5100.0};
  return c;
}

/// A machine where synchronization is nearly free and the gather is as
/// cheap as the serial sweep: parallel schedules win wherever there is
/// width to spread.
core::HostCosts cheap_sync_costs() {
  core::HostCosts c;
  c.serial_ns_per_nnz = 1.0;
  c.gather_ns_per_nnz = 1.0;
  c.level_sync_ns = {0.0, 0.0, 100.0, 110.0, 120.0};
  return c;
}

core::TunedDecision decide(const sparse::CscMatrix& lower,
                           const core::HostCosts& costs, int budget) {
  return core::autotune_decision(sparse::analyze_levels(lower), costs, budget);
}

TEST(Autotune, OneThreadBudgetIsAlwaysSerial) {
  // Even with free sync and perfectly wide levels, a budget of one thread
  // has no gang to run: serial, gang width 1 -- never a one-party gang.
  const std::vector<sparse::CscMatrix> factors = {
      sparse::gen_grid3d_lower(24, 24, 24),
      sparse::gen_chain_heavy(4, 120, 256, 2, 11),
      sparse::gen_diagonal(50000),
  };
  core::HostCosts free_sync = cheap_sync_costs();
  for (double& v : free_sync.level_sync_ns) v = 0.0;
  for (const sparse::CscMatrix& l : factors) {
    const core::TunedDecision d = decide(l, free_sync, 1);
    EXPECT_TRUE(d.autotuned);
    EXPECT_EQ(d.backend, Backend::kSerial);
    EXPECT_EQ(d.gang_width, 1);
  }
}

TEST(Autotune, NoMeasuredGangIsAlwaysSerial) {
  // Costs with no gang widths measured (a one-thread process) offer no
  // parallel candidate whatever the budget.
  core::HostCosts solo = cheap_sync_costs();
  solo.level_sync_ns.clear();
  const core::TunedDecision d =
      decide(sparse::gen_diagonal(50000), solo, 8);
  EXPECT_EQ(d.backend, Backend::kSerial);
  EXPECT_EQ(d.gang_width, 1);
}

TEST(Autotune, VmCostsKeepSerialOnGridFactors) {
  // The IC(0) factor structures of the repository benchmark (3D 24^3 and
  // 16^3, 2D 140^2) plus a large 3D grid: per-level work never pays a
  // microsecond barrier on that machine.
  const std::vector<sparse::CscMatrix> factors = {
      sparse::gen_grid3d_lower(24, 24, 24),
      sparse::gen_grid3d_lower(16, 16, 16),
      sparse::gen_grid2d_lower(140, 140),
      sparse::gen_grid3d_lower(48, 48, 48),
  };
  for (const sparse::CscMatrix& l : factors) {
    for (const int budget : {2, 4}) {
      const core::TunedDecision d = decide(l, vm_costs(), budget);
      EXPECT_EQ(d.backend, Backend::kSerial) << l.rows << " rows";
      EXPECT_EQ(d.gang_width, 1);
    }
  }
}

TEST(Autotune, CheapSyncWithWideLevelsPicksLevelSets) {
  // 40 levels of 1000 independent-ish rows: every barrier is amortized
  // over hundreds of rows per party, so the gang wins.
  const sparse::CscMatrix l =
      sparse::gen_layered_dag(40000, 40, 200000, 0.5, 5);
  const core::TunedDecision d = decide(l, cheap_sync_costs(), 4);
  EXPECT_EQ(d.backend, Backend::kCpuLevelSet);
  EXPECT_EQ(d.gang_width, 4);
  // A narrower budget narrows the gang with it.
  EXPECT_EQ(decide(l, cheap_sync_costs(), 2).gang_width, 2);
}

TEST(Autotune, CheapSyncStillKeepsSerialOnChains) {
  // Four 120-row chains, each feeding a fan of 8192 rows: the gang pays a
  // barrier per chain row, which even cheap sync does not win back.
  const sparse::CscMatrix l = sparse::gen_chain_heavy(4, 120, 8192, 2, 11);
  const core::TunedDecision d = decide(l, cheap_sync_costs(), 4);
  EXPECT_EQ(d.backend, Backend::kSerial);
  EXPECT_EQ(d.gang_width, 1);
}

TEST(Autotune, SyncCostIsClampedIntoTheMeasuredRange) {
  // One party never syncs; widths past the widest measured gang read the
  // widest figure; costs with no gang measured are a one-party machine.
  const core::HostCosts c = cheap_sync_costs();
  EXPECT_EQ(c.max_width(), 4);
  EXPECT_EQ(c.sync_ns(1), 0.0);
  EXPECT_EQ(c.sync_ns(2), 100.0);
  EXPECT_EQ(c.sync_ns(4), 120.0);
  EXPECT_EQ(c.sync_ns(64), 120.0);
  core::HostCosts solo = c;
  solo.level_sync_ns.clear();
  EXPECT_EQ(solo.max_width(), 1);
  EXPECT_EQ(solo.sync_ns(4), 0.0);
}

TEST(Autotune, ParallelPickNeedsTheMargin) {
  // Scale serial's cost so that the best parallel schedule is predicted
  // only slightly faster than serial: inside the margin, serial stays.
  const sparse::CscMatrix l =
      sparse::gen_layered_dag(40000, 40, 200000, 0.5, 5);
  core::HostCosts costs = cheap_sync_costs();
  const core::TunedDecision fast = decide(l, costs, 4);
  ASSERT_EQ(fast.backend, Backend::kCpuLevelSet);
  // Shrink serial until it is within 10% of the winning schedule's
  // predicted time: a 4-wide gang does at best 1/4 of the gather work.
  costs.serial_ns_per_nnz = costs.gather_ns_per_nnz / 4.0 * 1.1;
  EXPECT_EQ(decide(l, costs, 4).backend, Backend::kSerial);
}

TEST(Autotune, AutoPresetTakesTheInjectedCosts) {
  // The plan-level path: the "auto" preset reads the process-wide costs,
  // so the seam steers it and the plan reports the decision.
  const sparse::CscMatrix l =
      sparse::gen_layered_dag(40000, 40, 200000, 0.5, 5);
  core::SolveOptions opt = core::registry::options_for("auto").value();
  opt.cpu_threads = 4;
  {
    const core::ScopedHostCosts cheap(cheap_sync_costs());
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok()) << plan.message();
    ASSERT_NE(plan->tuned(), nullptr);
    EXPECT_EQ(plan->options().backend, Backend::kCpuLevelSet);
    EXPECT_EQ(plan->options().cpu_threads, plan->tuned()->gang_width);
  }
  {
    const core::ScopedHostCosts vm(vm_costs());
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok()) << plan.message();
    EXPECT_EQ(plan->options().backend, Backend::kSerial);
    EXPECT_EQ(plan->options().cpu_threads, 1);
  }
  // A one-thread budget through the plan path: serial, whatever the costs.
  opt.cpu_threads = 1;
  const core::ScopedHostCosts cheap(cheap_sync_costs());
  const auto solo = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(solo->options().backend, Backend::kSerial);
}

TEST(Autotune, MeasuredCostsAreSaneAndCached) {
  // The real calibration: positive per-nonzero costs, a sync figure per
  // measured width, and one measurement per process.
  const core::HostCosts& c = core::measured_host_costs();
  EXPECT_GT(c.serial_ns_per_nnz, 0.0);
  EXPECT_GT(c.gather_ns_per_nnz, 0.0);
  EXPECT_EQ(c.max_width(), std::max(1, core::resolve_cpu_threads(0)));
  for (int w = 2; w <= c.max_width(); ++w) EXPECT_GE(c.sync_ns(w), 0.0);
  EXPECT_EQ(&core::measured_host_costs(), &c);
}

}  // namespace
}  // namespace msptrsv
