// The interleaved RHS layout (RhsLayout::kInterleaved) and the NUMA
// placement knobs are PURE performance features: every contract here says
// "same bits". The panel transposes change addresses, never the per-rhs
// floating-point operation order, so an interleaved fused batch must equal
// the column-major one -- and both must equal looped single solves -- on
// every host backend, at any thread count, under value refreshes, and
// right after a mid-solve abort. Placement (pinning, first-touch,
// page interleaving) moves bytes between nodes, never operations, so any
// NumaPolicy must reproduce kNone's bits exactly.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "core/reference.hpp"
#include "core/workspace.hpp"
#include "support/failpoint.hpp"
#include "support/numa.hpp"

namespace msptrsv {
namespace {

using core::RhsLayout;

sparse::CscMatrix layered() {
  return sparse::gen_layered_dag(1200, 30, 8400, 0.4, 91);
}

std::vector<value_t> batch_for(const sparse::CscMatrix& l, index_t k,
                               std::uint64_t seed) {
  std::vector<value_t> out;
  for (index_t j = 0; j < k; ++j) {
    const std::vector<value_t> b = sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(l.rows, seed + static_cast<std::uint64_t>(j)));
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

core::SolveOptions host_opts(const char* key, RhsLayout layout,
                             int threads = 2) {
  core::SolveOptions o = core::registry::options_for(key).value();
  o.cpu_threads = threads;
  o.rhs_layout = layout;
  return o;
}

constexpr const char* kHostBackends[] = {"serial", "cpu-levelset",
                                         "cpu-syncfree"};

// ---- layout resolution -----------------------------------------------------

TEST(RhsLayoutResolve, AutoPicksInterleavedOnlyForParallelHostBackends) {
  using core::Backend;
  EXPECT_EQ(core::resolve_rhs_layout(RhsLayout::kAuto, Backend::kCpuLevelSet),
            RhsLayout::kInterleaved);
  EXPECT_EQ(core::resolve_rhs_layout(RhsLayout::kAuto, Backend::kCpuSyncFree),
            RhsLayout::kInterleaved);
  // The serial pull sweep keeps up to four rhs in registers instead of a
  // panel; auto leaves it column-major.
  EXPECT_EQ(core::resolve_rhs_layout(RhsLayout::kAuto, Backend::kSerial),
            RhsLayout::kColumnMajor);
  EXPECT_EQ(core::resolve_rhs_layout(RhsLayout::kAuto, Backend::kMgUnified),
            RhsLayout::kColumnMajor);
}

TEST(RhsLayoutResolve, ExplicitRequestsHonoredOnHostClampedOnSim) {
  using core::Backend;
  // Explicit beats auto on every parallel host backend.
  EXPECT_EQ(
      core::resolve_rhs_layout(RhsLayout::kInterleaved, Backend::kCpuLevelSet),
      RhsLayout::kInterleaved);
  EXPECT_EQ(
      core::resolve_rhs_layout(RhsLayout::kColumnMajor, Backend::kCpuSyncFree),
      RhsLayout::kColumnMajor);
  // The serial sweep and the simulated kernels have no panel path:
  // clamped, not rejected.
  EXPECT_EQ(
      core::resolve_rhs_layout(RhsLayout::kInterleaved, Backend::kSerial),
      RhsLayout::kColumnMajor);
  EXPECT_EQ(
      core::resolve_rhs_layout(RhsLayout::kInterleaved, Backend::kGpuLevelSet),
      RhsLayout::kColumnMajor);
  // Never kAuto out.
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    EXPECT_NE(core::resolve_rhs_layout(RhsLayout::kAuto, e.backend),
              RhsLayout::kAuto);
  }
}

TEST(RhsLayoutResolve, ResolvedLayoutIsVisibleOnThePlan) {
  const sparse::CscMatrix l = layered();
  const auto inter = core::SolverPlan::analyze(
      l, host_opts("cpu-levelset", RhsLayout::kAuto));
  ASSERT_TRUE(inter.ok());
  EXPECT_EQ(inter->rhs_layout(), RhsLayout::kInterleaved);
  const auto col = core::SolverPlan::analyze(
      l, host_opts("cpu-levelset", RhsLayout::kColumnMajor));
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->rhs_layout(), RhsLayout::kColumnMajor);
}

// ---- panel transposes ------------------------------------------------------

TEST(PanelTranspose, PackUnpackRoundTripsAtAnyWidth) {
  const index_t n = 37;
  for (const index_t k : {index_t{1}, index_t{2}, index_t{3}, index_t{8}}) {
    std::vector<value_t> col(static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < col.size(); ++i) {
      col[i] = static_cast<value_t>(i) * 0.5 - 3.0;
    }
    std::vector<value_t> panel(col.size(), -1.0);
    core::pack_interleaved(col, n, k, panel.data());
    // Spot-check the layout contract: entry i of rhs r at [i*k + r].
    EXPECT_EQ(panel[static_cast<std::size_t>(5) * k],
              col[5]);  // rhs 0, component 5
    std::vector<value_t> back(col.size(), -2.0);
    core::unpack_interleaved(panel.data(), n, k, back);
    EXPECT_EQ(back, col);
  }
}

// ---- bit-for-bit equality across layouts -----------------------------------

TEST(InterleavedLayout, FusedBatchMatchesColumnMajorAndLoopedOnEveryBackend) {
  const sparse::CscMatrix l = layered();
  const index_t n = l.rows;
  for (const char* key : kHostBackends) {
    for (const index_t k : {index_t{2}, index_t{3}, index_t{16}}) {
      SCOPED_TRACE(std::string(key) + " k=" + std::to_string(k));
      const std::vector<value_t> batch = batch_for(l, k, 500);
      const auto inter = core::SolverPlan::analyze(
          l, host_opts(key, RhsLayout::kInterleaved));
      const auto col = core::SolverPlan::analyze(
          l, host_opts(key, RhsLayout::kColumnMajor));
      ASSERT_TRUE(inter.ok() && col.ok());

      const auto ri = inter->solve_batch(batch, k);
      const auto rc = col->solve_batch(batch, k);
      ASSERT_TRUE(ri.ok() && rc.ok());
      EXPECT_EQ(ri.value().x, rc.value().x);

      // The public bit-for-bit-vs-looped guarantee holds through the
      // panel: each batch column equals the single solve of that rhs.
      for (index_t r = 0; r < k; ++r) {
        const auto single = inter->solve(
            std::span<const value_t>(batch).subspan(
                static_cast<std::size_t>(r) * static_cast<std::size_t>(n),
                static_cast<std::size_t>(n)));
        ASSERT_TRUE(single.ok());
        const std::vector<value_t> column(
            ri.value().x.begin() +
                static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r) *
                                            static_cast<std::size_t>(n)),
            ri.value().x.begin() +
                static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r + 1) *
                                            static_cast<std::size_t>(n)));
        EXPECT_EQ(column, single.value().x) << "rhs " << r;
      }
    }
  }
}

TEST(InterleavedLayout, UpperPlansMatchAcrossLayouts) {
  const sparse::CscMatrix u = sparse::transpose(layered());
  const index_t k = 4;
  const std::vector<value_t> batch = batch_for(u, k, 700);
  for (const char* key : kHostBackends) {
    SCOPED_TRACE(key);
    const auto inter = core::SolverPlan::analyze_upper(
        sparse::CscMatrix(u), host_opts(key, RhsLayout::kInterleaved));
    const auto col = core::SolverPlan::analyze_upper(
        sparse::CscMatrix(u), host_opts(key, RhsLayout::kColumnMajor));
    ASSERT_TRUE(inter.ok() && col.ok());
    const auto ri = inter->solve_batch(batch, k);
    const auto rc = col->solve_batch(batch, k);
    ASSERT_TRUE(ri.ok() && rc.ok());
    EXPECT_EQ(ri.value().x, rc.value().x);
  }
}

TEST(InterleavedLayout, UpdateValuesRefreshKeepsLayoutsInAgreement) {
  const sparse::CscMatrix l = layered();
  const index_t k = 8;
  for (const char* key : kHostBackends) {
    SCOPED_TRACE(key);
    auto inter = core::SolverPlan::analyze(
                     l, host_opts(key, RhsLayout::kInterleaved))
                     .value();
    auto col = core::SolverPlan::analyze(
                   l, host_opts(key, RhsLayout::kColumnMajor))
                   .value();
    sparse::CscMatrix scaled = l;
    for (value_t& v : scaled.val) v *= 1.75;
    ASSERT_TRUE(inter.update_values(scaled).ok());
    ASSERT_TRUE(col.update_values(scaled).ok());
    const std::vector<value_t> batch = batch_for(scaled, k, 900);
    const auto ri = inter.solve_batch(batch, k);
    const auto rc = col.solve_batch(batch, k);
    ASSERT_TRUE(ri.ok() && rc.ok());
    EXPECT_EQ(ri.value().x, rc.value().x);
  }
}

TEST(InterleavedLayout, ThreadCountDoesNotChangeTheBits) {
  // The panel kernels keep the pull-based deterministic summation order,
  // so gang width is unobservable in the results -- the same guarantee
  // the column-major kernels ship.
  const sparse::CscMatrix l = layered();
  const index_t k = 8;
  const std::vector<value_t> batch = batch_for(l, k, 1100);
  for (const char* key : {"cpu-levelset", "cpu-syncfree"}) {
    SCOPED_TRACE(key);
    const auto one = core::SolverPlan::analyze(
        l, host_opts(key, RhsLayout::kInterleaved, 1));
    const auto four = core::SolverPlan::analyze(
        l, host_opts(key, RhsLayout::kInterleaved, 4));
    ASSERT_TRUE(one.ok() && four.ok());
    EXPECT_EQ(one->solve_batch(batch, k).value().x,
              four->solve_batch(batch, k).value().x);
  }
}

// ---- abort + reuse under the panel path ------------------------------------

class LayoutCancelFixture : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint_clear_all(); }
};

TEST_F(LayoutCancelFixture, MidSolveAbortLeavesThePanelWorkspaceReusable) {
  if (!support::failpoints_compiled()) GTEST_SKIP();
  const sparse::CscMatrix l = layered();
  const index_t k = 8;
  const std::vector<value_t> batch = batch_for(l, k, 1300);
  const auto plan = core::SolverPlan::analyze(
      l, host_opts("cpu-levelset", RhsLayout::kInterleaved));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->rhs_layout(), RhsLayout::kInterleaved);
  const std::vector<value_t> good = plan->solve_batch(batch, k).value().x;

  // Park the interleaved kernel at a level boundary, fire the flag,
  // release: the abort unwinds through the panel path and the next batch
  // on the SAME leased workspace (and its cached panels) must be exact.
  const std::uint64_t base = support::failpoint_hits("kernel.level");
  ASSERT_TRUE(support::failpoint_set("kernel.level", "pause*1"));
  core::CancelSource src;
  core::Expected<core::SolveResult> result(core::SolveStatus::kOk, "");
  std::thread solver(
      [&] { result = plan->solve_batch(batch, k, src.token()); });
  ASSERT_TRUE(support::failpoint_wait_hits("kernel.level", base + 1, 10000));
  src.cancel();
  support::failpoint_clear("kernel.level");
  solver.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status(), core::SolveStatus::kOverloaded);
  const auto after = plan->solve_batch(batch, k);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().x, good);
}

// ---- workspace scratch contracts -------------------------------------------

TEST(WorkspaceScratch, GatherSlicesAreCacheLineDisjoint) {
  core::SolveWorkspace ws(3);
  for (const index_t k : {index_t{1}, index_t{5}, index_t{16}, index_t{33}}) {
    const value_t* base = ws.gather_scratch(k);
    ASSERT_NE(base, nullptr);
    // Stride padded to a 64-byte multiple, base 64-byte aligned: no two
    // threads' accumulator slices can ever share a line.
    EXPECT_EQ((ws.gather_stride() * sizeof(value_t)) % 64u, 0u) << "k=" << k;
    EXPECT_GE(ws.gather_stride(), static_cast<std::size_t>(k));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base) % 64u, 0u);
  }
}

TEST(WorkspaceScratch, PanelsAreAlignedAndStable) {
  core::SolveWorkspace ws(2);
  value_t* b1 = ws.panel_b(1000);
  value_t* x1 = ws.panel_x(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b1) % 64u, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(x1) % 64u, 0u);
  // Steady state reuses the allocation; growth re-allocates.
  EXPECT_EQ(ws.panel_b(900), b1);
  EXPECT_NE(ws.panel_b(4000), nullptr);
}

// ---- NUMA placement --------------------------------------------------------

TEST(Numa, TopologyAlwaysHasAtLeastOneNodeWithCpus) {
  const support::NumaTopology& topo = support::numa_topology();
  ASSERT_GE(topo.num_nodes(), 1);
  for (const auto& cpus : topo.node_cpus) EXPECT_FALSE(cpus.empty());
}

TEST(Numa, WorkerPlacementPolicies) {
  using support::NumaPolicy;
  // kNone never pins.
  EXPECT_EQ(support::numa_cpu_for_worker(NumaPolicy::kNone, 0), -1);
  EXPECT_EQ(support::numa_cpu_for_worker(NumaPolicy::kNone, 7), -1);
  // Real policies return a CPU from the topology for in-range workers and
  // -1 (stay schedulable everywhere) once the pool oversubscribes.
  const support::NumaTopology& topo = support::numa_topology();
  int total_cpus = 0;
  for (const auto& cpus : topo.node_cpus) {
    total_cpus += static_cast<int>(cpus.size());
  }
  for (const NumaPolicy policy : {NumaPolicy::kCompact, NumaPolicy::kSpread}) {
    for (int w = 0; w < total_cpus; ++w) {
      const int cpu = support::numa_cpu_for_worker(policy, w);
      bool found = false;
      for (const auto& cpus : topo.node_cpus) {
        for (const int c : cpus) found |= (c == cpu);
      }
      EXPECT_TRUE(found) << "worker " << w;
    }
    EXPECT_EQ(support::numa_cpu_for_worker(policy, total_cpus), -1);
  }
}

TEST(Numa, PinRefusalIsAHintNotAnError) {
  EXPECT_FALSE(support::pin_current_thread(-1));
  EXPECT_FALSE(support::pin_current_thread(1 << 20));  // no such CPU
}

TEST(Numa, InterleaveHintNeverBreaksTheBuffer) {
  std::vector<double> buf(16384, 1.5);
  // Single-node machines and refused mbinds return false; either way the
  // bytes are untouched.
  (void)support::interleave_pages(buf.data(), buf.size() * sizeof(double));
  for (const double v : buf) ASSERT_EQ(v, 1.5);
}

TEST(Numa, PlacementPoliciesReproduceTheBitsExactly) {
  const sparse::CscMatrix l = layered();
  const index_t k = 8;
  const std::vector<value_t> batch = batch_for(l, k, 1500);
  for (const char* key : {"cpu-levelset", "cpu-syncfree"}) {
    SCOPED_TRACE(key);
    core::SolveOptions none = host_opts(key, RhsLayout::kInterleaved);
    const std::vector<value_t> expect =
        core::SolverPlan::analyze(l, none)->solve_batch(batch, k).value().x;
    for (const support::NumaPolicy policy :
         {support::NumaPolicy::kCompact, support::NumaPolicy::kSpread}) {
      core::SolveOptions o = none;
      o.numa_policy = policy;
      const auto plan = core::SolverPlan::analyze(l, o);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(plan->solve_batch(batch, k).value().x, expect);
      // Placement survives value refreshes (the row form is re-hinted).
      EXPECT_TRUE(plan->solve(std::span<const value_t>(batch).first(
                                  static_cast<std::size_t>(l.rows)))
                      .ok());
    }
  }
}

}  // namespace
}  // namespace msptrsv
