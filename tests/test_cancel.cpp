// Cooperative cancellation and execution budgets (core/cancel.hpp).
//
// The contract under test: a fired CancelToken stops a host-kernel solve
// MID-EXECUTION -- kDeadlineExceeded for an expired deadline
// (SolveOptions::time_budget), kOverloaded for a raised flag (the
// service's abandon path) -- and the plan plus its leased workspace are
// IMMEDIATELY reusable: the very next solve on the same plan must succeed
// bit-for-bit.
//
// Timing discipline: the mid-solve tests never sleep-and-hope. They park
// the kernel at a failpoint seam (kernel.level / kernel.task), PROVE it is
// parked via failpoint_wait_hits, fire the token, release the seam, and
// assert on the typed result -- the abort is observed at a kernel boundary
// the test controls, not at a wall-clock coincidence.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "support/failpoint.hpp"

namespace msptrsv {
namespace {

using core::CancelSource;
using core::CancelToken;
using core::SolveStatus;

core::SolveOptions opts(const char* key, int threads = 2) {
  core::SolveOptions o = core::registry::options_for(key).value();
  o.cpu_threads = threads;
  return o;
}

struct Problem {
  sparse::CscMatrix l;
  std::vector<value_t> x_ref;
  std::vector<value_t> b;
};

Problem layered_problem(index_t n = 800) {
  Problem p;
  p.l = sparse::gen_layered_dag(n, 20, 5 * n, 0.5, 71);
  p.x_ref = sparse::gen_solution(n, 72);
  p.b = sparse::gen_rhs_for_solution(p.l, p.x_ref);
  return p;
}

/// A fully sequential chain: every component depends on its predecessor,
/// so while one worker is parked on component i, no other worker can
/// steal the rest of the solve out from under the test.
Problem chain_problem(index_t n = 800) {
  Problem p;
  p.l = sparse::gen_chain(n);
  p.x_ref = sparse::gen_solution(n, 73);
  p.b = sparse::gen_rhs_for_solution(p.l, p.x_ref);
  return p;
}

class CancelFixture : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint_clear_all(); }
};

// ---- token semantics -------------------------------------------------------

TEST(CancelToken, DefaultTokenIsInert) {
  const CancelToken t;
  EXPECT_FALSE(t.active());
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.flag_cancelled());
  EXPECT_FALSE(t.deadline_expired());
}

TEST(CancelToken, BudgetTokenExpires) {
  const CancelToken expired = CancelToken::with_budget(0.0);
  EXPECT_TRUE(expired.active());
  EXPECT_TRUE(expired.deadline_expired());
  EXPECT_FALSE(expired.flag_cancelled());

  const CancelToken generous = CancelToken::with_budget(3600.0);
  EXPECT_TRUE(generous.active());
  EXPECT_FALSE(generous.cancelled());
}

TEST(CancelToken, CappedKeepsTheEarlierDeadlineAndTheFlag) {
  // Capping a generous budget tightens it; capping a tight one does not
  // loosen it.
  EXPECT_TRUE(CancelToken::with_budget(3600.0).capped(0.0).deadline_expired());
  EXPECT_FALSE(CancelToken::with_budget(3600.0).capped(60.0).cancelled());
  EXPECT_TRUE(CancelToken::with_budget(0.0).capped(3600.0).deadline_expired());

  CancelSource src;
  const CancelToken both = src.token().capped(3600.0);
  EXPECT_FALSE(both.cancelled());
  src.cancel();
  EXPECT_TRUE(both.flag_cancelled());
  EXPECT_FALSE(both.deadline_expired());
}

TEST(CancelToken, SourceFlipsEveryTokenHandedOut) {
  CancelSource src;
  const CancelToken t1 = src.token();
  const CancelToken t2 = src.token();
  EXPECT_FALSE(t1.cancelled());
  src.cancel();
  EXPECT_TRUE(t1.cancelled());
  EXPECT_TRUE(t2.cancelled());
  EXPECT_TRUE(src.cancelled());
  EXPECT_TRUE(src.token().cancelled());  // fired sources hand out fired tokens
}

// ---- plan-level budgets ----------------------------------------------------

TEST(CancelSolve, ExpiredTokenIsRefusedAtEntryAndPlanStaysUsable) {
  const Problem p = layered_problem();
  const auto plan =
      core::SolverPlan::analyze(p.l, opts("cpu-levelset"));
  ASSERT_TRUE(plan.ok());

  const auto refused = plan->solve(p.b, CancelToken::with_budget(0.0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status(), SolveStatus::kDeadlineExceeded);

  const auto after = plan->solve(p.b);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().x, plan->solve(p.b).value().x);
}

TEST(CancelSolve, TimeBudgetOptionActsAsAnExecutionDeadline) {
  // A plan whose own options carry an (immediately exhausted) budget
  // refuses even the plain solve() overloads -- no token plumbing needed
  // at the call site.
  const Problem p = layered_problem();
  core::SolveOptions o = opts("cpu-syncfree");
  o.time_budget = 1e-12;
  const auto plan = core::SolverPlan::analyze(p.l, o);
  ASSERT_TRUE(plan.ok());

  const auto refused = plan->solve(p.b);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status(), SolveStatus::kDeadlineExceeded);

  const auto batch = plan->solve_batch(p.b, 1);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status(), SolveStatus::kDeadlineExceeded);
}

TEST_F(CancelFixture, LevelsetAbortsMidSolveAndTheWorkspaceIsReusable) {
  if (!support::failpoints_compiled()) GTEST_SKIP();
  const Problem p = layered_problem();
  const auto plan =
      core::SolverPlan::analyze(p.l, opts("cpu-levelset"));
  ASSERT_TRUE(plan.ok());
  // One rhs, then an 8-wide batch (column 0 is p.b, the rest fresh): the
  // abort must unwind the same way at any batch width.
  for (const index_t k : {index_t{1}, index_t{8}}) {
    SCOPED_TRACE("num_rhs " + std::to_string(k));
    std::vector<value_t> batch = p.b;
    for (index_t j = 1; j < k; ++j) {
      const std::vector<value_t> bj = sparse::gen_rhs_for_solution(
          p.l,
          sparse::gen_solution(p.l.rows, 80 + static_cast<std::uint64_t>(j)));
      batch.insert(batch.end(), bj.begin(), bj.end());
    }
    const std::vector<value_t> good = plan->solve_batch(batch, k).value().x;

    // Park the kernel at the first level boundary, prove it is parked,
    // raise the abandon flag, release -- the very next boundary check
    // sees the flag and aborts with the barrier still coherent. (Hit
    // counters are cumulative across clear_all, hence the base-relative
    // wait.)
    const std::uint64_t base = support::failpoint_hits("kernel.level");
    ASSERT_TRUE(support::failpoint_set("kernel.level", "pause*1"));
    CancelSource src;
    core::Expected<core::SolveResult> result(SolveStatus::kOk, "");
    std::thread solver(
        [&] { result = plan->solve_batch(batch, k, src.token()); });
    ASSERT_TRUE(support::failpoint_wait_hits("kernel.level", base + 1, 10000));
    src.cancel();
    support::failpoint_clear("kernel.level");
    solver.join();

    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status(), SolveStatus::kOverloaded);

    // The abort left the plan and its leased workspace clean: same plan,
    // same bits, immediately.
    const auto after = plan->solve_batch(batch, k);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().x, good);
  }
}

TEST_F(CancelFixture, SyncfreeAbortsMidSolveAndTheWorkspaceIsReusable) {
  if (!support::failpoints_compiled()) GTEST_SKIP();
  // The chain gives the paused claimant a component every other worker
  // transitively depends on: the whole gang is provably in the kernel
  // (parked or spinning) when the flag goes up, and the spinners
  // themselves detect it.
  const Problem p = chain_problem();
  const auto plan =
      core::SolverPlan::analyze(p.l, opts("cpu-syncfree"));
  ASSERT_TRUE(plan.ok());
  const std::vector<value_t> good = plan->solve(p.b).value().x;

  const std::uint64_t base = support::failpoint_hits("kernel.task");
  ASSERT_TRUE(support::failpoint_set("kernel.task", "pause*1"));
  CancelSource src;
  core::Expected<core::SolveResult> result(SolveStatus::kOk, "");
  std::thread solver([&] { result = plan->solve(p.b, src.token()); });
  ASSERT_TRUE(support::failpoint_wait_hits("kernel.task", base + 1, 10000));
  src.cancel();
  support::failpoint_clear("kernel.task");
  solver.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status(), SolveStatus::kOverloaded);

  // The torn generation's delivery counters were rewound on abort; a
  // follow-up solve on the SAME workspace must neither hang nor drift.
  const auto after = plan->solve(p.b);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().x, good);
}

TEST_F(CancelFixture, DeadlineFiresMidExecutionWithTheKernelInFlight) {
  if (!support::failpoints_compiled()) GTEST_SKIP();
  const Problem p = layered_problem();
  core::SolveOptions o = opts("cpu-levelset");
  o.time_budget = 0.05;  // plenty to ENTER the kernel, then expire inside
  const auto plan = core::SolverPlan::analyze(p.l, o);
  ASSERT_TRUE(plan.ok());

  // Park the kernel past the entry check, hold it until the budget is
  // PROVABLY spent (deterministic: we wait out the deadline while the
  // kernel is frozen, so its next boundary check must see it expired).
  const std::uint64_t base = support::failpoint_hits("kernel.level");
  ASSERT_TRUE(support::failpoint_set("kernel.level", "pause*1"));
  core::Expected<core::SolveResult> result(SolveStatus::kOk, "");
  std::thread solver([&] { result = plan->solve(p.b); });
  ASSERT_TRUE(support::failpoint_wait_hits("kernel.level", base + 1, 10000));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  support::failpoint_clear("kernel.level");
  solver.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status(), SolveStatus::kDeadlineExceeded);

  // Same plan, budget honored per solve: a fresh call gets a fresh
  // deadline. Every refusal must stay TYPED (a loaded machine can
  // legitimately exhaust a 50ms budget again -- that does not disprove
  // reusability), and the plan must complete once a budget is met.
  core::Expected<core::SolveResult> after(SolveStatus::kDeadlineExceeded, "");
  for (int attempt = 0; attempt < 50 && !after.ok(); ++attempt) {
    after = plan->solve(p.b);
    if (!after.ok()) {
      ASSERT_EQ(after.status(), SolveStatus::kDeadlineExceeded)
          << after.message();
    }
  }
  ASSERT_TRUE(after.ok()) << after.message();
}

TEST(CancelSolve, SimulatedBackendsCheckAtEntry) {
  const Problem p = layered_problem(400);
  const auto plan = core::SolverPlan::analyze(p.l, opts("mg-zerocopy", 1));
  ASSERT_TRUE(plan.ok());
  const auto refused = plan->solve(p.b, CancelToken::with_budget(0.0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status(), SolveStatus::kDeadlineExceeded);
  EXPECT_TRUE(plan->solve(p.b).ok());
}

TEST(CancelSolve, FlagOnlyCancellationReportsOverloaded) {
  // The service's abandon path: no deadline involved, so the typed error
  // is the shutting-down refusal, not a budget violation.
  const Problem p = layered_problem(400);
  const auto plan = core::SolverPlan::analyze(p.l, opts("serial", 1));
  ASSERT_TRUE(plan.ok());
  CancelSource src;
  src.cancel();
  const auto refused = plan->solve(p.b, src.token());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status(), SolveStatus::kOverloaded);
  EXPECT_TRUE(plan->solve(p.b).ok());
}

}  // namespace
}  // namespace msptrsv
