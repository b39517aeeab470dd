// The paper workload: the source paper's multi-GPU designs on analogs of
// its test matrices. The five Fig. 10 matrices of the Table I suite
// (sparse/suite.hpp, generated at a capped size) are each solved by the
// four Fig. 7 design points on a simulated 4-GPU DGX-1:
// 4GPU-Unified, 4GPU-Unified+task, 4GPU-Shmem and 4GPU-Zerocopy. The time
// measured is the host time the simulation takes -- what a user running
// the paper's studies waits for; the simulated solve times stay exact and
// feed the per-layer sim_speedup. One operation is one sweep over all
// twenty matrix/design pairs; every solution is checked against the
// seeded solution its right-hand side was made from.
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "core/residual.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"

namespace perfbench {

namespace core = msptrsv::core;
namespace sparse = msptrsv::sparse;

namespace {

constexpr index_t kMaxRows = 4000;
constexpr int kWarmupOps = 2;
constexpr double kCheckTol = 1e-8;
const char* const kDesigns[] = {"mg-unified", "mg-unified-task", "mg-shmem",
                                "mg-zerocopy"};
constexpr std::size_t kNumDesigns = std::size(kDesigns);

struct Case {
  std::vector<value_t> x, b;
  std::vector<core::SolverPlan> plans;  // one per design, kDesigns order
  int levels = 0;
};

std::vector<Case> set_up(std::uint64_t seed, double& build_ms, double& plan_ms) {
  const auto t0 = Clock::now();
  std::vector<sparse::SuiteMatrix> suite =
      sparse::generate_suite(kMaxRows, sparse::fig10_matrix_names());
  build_ms = ms_since(t0);

  std::vector<Case> cases;
  const auto t1 = Clock::now();
  for (std::size_t m = 0; m < suite.size(); ++m) {
    Case c;
    c.levels = suite[m].analysis.num_levels;
    for (const char* key : kDesigns) {
      auto plan = core::SolverPlan::analyze(
          suite[m].lower, core::registry::options_for(key).value());
      if (!plan.ok()) throw std::runtime_error("analysis failed: " + plan.message());
      c.plans.push_back(std::move(plan).value());
    }
    cases.push_back(std::move(c));
  }
  plan_ms = ms_since(t1) / double(suite.size() * kNumDesigns);

  for (std::size_t m = 0; m < suite.size(); ++m) {
    cases[m].x = random_vector(static_cast<std::size_t>(suite[m].lower.rows),
                               seed * 1000003 + m);
    cases[m].b = sparse::gen_rhs_for_solution(suite[m].lower, cases[m].x);
  }
  return cases;
}

}  // namespace

Outcome run_paper(const Args& args) {
  Outcome o;
  std::vector<double> build_ms, plan_ms;
  std::vector<Case> cases;
  for (int s = 0; s < kSetups; ++s) {
    cases.clear();  // the previous set-up is torn down before timing the next
    double b_ms = 0.0, p_ms = 0.0;
    const auto t0 = Clock::now();
    cases = set_up(args.seed, b_ms, p_ms);
    o.setup_s.push_back(s_since(t0));
    build_ms.push_back(b_ms);
    plan_ms.push_back(p_ms);
  }

  LayerClock trsv(args.trace);
  // Simulated solve time per (matrix, design), from the last sweep.
  std::vector<std::vector<double>> sim_us(cases.size(),
                                          std::vector<double>(kNumDesigns));
  auto sweep = [&](LayerClock& clock) {
    bool ok = true;
    for (std::size_t m = 0; m < cases.size(); ++m) {
      for (std::size_t d = 0; d < kNumDesigns; ++d) {
        auto r = clock.time([&] { return cases[m].plans[d].solve(cases[m].b); });
        if (!r.ok() ||
            !(core::max_relative_difference(r.value().x, cases[m].x) <= kCheckTol)) {
          ok = false;
          continue;
        }
        sim_us[m][d] = r.value().report.solve_us;
      }
    }
    return ok;
  };
  for (int w = 0; w < kWarmupOps; ++w) {
    LayerClock idle(false);
    if (!sweep(idle)) throw std::runtime_error("warm-up sweep failed");
  }

  const auto start = Clock::now();
  while (s_since(start) < args.seconds) {
    ++o.attempted;
    const auto t0 = Clock::now();
    const bool ok = sweep(trsv);
    const double ms = ms_since(t0);
    if (!ok) {
      ++o.failed;
      o.correct = false;
      continue;
    }
    o.op_ms.push_back(ms);
  }
  o.window_s = s_since(start);

  if (args.trace) {
    Layers l;
    l.build_ms = median(build_ms);
    l.plan_ms = median(plan_ms);
    l.trsv_ms = trsv.mean_ms();
    l.trsv_share_pct = 100.0 * trsv.total_ms() / sum(o.op_ms);
    double log_sum = 0.0;
    for (const Case& c : cases) l.levels += c.levels;
    for (const auto& row : sim_us) log_sum += std::log(row[0] / row[kNumDesigns - 1]);
    l.sim_speedup = std::exp(log_sum / double(sim_us.size()));
    o.layers = layer_metrics(l);
  }
  return o;
}

}  // namespace perfbench
