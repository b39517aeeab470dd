// The preconditioned-CG workloads: SpTRSV as it is used, inside the
// preconditioner of an iterative solver. An IC(0) factor L of a seeded
// SPD grid operator gives the preconditioner M = L L^T; every CG
// iteration applies M^{-1} as a lower plan solve followed by an upper
// plan solve (SolverPlan::analyze / analyze_upper, registry preset
// "auto"). The CG arithmetic itself is plain code of this benchmark.
//
//   pcg        one right-hand side, 24^3 7-point grid: SolverPlan::solve
//   pcg-block  16 right-hand sides at once, 16^3 7-point grid:
//              SolverPlan::solve_batch (fused kernel, interleaved panel)
//
// One operation is one solve to a relative residual of 1e-8 from a zero
// initial guess. Every answer is checked against the true residual
// b - A x computed here.
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "sparse/factorization.hpp"
#include "sparse/level_analysis.hpp"

namespace perfbench {

namespace core = msptrsv::core;
namespace sparse = msptrsv::sparse;

namespace {

struct PcgConfig {
  index_t nx, ny, nz;
  index_t num_rhs;
};

constexpr double kTol = 1e-8;
constexpr double kCheckTol = 1e-6;
constexpr int kMaxIter = 1000;
constexpr int kWarmupOps = 2;

struct Problem {
  sparse::CsrMatrix a;
  std::optional<core::SolverPlan> lower;
  std::optional<core::SolverPlan> upper;
};

/// Generate + factorize + analyze: the whole set-up a PCG user pays.
Problem set_up(const PcgConfig& cfg, std::uint64_t seed, double& build_ms,
               double& plan_ms) {
  const auto t0 = Clock::now();
  Problem p;
  p.a = grid_spd(cfg.nx, cfg.ny, cfg.nz, seed);
  sparse::CscMatrix l = sparse::ic0(p.a);
  sparse::CscMatrix u = sparse::transpose(l);
  build_ms = ms_since(t0);

  const auto t1 = Clock::now();
  const core::SolveOptions opt = core::registry::options_for("auto").value();
  auto lower = core::SolverPlan::analyze(std::move(l), opt);
  auto upper = core::SolverPlan::analyze_upper(std::move(u), opt);
  if (!lower.ok() || !upper.ok()) {
    throw std::runtime_error("analysis failed: " + lower.message() +
                             upper.message());
  }
  p.lower.emplace(std::move(lower).value());
  p.upper.emplace(std::move(upper).value());
  plan_ms = ms_since(t1) / 2.0;
  return p;
}

struct PcgRun {
  int iterations = 0;
  bool ok = false;
};

/// z = M^{-1} r for all k columns (column-major), through the two plans.
bool precondition(const Problem& p, const std::vector<value_t>& r, index_t k,
                  LayerClock& trsv, std::vector<value_t>& z) {
  auto solve = [&](const core::SolverPlan& plan, const std::vector<value_t>& b) {
    return trsv.time([&] {
      return k == 1 ? plan.solve(b) : plan.solve_batch(b, k);
    });
  };
  auto y = solve(*p.lower, r);
  if (!y.ok()) return false;
  auto x = solve(*p.upper, y.value().x);
  if (!x.ok()) return false;
  z = std::move(x.value().x);
  return true;
}

/// Independent CG recurrences on k columns that share each preconditioner
/// application (the batch keeps its full width; converged columns are
/// frozen). Stops when every column has converged.
PcgRun pcg(const Problem& p, const std::vector<value_t>& b, index_t k,
           LayerClock& trsv, std::vector<value_t>& x) {
  const std::size_t n = static_cast<std::size_t>(p.a.rows);
  const std::size_t nk = n * static_cast<std::size_t>(k);
  PcgRun run;
  x.assign(nk, 0.0);
  std::vector<value_t> r = b, z, pdir, q(n);
  std::vector<double> rz(k), bnorm(k);
  std::vector<char> active(k, 1);
  auto col = [&](std::vector<value_t>& v, index_t j) {
    return std::span<value_t>(v).subspan(static_cast<std::size_t>(j) * n, n);
  };
  if (!precondition(p, r, k, trsv, z)) return run;
  pdir = z;
  for (index_t j = 0; j < k; ++j) {
    rz[j] = dot(col(r, j), col(z, j));
    bnorm[j] = std::sqrt(dot(col(r, j), col(r, j)));
  }
  for (int it = 1; it <= kMaxIter; ++it) {
    int still_active = 0;
    for (index_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      auto pj = col(pdir, j), xj = col(x, j), rj = col(r, j);
      spmv(p.a, pj, q);
      const double alpha = rz[j] / dot(pj, q);
      for (std::size_t i = 0; i < n; ++i) {
        xj[i] += alpha * pj[i];
        rj[i] -= alpha * q[i];
      }
      if (std::sqrt(dot(rj, rj)) <= kTol * bnorm[j]) {
        active[j] = 0;
      } else {
        ++still_active;
      }
    }
    if (still_active == 0) {
      run.iterations = it;
      run.ok = true;
      return run;
    }
    if (!precondition(p, r, k, trsv, z)) return run;
      for (index_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      auto pj = col(pdir, j), zj = col(z, j);
      const double rz_new = dot(col(r, j), zj);
      const double beta = rz_new / rz[j];
      rz[j] = rz_new;
      for (std::size_t i = 0; i < n; ++i) pj[i] = zj[i] + beta * pj[i];
    }
  }
  return run;
}

/// True when every column of x solves A x = b to kCheckTol (relative
/// 2-norm of the true residual).
bool check(const sparse::CsrMatrix& a, const std::vector<value_t>& b,
           const std::vector<value_t>& x, index_t k) {
  const std::size_t n = static_cast<std::size_t>(a.rows);
  std::vector<value_t> ax(n);
  for (index_t j = 0; j < k; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * n;
    spmv(a, std::span<const value_t>(x).subspan(off, n), ax);
    double rr = 0.0, bb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = b[off + i] - ax[i];
      rr += d * d;
      bb += b[off + i] * b[off + i];
    }
    if (!(std::sqrt(rr) <= kCheckTol * std::sqrt(bb))) return false;
  }
  return true;
}

Outcome run(const Args& args, const PcgConfig& cfg) {
  Outcome o;
  std::vector<double> build_ms, plan_ms;
  Problem p;
  for (int s = 0; s < kSetups; ++s) {
    p = Problem{};  // the previous set-up is torn down before timing the next
    double b_ms = 0.0, p_ms = 0.0;
    const auto t0 = Clock::now();
    p = set_up(cfg, args.seed, b_ms, p_ms);
    o.setup_s.push_back(s_since(t0));
    build_ms.push_back(b_ms);
    plan_ms.push_back(p_ms);
  }

  const std::size_t nk =
      static_cast<std::size_t>(p.a.rows) * static_cast<std::size_t>(cfg.num_rhs);
  // A small pool of seeded right-hand-side blocks, cycled through.
  std::vector<std::vector<value_t>> rhs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    rhs.push_back(random_vector(nk, args.seed * 1000003 + i));
  }

  LayerClock trsv(args.trace);
  std::vector<value_t> x;
  for (int w = 0; w < kWarmupOps; ++w) {
    LayerClock idle(false);
    if (!pcg(p, rhs[w % rhs.size()], cfg.num_rhs, idle, x).ok) {
      throw std::runtime_error("warm-up solve did not converge");
    }
  }

  std::vector<double> iterations;
  const auto start = Clock::now();
  while (s_since(start) < args.seconds) {
    const std::vector<value_t>& b = rhs[o.attempted % rhs.size()];
    ++o.attempted;
    const auto t0 = Clock::now();
    const PcgRun r = pcg(p, b, cfg.num_rhs, trsv, x);
    const double ms = ms_since(t0);
    if (!r.ok || !check(p.a, b, x, cfg.num_rhs)) {
      ++o.failed;
      o.correct = false;
      continue;
    }
    o.op_ms.push_back(ms);
    iterations.push_back(r.iterations);
  }
  o.window_s = s_since(start);

  if (args.trace) {
    Layers l;
    l.build_ms = median(build_ms);
    l.plan_ms = median(plan_ms);
    l.trsv_ms = trsv.mean_ms();
    l.trsv_share_pct = 100.0 * trsv.total_ms() / sum(o.op_ms);
    l.iterations = median(iterations);
    l.levels = sparse::analyze_levels(p.lower->factor()).num_levels;
    o.layers = layer_metrics(l);
  }
  return o;
}

}  // namespace

Outcome run_pcg(const Args& args) {
  return run(args, PcgConfig{.nx = 24, .ny = 24, .nz = 24, .num_rhs = 1});
}

Outcome run_pcg_block(const Args& args) {
  return run(args, PcgConfig{.nx = 16, .ny = 16, .nz = 16, .num_rhs = 16});
}

}  // namespace perfbench
