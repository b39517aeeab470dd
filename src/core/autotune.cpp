#include "core/autotune.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "core/cpu_parallel.hpp"
#include "core/row_form.hpp"
#include "core/workspace.hpp"
#include "sparse/generators.hpp"

namespace msptrsv::core {

namespace {

/// One level's share of a prediction: its rows and stored nonzeros.
struct LevelLoad {
  double rows = 0.0;
  double nnz = 0.0;
};

std::vector<LevelLoad> level_loads(const sparse::LevelAnalysis& levels) {
  std::vector<LevelLoad> out(static_cast<std::size_t>(levels.num_levels));
  for (std::size_t l = 0; l < out.size(); ++l) {
    for (offset_t p = levels.level_ptr[l]; p < levels.level_ptr[l + 1]; ++p) {
      const index_t i = levels.order[static_cast<std::size_t>(p)];
      out[l].rows += 1.0;
      // Row i stores its in_degree(i) off-diagonals plus the diagonal.
      out[l].nnz += levels.in_degree[static_cast<std::size_t>(i)] + 1.0;
    }
  }
  return out;
}

/// The slowest party's gather time summed over levels: a w-party gang
/// splits each level into w contiguous slices, so a level lasts
/// ceil(rows / w) of its average rows.
double gang_work_ns(const std::vector<LevelLoad>& loads, double gather_ns,
                    int width) {
  double ns = 0.0;
  for (const LevelLoad& l : loads) {
    ns += std::ceil(l.rows / width) * (l.nnz / l.rows) * gather_ns;
  }
  return ns;
}

/// Flat level sets (cpu-levelset): every level pays one gang sync.
double levelset_ns(const std::vector<LevelLoad>& loads,
                   const HostCosts& costs, int width) {
  return gang_work_ns(loads, costs.gather_ns_per_nnz, width) +
         static_cast<double>(loads.size()) * costs.sync_ns(width);
}

using Clock = std::chrono::steady_clock;

/// Median wall time of `reps` calls of fn in ns, after one warm-up call
/// (which also materializes a workspace's threads and scratch).
template <typename F>
double median_ns(int reps, F&& fn) {
  fn();
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (double& v : t) {
    const auto t0 = Clock::now();
    fn();
    v = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }
  std::nth_element(t.begin(), t.begin() + reps / 2, t.end());
  return t[static_cast<std::size_t>(reps / 2)];
}

/// Gang widths the calibration times: every width up to 8, then two per
/// doubling (12, 16, 24, 32, ...), and the widest; the rest interpolate.
bool timed_width(int w, int max_width) {
  if (w <= 8 || w == max_width) return true;
  int p = 8;
  while (p * 2 <= w) p *= 2;
  return w == p || w == p + p / 2;
}

/// Times the three host costs on the calibration factor, gang widths
/// 2..max_width.
HostCosts measure_host_costs(int max_width) {
  // The calibration factor: the 7-point stencil's lower factor on a 16^3
  // grid -- 4096 rows, 46 levels, ~15.6k nonzeros, cache resident. Its
  // levels are tens to a few hundred rows, the regime where a barrier
  // has to pay for itself.
  const sparse::CscMatrix lower = sparse::gen_grid3d_lower(16, 16, 16);
  const sparse::LevelAnalysis levels =
      sparse::analyze_levels(lower, /*validate=*/false);
  // The two execution orders the plans store: serial's windowed level
  // order and the level-set gang's plain level order.
  const RowForm serial_rows =
      build_row_form(lower, serial_row_order(levels), /*mirrored=*/false);
  const RowForm level_rows =
      build_row_form(lower, levels.order, /*mirrored=*/false);
  const double nnz = static_cast<double>(lower.nnz());
  const std::vector<value_t> b(static_cast<std::size_t>(lower.rows), 1.0);
  std::vector<value_t> x(b.size());
  constexpr int kReps = 9;

  HostCosts costs;
  costs.serial_ns_per_nnz =
      median_ns(kReps,
                [&] { solve_lower_serial_pull(serial_rows, b, 1, x); }) /
      nnz;
  // The level-set kernel on one party: its level-ordered sweep, with
  // nobody to wait for at its barriers -- the work the gang's
  // predictions divide among its parties.
  SolveWorkspace solo(1);
  costs.gather_ns_per_nnz =
      median_ns(kReps,
                [&] {
                  solve_lower_levelset_fused(level_rows, b, 1,
                                             levels.level_ptr, solo, x);
                }) /
      nnz;

  // A real gang on the real level-set kernel: whatever the sweep costs
  // beyond its slowest party's gather work is the per-level sync.
  const std::vector<LevelLoad> loads = level_loads(levels);
  costs.level_sync_ns.assign(
      static_cast<std::size_t>(std::max(max_width, 1)) + 1, 0.0);
  int prev = 0;  // last timed width
  for (int w = 2; w <= max_width; ++w) {
    if (!timed_width(w, max_width)) continue;
    SolveWorkspace gang(w);
    const double sweep = median_ns(kReps, [&] {
      solve_lower_levelset_fused(level_rows, b, 1, levels.level_ptr, gang,
                                 x);
    });
    const double work = gang_work_ns(loads, costs.gather_ns_per_nnz, w);
    costs.level_sync_ns[static_cast<std::size_t>(w)] =
        std::max(0.0, (sweep - work) / levels.num_levels);
    for (int v = prev + 1; prev >= 2 && v < w; ++v) {
      const double f = static_cast<double>(v - prev) / (w - prev);
      costs.level_sync_ns[static_cast<std::size_t>(v)] =
          (1.0 - f) * costs.level_sync_ns[static_cast<std::size_t>(prev)] +
          f * costs.level_sync_ns[static_cast<std::size_t>(w)];
    }
    prev = w;
  }
  return costs;
}

std::atomic<const HostCosts*> g_override{nullptr};

}  // namespace

double HostCosts::sync_ns(int width) const {
  if (width < 2 || level_sync_ns.size() < 3) return 0.0;
  return level_sync_ns[static_cast<std::size_t>(std::min(width, max_width()))];
}

const HostCosts& measured_host_costs() {
  if (const HostCosts* o = g_override.load(std::memory_order_acquire)) {
    return *o;
  }
  static const HostCosts costs =
      measure_host_costs(resolve_cpu_threads(0));
  return costs;
}

ScopedHostCosts::ScopedHostCosts(HostCosts costs)
    : costs_(std::move(costs)),
      previous_(g_override.exchange(&costs_, std::memory_order_acq_rel)) {}

ScopedHostCosts::~ScopedHostCosts() {
  g_override.store(previous_, std::memory_order_release);
}

TunedDecision autotune_decision(const sparse::LevelAnalysis& levels,
                                const HostCosts& costs, int thread_budget) {
  TunedDecision d;
  d.autotuned = true;
  d.backend = Backend::kSerial;
  d.gang_width = 1;
  const int widest = std::min(thread_budget, costs.max_width());
  if (levels.n > 0 && widest >= 2) {
    const std::vector<LevelLoad> loads = level_loads(levels);
    // Serial's predicted time, discounted by the margin: the bar every
    // gang width has to clear.
    double best_ns = static_cast<double>(levels.nnz) *
                     costs.serial_ns_per_nnz / kParallelWinMargin;
    for (int w = 2; w <= widest; ++w) {
      const double ns = levelset_ns(loads, costs, w);
      if (ns < best_ns) {
        best_ns = ns;
        d.backend = Backend::kCpuLevelSet;
        d.gang_width = w;
      }
    }
  }
  return d;
}

}  // namespace msptrsv::core
