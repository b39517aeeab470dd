// The analyze-time schedule autotuner: measured host costs in, a
// TunedDecision out.
//
// The decision follows the paper's rule that fine-grained synchronization
// has to pay for itself. Three costs are timed ONCE per process on a
// small fixed calibration factor (measured_host_costs), each over the
// row form in the order its plans store it: the serial sweep's ns per
// nonzero (windowed level order), the parallel kernels' level-ordered
// gather's ns per nonzero, and a real gang's effective per-level sync at
// each width 2..hardware threads, timed with the kernel's own work
// between barriers so wake-ups and imbalance are in it. From those and
// the factor's level structure the tuner predicts the k = 1 solve time
// of serial, of flat level sets and of the coarsened task graph at every
// gang width, and keeps serial unless a parallel schedule is predicted
// to beat it by kParallelWinMargin. A one-thread budget is always
// serial.
//
// autotune_decision is a pure function of (levels, costs, thread budget),
// so tests pin every branch with injected costs; ScopedHostCosts swaps the
// process-wide costs for the plan-level paths. Every candidate backend is
// bit-for-bit identical, so the tuner only ever costs or saves time.
#pragma once

#include "core/plan_snapshot.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/task_graph.hpp"

namespace msptrsv::core {

/// A parallel schedule must be predicted at least this many times faster
/// than serial before the tuner picks it: the model is coarse, and a
/// wrong parallel pick costs far more than a missed one.
inline constexpr double kParallelWinMargin = 1.25;

/// This process's host costs: measured on first use (about 10 ms on a
/// 4-vCPU VM) for gang widths 2..resolve_cpu_threads(0) and cached,
/// unless a ScopedHostCosts override is alive.
const sparse::HostCosts& measured_host_costs();

/// Test seam: while alive, measured_host_costs() returns `costs`. Not
/// thread-safe against concurrent analyses; scope it around them.
class ScopedHostCosts {
 public:
  explicit ScopedHostCosts(sparse::HostCosts costs);
  ~ScopedHostCosts();
  ScopedHostCosts(const ScopedHostCosts&) = delete;
  ScopedHostCosts& operator=(const ScopedHostCosts&) = delete;

 private:
  sparse::HostCosts costs_;
  const sparse::HostCosts* previous_;
};

/// The decision for a factor with level structure `levels` under `costs`
/// and a budget of `thread_budget` host threads (resolved, >= 1). Gang
/// widths beyond costs.max_width() are never candidates. The returned
/// coarsening thresholds are the chosen gang width's (for a serial pick:
/// the widest candidate's, for the record).
TunedDecision autotune_decision(const sparse::LevelAnalysis& levels,
                                const sparse::HostCosts& costs,
                                int thread_budget);

}  // namespace msptrsv::core
