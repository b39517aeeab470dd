// The analyze-time schedule autotuner: measured host costs in, a
// TunedDecision out.
//
// The decision follows the paper's rule that fine-grained synchronization
// has to pay for itself. Three costs are timed ONCE per process on a
// small fixed calibration factor (measured_host_costs), each over the
// row form in the order its plans store it: the serial sweep's ns per
// nonzero (windowed level order), the level-set kernel's ns per nonzero
// on one party (plain level order, nobody to wait for at a barrier),
// and a real gang's effective per-level sync at each width 2..hardware
// threads, timed with the kernel's own work between barriers so
// wake-ups and imbalance are in it. From those and the factor's level structure the tuner predicts
// the k = 1 solve time of serial and of the level-set gang at every
// width, and keeps serial unless the gang is predicted to beat it by
// kParallelWinMargin. A one-thread budget is always serial.
//
// autotune_decision is a pure function of (levels, costs, thread budget),
// so tests pin every branch with injected costs; ScopedHostCosts swaps the
// process-wide costs for the plan-level paths. Both candidates are
// bit-for-bit identical, so the tuner only ever costs or saves time.
#pragma once

#include <vector>

#include "core/plan_snapshot.hpp"
#include "sparse/level_analysis.hpp"

namespace msptrsv::core {

/// Measured host execution costs, the inputs of the tuner's predicted
/// solve times. Timed once per process on a fixed calibration factor
/// (measured_host_costs); tests inject their own.
struct HostCosts {
  /// Serial sweep over its windowed level order (serial_row_order), ns
  /// per stored nonzero (k = 1).
  double serial_ns_per_nnz = 0.0;
  /// The level-set kernel's level-ordered sweep on one party, ns per
  /// stored nonzero (k = 1).
  double gather_ns_per_nnz = 0.0;
  /// Effective cost of one level of a real gang at width w, in ns, at
  /// index w (indices 0 and 1 unused): what a barrier costs with work
  /// between barriers, so wake-ups and imbalance are in it.
  std::vector<double> level_sync_ns;

  /// Widest gang with a measured sync cost (1 when none was measured).
  int max_width() const {
    return level_sync_ns.size() < 3
               ? 1
               : static_cast<int>(level_sync_ns.size()) - 1;
  }
  /// Per-level sync at `width`, clamped into the measured range; 0 for a
  /// one-party gang.
  double sync_ns(int width) const;
};

/// A parallel schedule must be predicted at least this many times faster
/// than serial before the tuner picks it: the model is coarse, and a
/// wrong parallel pick costs far more than a missed one.
inline constexpr double kParallelWinMargin = 1.25;

/// This process's host costs: measured on first use (about 10 ms on a
/// 4-vCPU VM) for gang widths 2..resolve_cpu_threads(0) and cached,
/// unless a ScopedHostCosts override is alive.
const HostCosts& measured_host_costs();

/// Test seam: while alive, measured_host_costs() returns `costs`. Not
/// thread-safe against concurrent analyses; scope it around them.
class ScopedHostCosts {
 public:
  explicit ScopedHostCosts(HostCosts costs);
  ~ScopedHostCosts();
  ScopedHostCosts(const ScopedHostCosts&) = delete;
  ScopedHostCosts& operator=(const ScopedHostCosts&) = delete;

 private:
  HostCosts costs_;
  const HostCosts* previous_;
};

/// The decision for a factor with level structure `levels` under `costs`
/// and a budget of `thread_budget` host threads (resolved, >= 1): serial,
/// or cpu-levelset at the gang width predicted fastest. Gang widths
/// beyond costs.max_width() are never candidates.
TunedDecision autotune_decision(const sparse::LevelAnalysis& levels,
                                const HostCosts& costs,
                                int thread_budget);

}  // namespace msptrsv::core
