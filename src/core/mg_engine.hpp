// The multi-GPU synchronization-free execution engine.
//
// Both multi-GPU designs of the paper (Unified Memory, Algorithm 2, and
// NVSHMEM zero-copy, Algorithm 3) share the same skeleton: every component
// is activated up front (inside its task's kernel), spins in a lock-wait
// phase until its in-degree is satisfied, then solves and pushes updates to
// its dependents. They differ ONLY in how a dependency update crosses the
// GPU boundary and what the solver pays to read the gathered state. The
// engine factors that difference into a CommPolicy.
//
// The engine is a deterministic discrete-event list scheduler that
// accounts simulated time and does no arithmetic:
//  - each GPU is a multi-server resource of `warp_slots_per_gpu` slots;
//  - each task (Section V) is a kernel whose launch is serialized on its
//    GPU's stream, delaying its components by the launch overhead;
//  - a component becomes ready at the latest *visibility* time of its
//    dependency updates, as decided by the CommPolicy;
//  - solving costs solve_base + solve_per_nnz * nnz(column).
// Its schedule is a pure function of the factor's structure, the
// partition, the machine and the cost width -- never of b or the factor's
// values -- so it returns the order in which it solved the components.
// Each component computes x_i = (b_i - left_sum_i) / diag and then pushes
// val * x_i into its dependents' left sums, so a row's left sum adds its
// terms in the order the schedule solved their columns. A SolverPlan
// simulates its one-rhs schedule once, stores the factor as a row form in
// that order with each row's entries in that push order
// (EntryOrder::kSolveOrder, row_form.hpp), and replays the numerics on
// every solve through the serial pull kernel: a pull that gathers a row's
// terms in the order they were pushed gives the push's bits.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/interconnect.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sparse/csc.hpp"
#include "sparse/partition.hpp"

namespace msptrsv::core {

/// Outcome of pushing one dependency update.
struct UpdateTiming {
  /// When the producing warp is free to issue its next update (updates of
  /// one component are issued by one warp, hence serialized; a stalled
  /// system-scope atomic or a fenced RMW chain blocks the producer).
  sim_time_t producer_done = 0.0;
  /// When the dependent's lock-wait loop can observe the update.
  sim_time_t visible = 0.0;
};

/// How dependency information crosses GPUs. Implementations are stateful
/// per run (they own the memory-system models and their counters).
class CommPolicy {
 public:
  virtual ~CommPolicy() = default;

  virtual std::string name() const = 0;

  /// An update for dependent `dep` (owned by `dst_gpu`) is issued on
  /// `src_gpu` at time `issue`. `is_final` marks the update that satisfies
  /// the dependent's last outstanding dependency (its poll loop will exit
  /// on observing it). Implementations book any traffic the update
  /// generates.
  virtual UpdateTiming push_update(int src_gpu, int dst_gpu, index_t dep,
                                   sim_time_t issue, bool is_final) = 0;

  /// Component `comp` on `gpu` leaves its lock-wait loop at `start`;
  /// `remote_gpus` lists the GPUs that contributed remote updates to it.
  /// Returns the time at which its intermediate state (final in-degree
  /// confirmation + left_sum partials) is assembled and solving can begin.
  virtual sim_time_t gather_before_solve(int gpu, index_t comp,
                                         std::span<const int> remote_gpus,
                                         sim_time_t start) = 0;

  /// Copies the policy's counters into the run report.
  virtual void fill_report(sim::RunReport& report) const = 0;
};

struct EngineOptions {
  /// Include the in-degree preprocessing phase in the report (the paper
  /// sums analysis + solve for its designs).
  bool include_analysis = true;
  /// Precomputed per-component in-degrees (the output of the analysis
  /// phase, sparse::compute_in_degrees). When set the engine copies them
  /// instead of recomputing, and skips input revalidation: the analysis
  /// that produced them already established the solvable-lower invariants.
  /// This is the reuse path of SolverPlan (analyze once, solve many).
  const std::vector<index_t>* in_degrees = nullptr;
  /// Fused-batch COST width: how many rhs each component's kernel carries
  /// in the cost model. Scales the per-component floating-point work
  /// (solve_per_nnz) while kernel launches, lock-waits, gathers and
  /// dependency-update messages stay per-component/per-edge -- the
  /// amortization the fused kernel exists for. It changes the timing and
  /// so the solve order: the numerics replay the cost_rhs = 1 order at
  /// every batch width, which is what makes fused x equal looped x.
  index_t cost_rhs = 1;
};

struct EngineResult {
  sim::RunReport report;
  /// The n components in the order the engine solved them: a topological
  /// order of the factor, and the order every component pushes its
  /// updates in.
  std::vector<index_t> order;
};

/// Runs the engine. `net` must be freshly constructed (or reset) for the
/// machine's topology; the CommPolicy must wrap the same `net`.
EngineResult run_mg_engine(const sparse::CscMatrix& lower,
                           const sparse::Partition& partition,
                           const sim::Machine& machine, sim::Interconnect& net,
                           CommPolicy& comm, const EngineOptions& opts = {});

/// Simulated cost of the in-degree preprocessing pass under `partition`:
/// every GPU streams its own columns in parallel, so the slowest GPU bounds
/// the phase. Exposed so SolverPlan can charge the analysis phase once and
/// reuse its output across solves.
sim_time_t engine_analysis_us(const sparse::CscMatrix& lower,
                              const sparse::Partition& partition,
                              const sim::CostModel& cost);

}  // namespace msptrsv::core
