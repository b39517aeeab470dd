// Top-level SpTRSV interface: pick a backend, a machine, and solve.
//
// Backends map one-to-one onto the design points of the paper's Fig. 7
// plus the host baselines:
//   kSerial         one pull sweep on the host, level order inside
//                   windows of consecutive rows (Algorithm 1's
//                   arithmetic, gathered per row)
//   kCpuLevelSet    real-thread level-set (Naumov on the host)
//   kCpuSyncFree    real-thread sync-free (Liu on the host)
//   kCpuTaskGraph   real-thread coarsened task DAG (chain-fused levels)
//   kGpuLevelSet    simulated cuSPARSE csrsv2 (Fig. 10 baseline)
//   kMgUnified      "4GPU-Unified":      Algorithm 2, block distribution
//   kMgUnifiedTask  "4GPU-Unified+task": Algorithm 2 + task pool
//   kMgShmem        "4GPU-Shmem":        Algorithm 3, block distribution
//   kMgZeroCopy     "4GPU-Zerocopy":     Algorithm 3 + task pool
//
// kMgZeroCopy with machine.num_gpus()==1 degenerates to the single-GPU
// sync-free solver (no remote traffic, one task stream).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/comm_nvshmem.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sparse/csc.hpp"
#include "sparse/partition.hpp"
#include "support/numa.hpp"
#include "support/trace.hpp"

namespace msptrsv::core {

enum class Backend {
  kSerial,
  kCpuLevelSet,
  kCpuSyncFree,
  kCpuTaskGraph,
  kGpuLevelSet,
  kMgUnified,
  kMgUnifiedTask,
  kMgShmem,
  kMgZeroCopy,
};

/// Human-readable backend name (used in reports and bench tables).
std::string backend_name(Backend b);

/// True for the backends that run on the simulated machine.
bool is_simulated(Backend b);

struct SolveOptions {
  Backend backend = Backend::kMgZeroCopy;
  /// Machine model for the simulated backends.
  sim::Machine machine = sim::Machine::dgx1(4);
  /// Tasks per GPU for the task-pool backends (Section V; the paper's
  /// default configuration is 8).
  int tasks_per_gpu = 8;
  /// Thread count for the real host backends (0 = hardware concurrency).
  int cpu_threads = 0;
  /// Worker placement for the host gangs (see support::NumaPolicy).
  /// kNone -- the default -- pins nothing and skips the row-form
  /// page-interleave hint: single-node machines run the exact pre-NUMA
  /// code path. Results are bit-identical under every policy (placement
  /// moves bytes, never operations).
  support::NumaPolicy numa_policy = support::NumaPolicy::kNone;
  /// NVSHMEM design ablations (Section IV alternatives).
  NvshmemCommOptions nvshmem;
  /// Include the analysis phase in reported simulated time.
  bool include_analysis = true;
  /// solve_batch execution mode. true (the registry default for every
  /// backend) runs the fused multi-RHS kernel: one dependency resolution
  /// and one sweep over the matrix structure per batch, launches/syncs
  /// amortized across the rhs, report.solve_us = the batch makespan.
  /// false loops single solves (the PR 1 semantics: per-rhs reports
  /// accumulate). Both modes produce bit-for-bit identical x.
  bool fuse_batch = true;
  /// Host-parallel kernel threads come from the process-wide
  /// core::SharedWorkerPool (claimed as a per-solve gang that shrinks
  /// under contention) instead of plan-owned WorkerPools. Caps total host
  /// threads when many plans solve concurrently -- the multi-tenant
  /// service (service::SolveService) turns this on for every plan it
  /// builds. Off by default: a single-plan process keeps its dedicated
  /// full-width gang. Results are bit-identical either way (the pull-based
  /// gather order does not depend on the party count).
  bool use_shared_pool = false;
  /// Execution-time budget in wall-clock seconds per solve/solve_batch
  /// call (0 = unlimited). Unlike a service start-by deadline -- which
  /// only sheds requests BEFORE they run -- the budget is enforced
  /// MID-EXECUTION: the host kernels check a cancellation token at their
  /// level/claim boundaries and the call returns kDeadlineExceeded with
  /// the workspace immediately reusable. Simulated backends check only at
  /// batch entry (their "execution" is an event simulation, not wall
  /// time). When no budget is set the kernels skip every check (one null
  /// test per solve).
  double time_budget = 0.0;
  /// Analyze-time schedule autotuner (registry preset "auto"): the
  /// symbolic phase predicts the k = 1 solve time of serial, flat levels
  /// and the coarsened task graph at every gang width from the level
  /// structure and host costs measured once per process (core/autotune),
  /// keeps serial unless a parallel schedule wins by a fixed margin, and
  /// OVERWRITES `backend`/`cpu_threads` with the decision. `cpu_threads`
  /// is the thread budget going in; a budget of one is always serial.
  /// The choice and its features are recorded in the plan snapshot
  /// (SolverPlan::tuned()) and persist through v3 plan blobs; loading a
  /// blob with autotune set adopts the stored decision instead of
  /// requiring a backend match. Schedule choice never changes bits --
  /// every candidate backend is bit-for-bit identical.
  bool autotune = false;
};

struct SolveResult {
  std::vector<value_t> x;
  /// Filled by simulated backends; solver/machine names always set.
  sim::RunReport report;
  /// Wall-clock seconds for the real host backends (0 for simulated).
  double wall_seconds = 0.0;
  /// Per-phase latency attribution (claim/kernel measured by the host
  /// backends; queue/coalesce/reply stamped by the layers above;
  /// pack/unpack always 0).
  support::trace::PhaseBreakdown phases;
  /// trace_now_ns() at batch completion -- lets the completion pump
  /// attribute the reply phase without re-deriving the finish time.
  std::uint64_t completed_ns = 0;
};

/// One-shot convenience: solves lower * x = b with the configured backend.
/// Thin wrapper over a throwaway SolverPlan (core/plan.hpp) -- it re-runs
/// the analysis phase on every call, so repeated solves against the same
/// factor should build a plan instead. Throws PreconditionError on invalid
/// input (the plan API reports the same conditions as SolveStatus values).
SolveResult solve(const sparse::CscMatrix& lower, std::span<const value_t> b,
                  const SolveOptions& options);

/// One-shot backward substitution: solves upper * x = b by reducing to the
/// lower form (see reference.hpp) and dispatching to the same backend. The
/// reduction happens in the (untimed) analysis phase; wall_seconds and
/// report timings cover only backend execution. Prefer
/// SolverPlan::analyze_upper for repeated solves.
SolveResult solve_upper(const sparse::CscMatrix& upper,
                        std::span<const value_t> b,
                        const SolveOptions& options);

/// The partition a backend/options pair implies for a given n (exposed for
/// footprint estimation and tests).
sparse::Partition partition_for(const SolveOptions& options, index_t n);

}  // namespace msptrsv::core
