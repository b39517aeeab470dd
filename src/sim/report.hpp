// Run report: everything a simulated solve tells you besides the answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace msptrsv::sim {

struct RunReport {
  std::string solver_name;
  std::string machine_name;
  int num_gpus = 1;

  /// Total simulated time of the solver phase. For a batch this is the
  /// amortized makespan of its one fused solve. Launch/update counters
  /// follow the same convention: a batch counts one kernel per level/task
  /// and one update message per edge, not per rhs.
  sim_time_t solve_us = 0.0;
  /// Simulated time of the preprocessing (in-degree / level analysis).
  /// Under the phase-split API this is charged exactly once: a
  /// SolverPlan's per-solve reports carry 0 here and the plan owns the
  /// analysis charge; the one-shot wrappers fold it back in.
  sim_time_t analysis_us = 0.0;
  sim_time_t total_us() const { return solve_us + analysis_us; }

  /// Right-hand sides this report covers (> 1 for solve_batch).
  int num_rhs = 1;
  /// Simulated time of the slowest single solve this report covers: a
  /// batch is ONE fused solve, so this equals solve_us.
  sim_time_t max_solve_us = 0.0;

  /// Per-GPU busy time of warp slots (computation only).
  std::vector<sim_time_t> busy_us_per_gpu;

  /// Dependency-update traffic classification.
  std::uint64_t local_updates = 0;
  std::uint64_t remote_updates = 0;

  /// Unified-memory counters (zero for NVSHMEM runs).
  std::uint64_t page_faults = 0;
  std::uint64_t page_migrations = 0;
  double page_migrated_bytes = 0.0;
  std::vector<std::uint64_t> page_faults_per_gpu;
  /// Thrashing-mitigation counters (driver pins, peer-mapped accesses).
  std::uint64_t page_pins = 0;
  std::uint64_t direct_remote_accesses = 0;

  /// NVSHMEM counters (zero for unified-memory runs). Counts follow the
  /// fused-batch convention (one op per edge/gather per batch); byte
  /// totals price each value-carrying payload at the batch width k --
  /// a fused update message moves k left-sum partials, not one.
  std::uint64_t nvshmem_gets = 0;
  std::uint64_t nvshmem_puts = 0;
  std::uint64_t nvshmem_fences = 0;
  std::uint64_t gather_reductions = 0;
  double nvshmem_bytes = 0.0;

  /// Interconnect totals. Like nvshmem_bytes, link_bytes scale value
  /// payloads (migrated left_sum pages, one-sided value traffic) by the
  /// fused-batch width while link_messages stay per-edge.
  double link_bytes = 0.0;
  std::uint64_t link_messages = 0;

  /// Kernel launches issued (1 per task per GPU in the task model).
  std::uint64_t kernel_launches = 0;

  /// max/mean of per-GPU busy time; 1.0 is perfectly balanced.
  double load_imbalance() const;
  /// Mean per-GPU busy warp-time divided by the makespan: the average
  /// number of concurrently active warps per GPU (can exceed 1; the
  /// paper's "utilization of GPUs" up to warp_slots_per_gpu).
  double utilization() const;

  std::string summary() const;
};

}  // namespace msptrsv::sim
