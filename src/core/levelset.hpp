// Simulated single-GPU level-set solver -- the cuSPARSE csrsv2() stand-in
// the paper's Fig. 10 normalizes against (Naumov's level-scheduling: one
// kernel + device synchronization per level).
//
// This is the cost model only. A gpu-levelset SolverPlan's x is the
// natural-order column sweep's (Algorithm 1): the plan runs the serial
// pull kernel over a row form whose entries ascend by column, which adds
// every row's terms in the order that sweep pushes them.
#pragma once

#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sparse/csc.hpp"
#include "sparse/level_analysis.hpp"

namespace msptrsv::core {

/// The simulated cost of one fused level-set solve of `num_rhs` right-hand
/// sides on one GPU of `machine`, against a precomputed level analysis
/// (the csrsv2 analyze/solve split):
///   solve time = sum over levels of
///     [per-level kernel-launch+sync overhead +
///      level work spread over the GPU's warp slots]
/// All rhs ride in ONE kernel per level, so the per-level launch +
/// synchronization overhead is paid once per level per batch -- not once
/// per level per rhs -- and only the floating-point work scales with the
/// batch. Dependency-update counts are likewise per-edge, not
/// per-edge-per-rhs (one update message carries the whole RHS sweep).
/// The analysis phase is never charged here (the plan owns the one-time
/// charge, levelset_analysis_us).
sim::RunReport simulate_levelset(const sparse::CscMatrix& lower,
                                 const sparse::LevelAnalysis& analysis,
                                 const sim::Machine& machine, index_t num_rhs);

/// Simulated cost of the csrsv2_analysis-style level construction (several
/// passes over the structure; see the implementation note) -- substantially
/// more expensive than the sync-free in-degree count, one of the paper's
/// motivations for sync-free execution.
sim_time_t levelset_analysis_us(const sparse::CscMatrix& lower,
                                const sim::CostModel& cost);

}  // namespace msptrsv::core
