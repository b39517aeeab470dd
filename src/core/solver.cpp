#include "core/solver.hpp"

#include "core/plan.hpp"
#include "support/contracts.hpp"

namespace msptrsv::core {

std::string backend_name(Backend b) {
  switch (b) {
    case Backend::kSerial: return "serial";
    case Backend::kCpuLevelSet: return "cpu-levelset";
    case Backend::kGpuLevelSet: return "gpu-levelset(csrsv2)";
    case Backend::kMgUnified: return "mg-unified";
    case Backend::kMgUnifiedTask: return "mg-unified+task";
    case Backend::kMgShmem: return "mg-shmem";
    case Backend::kMgZeroCopy: return "mg-zerocopy";
  }
  return "unknown";
}

bool is_simulated(Backend b) {
  switch (b) {
    case Backend::kGpuLevelSet:
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy:
      return true;
    default:
      return false;
  }
}

sparse::Partition partition_for(const SolveOptions& options, index_t n) {
  const int gpus = options.machine.num_gpus();
  switch (options.backend) {
    case Backend::kMgUnified:
    case Backend::kMgShmem:
      return sparse::Partition::block(n, gpus);
    case Backend::kMgUnifiedTask:
    case Backend::kMgZeroCopy:
      return sparse::Partition::round_robin_tasks(n, gpus,
                                                  options.tasks_per_gpu);
    default:
      return sparse::Partition::block(n, 1);
  }
}

namespace {

// The one-shot wrappers run a throwaway plan. They keep the historical
// throwing contract (PreconditionError on bad input) so existing call
// sites migrate to the status channel at their own pace, and they fold the
// plan's one-time analysis charge back into the single report.
SolveResult solve_via_plan(Expected<SolverPlan> plan,
                           std::span<const value_t> b,
                           const SolveOptions& options) {
  SolveResult out = plan.value().solve(b).value();
  if (options.include_analysis) {
    out.report.analysis_us = plan.value().analysis_us();
  }
  return out;
}

}  // namespace

SolveResult solve(const sparse::CscMatrix& lower, std::span<const value_t> b,
                  const SolveOptions& options) {
  // Borrowed: the throwaway plan never outlives this call, so the matrix
  // is not copied (the pre-plan one-shot path made no copy either).
  return solve_via_plan(SolverPlan::analyze_borrowed(lower, options), b,
                        options);
}

SolveResult solve_upper(const sparse::CscMatrix& upper,
                        std::span<const value_t> b,
                        const SolveOptions& options) {
  return solve_via_plan(SolverPlan::analyze_upper(upper, options), b, options);
}

}  // namespace msptrsv::core
