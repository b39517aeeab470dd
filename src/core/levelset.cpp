#include "core/levelset.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace msptrsv::core {

sim_time_t levelset_analysis_us(const sparse::CscMatrix& lower,
                                const sim::CostModel& cost) {
  // Analysis phase: level construction makes several passes over the
  // structure (in-degree count + topological bucketing); 3x the streaming
  // in-degree kernel is a conservative model of csrsv2_analysis.
  return 3.0 * cost.indegree_per_nnz_us * static_cast<double>(lower.nnz());
}

sim::RunReport simulate_levelset(const sparse::CscMatrix& lower,
                                 const sparse::LevelAnalysis& analysis,
                                 const sim::Machine& machine,
                                 index_t num_rhs) {
  MSPTRSV_REQUIRE(analysis.n == lower.rows,
                  "level analysis belongs to a different matrix");
  MSPTRSV_REQUIRE(num_rhs >= 1, "batch width must be >= 1");
  const sim::CostModel& cost = machine.cost;
  const double k = static_cast<double>(num_rhs);

  sim::RunReport r;
  r.solver_name = "levelset(csrsv2)";
  r.machine_name = machine.name;
  r.num_gpus = 1;
  r.busy_us_per_gpu.assign(1, 0.0);

  const int slots = cost.warp_slots_per_gpu;
  for (index_t l = 0; l < analysis.num_levels; ++l) {
    const offset_t begin = analysis.level_ptr[static_cast<std::size_t>(l)];
    const offset_t end = analysis.level_ptr[static_cast<std::size_t>(l) + 1];
    double level_work = 0.0;   // total warp-time in the level
    double max_comp = 0.0;     // the unavoidable longest component
    for (offset_t p = begin; p < end; ++p) {
      const index_t i = analysis.order[static_cast<std::size_t>(p)];
      const double nnz_col =
          static_cast<double>(lower.col_ptr[i + 1] - lower.col_ptr[i] - 1);
      // Fused batch: the warp activation (solve_base) is paid once per
      // component per batch; only the floating-point work scales with k.
      const double c = cost.solve_base_us + cost.solve_per_nnz_us * nnz_col * k;
      level_work += c;
      max_comp = std::max(max_comp, c);
    }
    const double width = static_cast<double>(end - begin);
    const double parallel_time =
        std::max(max_comp, level_work / std::min(width, double(slots)));
    // ONE launch + synchronization per level per batch, not per rhs.
    r.solve_us += cost.level_sync_us + parallel_time;
    r.busy_us_per_gpu[0] += level_work;
    r.kernel_launches += 1;
  }
  // Update messages are per edge per batch (each carries the RHS sweep).
  r.local_updates = static_cast<std::uint64_t>(lower.nnz() - lower.rows);
  return r;
}

}  // namespace msptrsv::core
