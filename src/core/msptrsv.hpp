// Umbrella header of the msptrsv library: multi-GPU zero-copy sparse
// triangular solver (reproduction of Xie et al., ICPP 2021) plus the
// sparse-matrix and multi-GPU-machine substrates it is built on.
//
// Typical use:
//
//   #include "core/msptrsv.hpp"
//   using namespace msptrsv;
//
//   sparse::CscMatrix L = sparse::gen_layered_dag(1 << 16, 64, 1 << 18,
//                                                 0.5, /*seed=*/42);
//   std::vector<value_t> x_ref = sparse::gen_solution(L.rows, 1);
//   std::vector<value_t> b = sparse::gen_rhs_for_solution(L, x_ref);
//
//   core::SolveOptions opt =
//       core::registry::default_options(core::Backend::kMgZeroCopy);
//   auto plan = core::SolverPlan::analyze(L, opt);   // analysis paid once
//   auto r = plan->solve(b);                          // reusable solves
//   // r->x ~= x_ref; r->report has simulated time, traffic, faults, ...
//   // one-shot: core::SolveResult r1 = core::solve(L, b, opt);
#pragma once

#include "core/autotune.hpp"
#include "core/cpu_parallel.hpp"
#include "core/levelset.hpp"
#include "core/mg_engine.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_snapshot.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "core/residual.hpp"
#include "core/row_form.hpp"
#include "core/solver.hpp"
#include "core/status.hpp"
#include "core/worker_pool.hpp"
#include "core/workspace.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "sim/report.hpp"
#include "sparse/factorization.hpp"
#include "sparse/generators.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/mmio.hpp"
#include "sparse/partition.hpp"
#include "sparse/serialize.hpp"
#include "sparse/suite.hpp"
#include "sparse/triangular.hpp"
#include "support/blob.hpp"

// The one upward edge from this umbrella: the multi-tenant solve service
// layered on top of core (service/ includes core/, never the reverse
// outside this convenience header). Include service/solve_service.hpp
// directly to avoid its <future>/<thread> weight.
#include "service/solve_service.hpp"

namespace msptrsv {

/// Library version, matching the CMake project version.
inline constexpr const char* kVersion = "1.0.0";

}  // namespace msptrsv
