#include "core/plan.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <utility>

#include "core/autotune.hpp"
#include "core/comm_nvshmem.hpp"
#include "core/comm_unified.hpp"
#include "core/cpu_parallel.hpp"
#include "core/levelset.hpp"
#include "core/mg_engine.hpp"
#include "core/plan_snapshot.hpp"
#include "core/reference.hpp"
#include "core/row_form.hpp"
#include "core/workspace.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/serialize.hpp"
#include "sparse/triangular.hpp"
#include "support/blob.hpp"
#include "support/contracts.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace msptrsv::core {

namespace {

using steady_clock = std::chrono::steady_clock;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

double us_since(steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(steady_clock::now() - t0)
      .count();
}

/// What a fired token means for the caller: a passed deadline is the
/// time_budget contract (kDeadlineExceeded); a raised flag with no passed
/// deadline is an administrative abandon (service shutdown), which reports
/// kOverloaded like every other shutting-down refusal.
Expected<SolveResult> cancel_error(const CancelToken& cancel) {
  if (cancel.deadline_expired()) {
    return Expected<SolveResult>(
        SolveStatus::kDeadlineExceeded,
        "execution time budget exhausted mid-solve (the partial solution "
        "was discarded; the plan remains usable)");
  }
  return Expected<SolveResult>(
      SolveStatus::kOverloaded,
      "solve abandoned: cancellation requested (service shutting down)");
}

/// Best-effort page-placement hint for the host-parallel gather view: the
/// row form's value/index arrays are the big shared READ-ONLY streams of
/// every solve, and with no hint they home entirely on the node of the
/// thread that built them. MPOL_INTERLEAVE spreads their pages so each
/// socket's memory controllers serve an equal share of the gather
/// traffic. No-op without a policy, on single-node machines, and on
/// non-Linux builds (see support/numa.hpp).
void apply_numa_hints(const SolveOptions& options, RowForm& rf) {
  if (options.numa_policy == support::NumaPolicy::kNone) return;
  support::interleave_pages(rf.val.data(), rf.val.size() * sizeof(value_t));
  support::interleave_pages(rf.col_idx.data(),
                            rf.col_idx.size() * sizeof(index_t));
}

bool backend_is_multi_gpu(Backend b) {
  switch (b) {
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy:
      return true;
    default:
      return false;
  }
}

bool backend_is_host_parallel(Backend b) {
  return b == Backend::kCpuLevelSet || b == Backend::kCpuSyncFree ||
         b == Backend::kCpuTaskGraph;
}

/// The host backends that solve through the row-form gather view: serial
/// and every host-parallel schedule. Each keeps its level analysis, the
/// source of the row form's execution order.
bool backend_uses_row_form(Backend b) {
  return b == Backend::kSerial || backend_is_host_parallel(b);
}

/// (Re)builds `snap`'s row form from `lower` in the order its backend
/// executes: serial sweeps level order inside windows of consecutive rows
/// (serial_row_order), the parallel schedules plain level order. An upper
/// plan's form is mirrored into the caller's numbering.
void build_plan_row_form(const SolveOptions& options,
                         const sparse::CscMatrix& lower, PlanSnapshot& snap) {
  const sparse::LevelAnalysis& levels = *snap.levels;
  snap.row_form = options.backend == Backend::kSerial
                      ? build_row_form(lower, serial_row_order(levels),
                                       snap.upper)
                      : build_row_form(lower, levels.order, snap.upper);
  apply_numa_hints(options, *snap.row_form);
}

/// Reverses each length-n column of a column-major batch in place: the
/// simulated backends solve an upper plan's reversed lower form.
void reverse_columns(std::span<value_t> batch, std::size_t n) {
  for (auto col = batch.begin(); col != batch.end(); col += n) {
    std::reverse(col, col + static_cast<std::ptrdiff_t>(n));
  }
}

/// One fused host-parallel kernel run over `snap`'s row form; `b`/`x`
/// are column-major n x num_rhs.
bool run_host_parallel(Backend backend, const PlanSnapshot& snap,
                       const sparse::CscMatrix& lower,
                       std::span<const value_t> b, index_t num_rhs,
                       SolveWorkspace& ws, std::span<value_t> x,
                       const CancelToken* cancel) {
  const RowForm& rows = *snap.row_form;
  const sparse::LevelAnalysis& levels = *snap.levels;
  switch (backend) {
    case Backend::kCpuLevelSet:
      return solve_lower_levelset_fused(rows, b, num_rhs, levels, ws, x,
                                        cancel);
    case Backend::kCpuSyncFree:
      return solve_lower_syncfree_fused(lower, rows, levels.order, b, num_rhs,
                                        snap.in_degrees, ws, x, cancel);
    default:  // Backend::kCpuTaskGraph
      return solve_lower_taskgraph_fused(*snap.tasks, rows, b, num_rhs, ws, x,
                                         cancel);
  }
}

/// One event simulation of a multi-GPU plan at fused cost width
/// `cost_rhs`: the timing of a k-rhs batch, or at width 1 the schedule
/// whose order the numerics replay. The policies are stateful per run, so
/// every simulation builds a fresh interconnect and comm model (also what
/// makes concurrent simulations safe).
EngineResult simulate_mg(const SolveOptions& options, const PlanSnapshot& snap,
                         const sparse::CscMatrix& lower, index_t cost_rhs) {
  const sim::Machine& machine = options.machine;
  const sparse::Partition& partition = *snap.partition;
  sim::Interconnect net(machine.topology, machine.cost);
  EngineOptions eng;
  eng.include_analysis = false;  // charged once by the plan
  eng.in_degrees = &snap.in_degrees;
  eng.cost_rhs = cost_rhs;
  // The comm policy carries the fused-batch width so every value-carrying
  // payload (managed left_sum pages, one-sided left_sum gathers/puts) is
  // priced k values wide while message counts stay per-edge.
  if (options.backend == Backend::kMgUnified ||
      options.backend == Backend::kMgUnifiedTask) {
    UnifiedComm comm(net, machine.cost, partition.num_gpus(), lower.rows,
                     cost_rhs);
    return run_mg_engine(lower, partition, machine, net, comm, eng);
  }
  NvshmemComm comm(net, machine.cost, partition.num_gpus(), lower.rows,
                   options.nvshmem, cost_rhs);
  return run_mg_engine(lower, partition, machine, net, comm, eng);
}

/// Coarsening thresholds for a cpu-taskgraph plan that has no pinned
/// ones: the narrow cut this process's measured costs give its gang.
sparse::CoarsenOptions measured_coarsening(const sparse::LevelAnalysis& levels,
                                           int cpu_threads) {
  return sparse::resolve_coarsen_options({}, levels, measured_host_costs(),
                                         resolve_cpu_threads(cpu_threads));
}

}  // namespace

struct SolverPlan::State {
  /// Owned factor storage. Borrowed plans (analyze_borrowed /
  /// load_borrowed) leave it empty and point `lower` at the caller's
  /// matrix instead.
  sparse::CscMatrix storage;
  /// The lower-triangular factor solves execute against; always non-null
  /// on a constructed plan.
  const sparse::CscMatrix* lower = nullptr;
  SolveOptions options;
  /// The whole symbolic result in its explicit, serializable form:
  /// orientation flag, partition, in-degrees, level analysis, row-form
  /// gather view, and the one-time simulated analysis charge. save()/
  /// load() round-trip exactly this plus the factor.
  PlanSnapshot snapshot;
  double analysis_seconds = 0.0;
  /// Wall seconds spent restoring the plan from a blob (load paths only).
  double load_seconds = 0.0;
  /// Persistent execution state of the host-parallel backends: leased
  /// workspaces carrying parked worker threads and generation-tagged
  /// scratch. Internally synchronized; null for other backends.
  std::unique_ptr<WorkspacePool> workspaces;
  /// A multi-GPU plan's one-rhs schedule: the engine's report and solve
  /// order at cost width 1, a pure function of the structure, partition,
  /// machine and comm options. The first solve of any copy of the plan
  /// simulates it under `schedule_once`, and every solve replays its
  /// numerics in that order. It is never simulated at analysis (a plan
  /// may never solve) nor stored in blobs (derived state), and
  /// update_values keeps it: values never move the schedule.
  mutable std::once_flag schedule_once;
  mutable EngineResult schedule;
};

SolverPlan::SolverPlan(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

/// The shared symbolic phase: `st` arrives with `options` and `lower` set;
/// everything else is derived here. Returns the same (now fully built)
/// state, or the SolveStatus describing the rejected input.
Expected<std::shared_ptr<SolverPlan::State>> SolverPlan::analyze_state(
    std::shared_ptr<State> st) {
  using Result = Expected<std::shared_ptr<State>>;
  const auto t0 = steady_clock::now();
  const sparse::CscMatrix& lower = *st->lower;
  const SolveOptions& options = st->options;

  if (options.tasks_per_gpu < 1) {
    return Result(SolveStatus::kInvalidOptions,
                  "tasks_per_gpu must be >= 1 (got " +
                      std::to_string(options.tasks_per_gpu) + ")");
  }
  if (options.machine.num_gpus() < 1) {
    return Result(SolveStatus::kInvalidOptions,
                  "machine must have at least one GPU");
  }
  if (backend_is_multi_gpu(options.backend) &&
      options.machine.num_gpus() > 32) {
    return Result(SolveStatus::kInvalidOptions,
                  "multi-GPU engine supports at most 32 GPUs (got " +
                      std::to_string(options.machine.num_gpus()) + ")");
  }
  if (lower.rows != lower.cols) {
    return Result(SolveStatus::kNotTriangular,
                  "triangular solve requires a square matrix (" +
                      std::to_string(lower.rows) + "x" +
                      std::to_string(lower.cols) + ")");
  }
  // Identity of the symbolic result (checked again at snapshot-load time).
  st->snapshot.backend = options.backend;
  st->snapshot.tasks_per_gpu = options.tasks_per_gpu;
  st->snapshot.num_gpus = options.machine.num_gpus();

  if (lower.rows == 0) {
    // A 0x0 system is vacuously solvable by every backend: the plan
    // short-circuits (no partition, no analysis state) and run_lower
    // returns the empty solution.
    st->analysis_seconds = seconds_since(t0);
    return Result(std::move(st));
  }
  {
    const sparse::SolvableDiagnosis diag =
        sparse::diagnose_solvable_lower(lower);
    if (!diag.solvable) {
      return Result(diag.singular ? SolveStatus::kSingularDiagonal
                                  : SolveStatus::kNotTriangular,
                    diag.detail);
    }
  }

  // Analyze-time autotune: replace the (placeholder) host backend with the
  // structurally chosen one before any backend-keyed state is built. Only
  // host schedules participate -- an explicit simulated/multi-GPU request
  // is a statement about WHICH engine to model, not a tuning question.
  if (options.autotune && (options.backend == Backend::kSerial ||
                           backend_is_host_parallel(options.backend))) {
    sparse::LevelAnalysis levels =
        sparse::analyze_levels(lower, /*validate=*/false);
    TunedDecision tuned =
        autotune_decision(levels, measured_host_costs(),
                          resolve_cpu_threads(options.cpu_threads));
    st->options.backend = tuned.backend;
    st->options.cpu_threads = tuned.gang_width;
    st->snapshot.tuned = tuned;
    // Re-stamp the identity the tuner just changed: the snapshot must
    // describe the CHOSEN configuration.
    st->snapshot.backend = tuned.backend;
    // Hand the analysis forward instead of recomputing it in the switch:
    // every candidate is a host backend, and all of them keep it.
    st->snapshot.levels = std::move(levels);
  }

  // Only the multi-GPU engines consume a partition; host/single-GPU plans
  // compute one on demand in partition()/footprint() instead of paying an
  // O(n) build per plan (and per legacy one-shot solve).
  if (backend_is_multi_gpu(options.backend)) {
    st->snapshot.partition = partition_for(options, lower.rows);
  }

  // The diagnosis above already established the solvable-lower invariants,
  // so the derived analyses skip their own validation pass.
  switch (options.backend) {
    case Backend::kSerial:
    case Backend::kCpuLevelSet:
    case Backend::kCpuTaskGraph:
    case Backend::kCpuSyncFree:
      // Every host backend executes in an order derived from the level
      // analysis; the autotune path above may have handed it forward.
      if (!st->snapshot.levels.has_value()) {
        st->snapshot.levels = sparse::analyze_levels(lower, /*validate=*/false);
      }
      if (options.backend == Backend::kCpuSyncFree) {
        st->snapshot.in_degrees = st->snapshot.levels->in_degree;
      }
      break;
    case Backend::kGpuLevelSet:
      st->snapshot.levels = sparse::analyze_levels(lower, /*validate=*/false);
      st->snapshot.analysis_us = levelset_analysis_us(lower, options.machine.cost);
      break;
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy:
      st->snapshot.in_degrees = sparse::compute_in_degrees(lower, /*validate=*/false);
      st->snapshot.analysis_us =
          engine_analysis_us(lower, *st->snapshot.partition, options.machine.cost);
      break;
    default:
      return Result(SolveStatus::kUnknownBackend,
                    "unrecognized backend enumerator");
  }

  // Every host backend gathers through a row form of the factor, stored
  // in its execution order and built here once. It snapshots the values,
  // so update_values rebuilds it and a borrowed plan does not see
  // in-place value edits.
  if (backend_uses_row_form(options.backend)) {
    build_plan_row_form(options, lower, st->snapshot);
  }
  // Host-parallel backends solve on plan-owned persistent workspaces
  // (parked threads, reusable scratch). The pool is lazy: workspaces (and
  // their threads) materialize on first solve, one per concurrent caller.
  if (backend_is_host_parallel(options.backend)) {
    if (options.backend == Backend::kCpuTaskGraph) {
      // Every cpu-taskgraph plan carries a tuned record, autotuned or not:
      // the coarsening thresholds in it are what the load path rebuilds
      // the graph from (the measured costs behind them are per-process
      // and must not be re-derived on another machine).
      if (!st->snapshot.tuned.has_value()) {
        TunedDecision tuned;
        tuned.backend = Backend::kCpuTaskGraph;
        tuned.schedule = 1;
        tuned.gang_width = options.cpu_threads;
        tuned.coarsen =
            measured_coarsening(*st->snapshot.levels, options.cpu_threads);
        tuned.features = sparse::schedule_features(
            *st->snapshot.levels, lower.nnz(), tuned.coarsen.narrow_width);
        st->snapshot.tuned = tuned;
      }
      st->snapshot.tasks = sparse::coarsen_levels(
          lower, *st->snapshot.levels, st->snapshot.tuned->coarsen);
    }
    PoolOptions pool_opts;
    pool_opts.numa_policy = options.numa_policy;
    st->workspaces = std::make_unique<WorkspacePool>(
        resolve_cpu_threads(options.cpu_threads),
        options.use_shared_pool ? &SharedWorkerPool::instance() : nullptr,
        pool_opts);
  }

  st->analysis_seconds = seconds_since(t0);
  return Result(std::move(st));
}

Expected<SolverPlan> SolverPlan::analyze(sparse::CscMatrix lower,
                                         SolveOptions options) {
  auto st = std::make_shared<State>();
  st->options = std::move(options);
  st->storage = std::move(lower);
  st->lower = &st->storage;
  Expected<std::shared_ptr<State>> built = analyze_state(std::move(st));
  if (!built.ok()) return Expected<SolverPlan>(built.error());
  return SolverPlan(std::move(built.value()));
}

Expected<SolverPlan> SolverPlan::analyze_borrowed(
    const sparse::CscMatrix& lower, SolveOptions options) {
  auto st = std::make_shared<State>();
  st->options = std::move(options);
  st->lower = &lower;
  Expected<std::shared_ptr<State>> built = analyze_state(std::move(st));
  if (!built.ok()) return Expected<SolverPlan>(built.error());
  return SolverPlan(std::move(built.value()));
}

Expected<SolverPlan> SolverPlan::analyze_upper(sparse::CscMatrix upper,
                                               SolveOptions options) {
  if (!upper.is_square()) {
    return Expected<SolverPlan>(
        SolveStatus::kNotTriangular,
        "triangular solve requires a square matrix (" +
            std::to_string(upper.rows) + "x" + std::to_string(upper.cols) +
            ")");
  }
  try {
    upper.validate();
  } catch (const std::exception& e) {
    return Expected<SolverPlan>(
        SolveStatus::kNotTriangular,
        std::string("malformed CSC structure: ") + e.what());
  }
  if (!sparse::is_upper_triangular(upper)) {
    return Expected<SolverPlan>(SolveStatus::kNotTriangular,
                                "matrix has entries below the diagonal (not "
                                "upper triangular)");
  }
  // Diagnose the diagonal on the caller's matrix so error messages name
  // the caller's column indices, not their mirrored images in the
  // reversed factor (rows are sorted, so the diagonal terminates each
  // column of a solvable upper factor).
  for (index_t j = 0; j < upper.cols; ++j) {
    const offset_t last = upper.col_ptr[j + 1] - 1;
    if (upper.col_ptr[j] > last || upper.row_idx[last] != j) {
      return Expected<SolverPlan>(
          SolveStatus::kSingularDiagonal,
          "column " + std::to_string(j) +
              " is missing its diagonal entry (singular)");
    }
    if (upper.val[last] == 0.0) {
      return Expected<SolverPlan>(SolveStatus::kSingularDiagonal,
                                  "zero diagonal at column " +
                                      std::to_string(j) + " (singular)");
    }
  }

  const auto t0 = steady_clock::now();
  auto st = std::make_shared<State>();
  st->options = std::move(options);
  st->storage = reverse_upper_to_lower_prevalidated(upper);
  st->lower = &st->storage;
  // Marked before the analysis: the host row form is built mirrored.
  st->snapshot.upper = true;
  Expected<std::shared_ptr<State>> built = analyze_state(std::move(st));
  if (!built.ok()) return Expected<SolverPlan>(built.error());
  // The reversal is analysis-phase work: fold its wall time into the
  // plan's one-time charge.
  built.value()->analysis_seconds = seconds_since(t0);
  return SolverPlan(std::move(built.value()));
}

Expected<SolveResult> SolverPlan::run_batch(std::span<const value_t> b,
                                            index_t num_rhs,
                                            const CancelToken* cancel) const {
  const State& st = *state_;
  const sparse::CscMatrix& lower = *st.lower;
  // Chaos seam: `delay` stretches a solve (the "hung shard" script);
  // `error(N)` injects the SolveStatus with that code, generalizing the
  // old server-side inject_status knob down to the core.
  if (const auto fp = MSPTRSV_FAILPOINT("core.solve");
      fp.kind == support::FailpointHit::Kind::kError) {
    const auto status = static_cast<SolveStatus>(fp.arg);
    return Expected<SolveResult>(status, "injected by failpoint core.solve");
  }
  // Entry check covers every backend (the simulated ones never look
  // again: their "execution" is an event simulation, not wall time).
  if (cancel != nullptr && cancel->cancelled()) return cancel_error(*cancel);
  // Phase attribution: the deep layers (gang claim, kernels) run on
  // THIS thread and deposit their durations into its scratch; the service
  // reads the totals after solve_batch returns. Reset per batch so stale
  // figures from an earlier solve on this thread never leak in.
  support::trace::PhaseScratch& scratch = support::trace::phase_scratch();
  scratch.reset();
  MSPTRSV_TRACE_SPAN("core.solve_batch", "num_rhs", num_rhs);
  SolveResult out;
  if (lower.rows == 0) {
    // Vacuous system: every backend returns the empty solution for free.
    out.report.solver_name = backend_name(st.options.backend);
    out.report.machine_name =
        is_simulated(st.options.backend) ? st.options.machine.name : "host";
    out.report.num_rhs = num_rhs;
    out.completed_ns = support::trace::trace_now_ns();
    return out;
  }
  const std::size_t n = static_cast<std::size_t>(lower.rows);
  const std::size_t total = n * static_cast<std::size_t>(num_rhs);
  // The host row form speaks the caller's numbering, so host backends
  // solve upper plans in place. The simulated backends solve the analyzed
  // lower form -- the reversed factor of an upper plan -- so its vectors
  // are mirrored around them.
  const bool mirror = st.snapshot.upper && is_simulated(st.options.backend);
  std::vector<value_t> mirrored_b;
  if (mirror) {
    mirrored_b.assign(b.begin(), b.end());
    reverse_columns(mirrored_b, n);
    b = mirrored_b;
  }
  switch (st.options.backend) {
    case Backend::kSerial: {
      out.x.resize(total);
      const auto t0 = steady_clock::now();
      if (!solve_lower_serial_pull(*st.snapshot.row_form, b, num_rhs, out.x,
                                   cancel)) {
        return cancel_error(*cancel);
      }
      scratch.kernel_us += us_since(t0);
      out.wall_seconds = seconds_since(t0);
      out.report.solver_name = backend_name(st.options.backend);
      out.report.machine_name = "host";
      break;
    }
    case Backend::kCpuLevelSet:
    case Backend::kCpuSyncFree:
    case Backend::kCpuTaskGraph: {
      WorkspacePool::Lease lease = st.workspaces->acquire();
      out.x.resize(total);
      const auto t0 = steady_clock::now();
      if (!run_host_parallel(st.options.backend, st.snapshot, lower, b,
                             num_rhs, lease.ws(), out.x, cancel)) {
        return cancel_error(*cancel);
      }
      scratch.kernel_us += us_since(t0);
      out.wall_seconds = seconds_since(t0);
      out.report.solver_name = backend_name(st.options.backend);
      out.report.machine_name = "host";
      break;
    }
    case Backend::kGpuLevelSet: {
      LevelSetResult r = solve_levelset_simulated_batch(
          lower, b, num_rhs, st.options.machine, *st.snapshot.levels);
      out.x = std::move(r.x);
      out.report = std::move(r.report);
      break;
    }
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy: {
      std::call_once(st.schedule_once, [&] {
        st.schedule = simulate_mg(st.options, st.snapshot, lower, 1);
      });
      // The numerics follow the one-rhs order at every width, which is
      // what makes fused x bit-for-bit equal to looped x.
      out.x.resize(total);
      replay_mg_numerics(lower, st.schedule.order, b, num_rhs, out.x);
      // A batch's timing is ONE event simulation under the fused cost
      // model (per-component work scales with the batch; launches,
      // lock-waits, gathers and update messages amortized).
      out.report = num_rhs == 1
                       ? st.schedule.report
                       : simulate_mg(st.options, st.snapshot, lower, num_rhs)
                             .report;
      out.report.solver_name = backend_name(st.options.backend);
      break;
    }
  }
  if (mirror) reverse_columns(out.x, n);
  out.report.num_rhs = num_rhs;
  // A fused batch is one solve: its makespan is both the total and the
  // slowest-single-solve figure.
  out.report.max_solve_us = out.report.solve_us;
  // The gang claim ran INSIDE the timed kernel region (workspace
  // run_parallel claims before the sweep); report it separately and
  // subtract it so the phases partition the observable latency.
  out.phases.claim_us = scratch.claim_us;
  out.phases.kernel_us = std::max(0.0, scratch.kernel_us - scratch.claim_us);
  out.completed_ns = support::trace::trace_now_ns();
  return out;
}

CancelToken SolverPlan::effective_token(const CancelToken& cancel) const {
  if (state_->options.time_budget > 0.0) {
    return cancel.capped(state_->options.time_budget);
  }
  return cancel;
}

Expected<SolveResult> SolverPlan::solve(std::span<const value_t> b) const {
  return solve(b, CancelToken());
}

Expected<SolveResult> SolverPlan::solve(std::span<const value_t> b,
                                        const CancelToken& cancel) const {
  if (b.size() != static_cast<std::size_t>(rows())) {
    return Expected<SolveResult>(
        SolveStatus::kShapeMismatch,
        "rhs length " + std::to_string(b.size()) +
            " does not match the matrix dimension " + std::to_string(rows()));
  }
  const CancelToken tok = effective_token(cancel);
  return run_batch(b, 1, tok.active() ? &tok : nullptr);
}

Expected<SolveResult> SolverPlan::solve_batch(std::span<const value_t> rhs,
                                              index_t num_rhs) const {
  return solve_batch(rhs, num_rhs, CancelToken());
}

Expected<SolveResult> SolverPlan::solve_batch(std::span<const value_t> rhs,
                                              index_t num_rhs,
                                              const CancelToken& cancel) const {
  if (num_rhs < 1) {
    return Expected<SolveResult>(
        SolveStatus::kShapeMismatch,
        "num_rhs must be >= 1 (got " + std::to_string(num_rhs) + ")");
  }
  const std::size_t n = static_cast<std::size_t>(rows());
  const std::size_t expected = n * static_cast<std::size_t>(num_rhs);
  if (rhs.size() != expected) {
    return Expected<SolveResult>(
        SolveStatus::kShapeMismatch,
        "batch of " + std::to_string(num_rhs) + " rhs requires " +
            std::to_string(expected) + " values (column-major), got " +
            std::to_string(rhs.size()));
  }

  const CancelToken tok = effective_token(cancel);
  const CancelToken* cancel_ptr = tok.active() ? &tok : nullptr;

  if (!state_->options.fuse_batch) {
    // Looped mode (the PR 1 semantics): independent solves, reports
    // accumulate. The budget covers the WHOLE batch (the token is shared
    // across the loop), so a slow batch aborts partway with nothing kept.
    SolveResult out;
    out.x.reserve(expected);
    for (index_t j = 0; j < num_rhs; ++j) {
      Expected<SolveResult> r = run_batch(
          rhs.subspan(static_cast<std::size_t>(j) * n, n), 1, cancel_ptr);
      if (!r.ok()) return r;
      out.x.insert(out.x.end(), r.value().x.begin(), r.value().x.end());
      out.wall_seconds += r.value().wall_seconds;
      out.phases.claim_us += r.value().phases.claim_us;
      out.phases.kernel_us += r.value().phases.kernel_us;
      out.completed_ns = r.value().completed_ns;
      if (j == 0) {
        out.report = std::move(r.value().report);
      } else {
        out.report.accumulate(r.value().report);
      }
    }
    return out;
  }

  return run_batch(rhs, num_rhs, cancel_ptr);
}

Expected<bool> SolverPlan::update_values(std::span<const value_t> values) {
  State& st = *state_;
  if (st.lower != &st.storage) {
    return Expected<bool>(
        SolveStatus::kInvalidOptions,
        "update_values requires an owning plan; a borrowed plan reads the "
        "caller's matrix -- update its values in place instead (every host "
        "backend, serial included, snapshots values into the row form at "
        "analysis: re-analyze there)");
  }
  const offset_t nnz = st.storage.nnz();
  if (values.size() != static_cast<std::size_t>(nnz)) {
    return Expected<bool>(
        SolveStatus::kShapeMismatch,
        "value refresh needs one value per stored nonzero (" +
            std::to_string(nnz) + "), got " + std::to_string(values.size()));
  }
  const index_t n = st.storage.rows;
  if (!st.snapshot.upper) {
    // The diagonal leads each column of the analyzed lower factor; check
    // every new diagonal before mutating anything.
    for (index_t j = 0; j < n; ++j) {
      if (values[static_cast<std::size_t>(st.storage.col_ptr[j])] == 0.0) {
        return Expected<bool>(SolveStatus::kSingularDiagonal,
                              "zero diagonal at column " + std::to_string(j) +
                                  " (singular); plan values unchanged");
      }
    }
    std::copy(values.begin(), values.end(), st.storage.val.begin());
    if (st.snapshot.row_form) {
      build_plan_row_form(st.options, st.storage, st.snapshot);
    }
    return true;
  }
  // Upper plan: `values` follows the ORIGINAL upper factor's CSC order,
  // but storage holds the reversed lower form. Column j of the upper maps
  // to lower column n-1-j with its entries in reverse order, so the upper
  // column lengths (and the whole permutation) are recoverable from the
  // stored structure alone.
  offset_t base = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t rj = n - 1 - j;  // the mirrored lower column
    const offset_t count = st.storage.col_ptr[rj + 1] - st.storage.col_ptr[rj];
    // The diagonal terminates each upper column.
    if (values[static_cast<std::size_t>(base + count - 1)] == 0.0) {
      return Expected<bool>(SolveStatus::kSingularDiagonal,
                            "zero diagonal at column " + std::to_string(j) +
                                " (singular); plan values unchanged");
    }
    base += count;
  }
  base = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t rj = n - 1 - j;
    const offset_t begin = st.storage.col_ptr[rj];
    const offset_t count = st.storage.col_ptr[rj + 1] - begin;
    for (offset_t t = 0; t < count; ++t) {
      st.storage.val[static_cast<std::size_t>(begin + (count - 1 - t))] =
          values[static_cast<std::size_t>(base + t)];
    }
    base += count;
  }
  if (st.snapshot.row_form) {
    build_plan_row_form(st.options, st.storage, st.snapshot);
  }
  return true;
}

Expected<bool> SolverPlan::update_values(const sparse::CscMatrix& m) {
  const State& st = *state_;
  if (st.lower != &st.storage) {
    // The span overload would reject borrowed plans anyway; do it before
    // the O(nnz) pattern comparison, with the same diagnostic.
    return update_values(m.val);
  }
  const sparse::CscMatrix& cur = *st.lower;
  const index_t n = cur.rows;
  if (m.rows != n || m.cols != cur.cols) {
    return Expected<bool>(
        SolveStatus::kShapeMismatch,
        "value refresh matrix is " + std::to_string(m.rows) + "x" +
            std::to_string(m.cols) + ", plan factor is " + std::to_string(n) +
            "x" + std::to_string(cur.cols));
  }
  if (m.nnz() != cur.nnz()) {
    return Expected<bool>(
        SolveStatus::kShapeMismatch,
        "value refresh matrix has " + std::to_string(m.nnz()) +
            " nonzeros, plan factor has " + std::to_string(cur.nnz()));
  }
  if (!st.snapshot.upper) {
    // Exact pattern equality against the analyzed lower factor.
    if (m.col_ptr != cur.col_ptr || m.row_idx != cur.row_idx) {
      for (index_t j = 0; j < n; ++j) {
        if (m.col_ptr[j + 1] != cur.col_ptr[j + 1] ||
            !std::equal(m.row_idx.begin() + m.col_ptr[j],
                        m.row_idx.begin() + m.col_ptr[j + 1],
                        cur.row_idx.begin() + cur.col_ptr[j])) {
          return Expected<bool>(
              SolveStatus::kShapeMismatch,
              "sparsity pattern differs from the analyzed factor at column " +
                  std::to_string(j) + "; re-analyze instead of update_values");
        }
      }
    }
    return update_values(m.val);
  }
  // Upper plan: `m` is the caller's upper factor; the cached pattern is the
  // reversed lower form. Column j of the upper mirrors lower column n-1-j
  // with its entries in reverse order.
  for (index_t j = 0; j < n; ++j) {
    const index_t rj = n - 1 - j;
    const offset_t begin = cur.col_ptr[rj];
    const offset_t count = cur.col_ptr[rj + 1] - begin;
    if (m.col_ptr[j + 1] - m.col_ptr[j] != count) {
      return Expected<bool>(
          SolveStatus::kShapeMismatch,
          "sparsity pattern differs from the analyzed factor at column " +
              std::to_string(j) + "; re-analyze instead of update_values");
    }
    for (offset_t t = 0; t < count; ++t) {
      if (m.row_idx[static_cast<std::size_t>(m.col_ptr[j] + t)] !=
          n - 1 - cur.row_idx[static_cast<std::size_t>(begin + (count - 1 - t))]) {
        return Expected<bool>(
            SolveStatus::kShapeMismatch,
            "sparsity pattern differs from the analyzed factor at column " +
                std::to_string(j) + "; re-analyze instead of update_values");
      }
    }
  }
  return update_values(m.val);
}

// ---- persistence -----------------------------------------------------------

Expected<std::vector<std::uint8_t>> SolverPlan::serialize() const {
  return serialize_snapshot(state_->snapshot, *state_->lower);
}

Expected<std::vector<std::uint8_t>> SolverPlan::serialize(
    SnapshotWriteOptions write_options) const {
  return serialize_snapshot(state_->snapshot, *state_->lower, write_options);
}

Expected<bool> SolverPlan::save(const std::string& path) const {
  const std::vector<std::uint8_t> blob =
      serialize_snapshot(state_->snapshot, *state_->lower);
  if (!support::write_file(path, blob)) {
    return Expected<bool>(SolveStatus::kBadSnapshot,
                          "cannot write plan blob to '" + path + "'");
  }
  return true;
}

Expected<SolverPlan> SolverPlan::deserialize(
    std::span<const std::uint8_t> bytes, SolveOptions options) {
  const auto t0 = steady_clock::now();
  SnapshotBlob parsed;
  const std::string err = deserialize_snapshot(bytes, parsed);
  if (!err.empty()) return Expected<SolverPlan>(SolveStatus::kBadSnapshot, err);
  return restore(std::move(parsed), std::move(options), nullptr, t0);
}

Expected<SolverPlan> SolverPlan::load(const std::string& path,
                                      SolveOptions options) {
  const auto t0 = steady_clock::now();
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "cannot read plan blob '" + path + "'");
  }
  SnapshotBlob parsed;
  const std::string err = deserialize_snapshot(bytes, parsed);
  if (!err.empty()) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "'" + path + "': " + err);
  }
  return restore(std::move(parsed), std::move(options), nullptr, t0);
}

Expected<SolverPlan> SolverPlan::load_borrowed(const std::string& path,
                                               const sparse::CscMatrix& lower,
                                               SolveOptions options) {
  const auto t0 = steady_clock::now();
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "cannot read plan blob '" + path + "'");
  }
  SnapshotBlob parsed;
  // The caller supplies the matrix: skip materializing the embedded one
  // (about half of a host-backend blob's bytes).
  const std::string err =
      deserialize_snapshot(bytes, parsed, SnapshotRead::kSkipFactor);
  if (!err.empty()) {
    return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                                "'" + path + "': " + err);
  }
  return restore(std::move(parsed), std::move(options), &lower, t0);
}

double SolverPlan::load_us() const { return state_->load_seconds * 1e6; }

Expected<SolverPlan> SolverPlan::restore(
    SnapshotBlob parsed, SolveOptions options,
    const sparse::CscMatrix* borrow,
    std::chrono::steady_clock::time_point t0) {
  using Result = Expected<SolverPlan>;
  PlanSnapshot& snap = parsed.snapshot;

  // An autotune load ADOPTS the stored decision instead of demanding the
  // caller guess which backend the tuner picked at analyze time: the plan
  // replays the persisted choice (backend and gang width) verbatim.
  if (options.autotune) {
    options.backend = snap.backend;
    if (snap.tuned.has_value()) options.cpu_threads = snap.tuned->gang_width;
  }

  // The snapshot is only valid for the configuration that produced it:
  // pairing it with different symbolic-phase inputs would execute a
  // schedule computed for another machine shape.
  if (options.backend != snap.backend) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot was analyzed for backend " +
                      backend_name(snap.backend) + ", options request " +
                      backend_name(options.backend));
  }
  // Only the multi-GPU engines bake the machine width into their symbolic
  // state (the partition); host and single-GPU plans accept any machine.
  if (backend_is_multi_gpu(options.backend) &&
      options.machine.num_gpus() != snap.num_gpus) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot was analyzed for " + std::to_string(snap.num_gpus) +
                      " GPUs, options machine has " +
                      std::to_string(options.machine.num_gpus()));
  }
  const bool task_pool = options.backend == Backend::kMgUnifiedTask ||
                         options.backend == Backend::kMgZeroCopy;
  if (task_pool && options.tasks_per_gpu != snap.tasks_per_gpu) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot was analyzed with tasks_per_gpu = " +
                      std::to_string(snap.tasks_per_gpu) +
                      ", options request " +
                      std::to_string(options.tasks_per_gpu));
  }
  if (options.tasks_per_gpu < 1 || options.machine.num_gpus() < 1) {
    return Result(SolveStatus::kInvalidOptions,
                  "options are inconsistent (tasks_per_gpu and the machine "
                  "GPU count must be >= 1)");
  }

  // Backend-required sections must have survived the trip (a hand-crafted
  // blob could claim a backend but omit its state).
  const index_t n = parsed.factor.rows;
  if (n > 0) {
    const bool needs_levels = options.backend == Backend::kCpuLevelSet ||
                              options.backend == Backend::kCpuTaskGraph ||
                              options.backend == Backend::kGpuLevelSet;
    const bool needs_in_degrees =
        options.backend == Backend::kCpuSyncFree ||
        backend_is_multi_gpu(options.backend);
    if (needs_levels && !snap.levels.has_value()) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot lacks the level analysis its backend needs");
    }
    if (needs_in_degrees && snap.in_degrees.empty()) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot lacks the in-degree state its backend needs");
    }
    // The row form is NOT in the blob: it is rebuilt below, in execution
    // order, from whichever factor the plan ends up solving against.
  }

  auto st = std::make_shared<State>();
  if (borrow != nullptr) {
    // Borrowed-load: solve against the CALLER's matrix. Upper plans have
    // no caller-visible lower form to borrow.
    if (snap.upper) {
      return Result(SolveStatus::kBadSnapshot,
                    "borrowed load of an upper-triangular plan is not "
                    "supported (its internal factor is the reversed form); "
                    "use the owning load instead");
    }
    const sparse::StructuralHash caller_hash = sparse::hash_csc(*borrow);
    if (caller_hash.pattern != parsed.factor_hash.pattern) {
      return Result(SolveStatus::kBadSnapshot,
                    "structural hash mismatch: the supplied matrix does not "
                    "have the sparsity pattern this plan was analyzed for");
    }
    st->lower = borrow;
    if (caller_hash.values != parsed.factor_hash.values) {
      // Refreshed values: the saved plan's diagonal guarantee no longer
      // covers them. The pattern matches the analyzed factor, so the
      // diagonal still leads every column -- an O(n) re-check.
      for (index_t j = 0; j < borrow->cols; ++j) {
        if (borrow->val[static_cast<std::size_t>(borrow->col_ptr[j])] == 0.0) {
          return Result(SolveStatus::kSingularDiagonal,
                        "zero diagonal at column " + std::to_string(j) +
                            " in the supplied matrix (singular)");
        }
      }
    }
  } else {
    st->storage = std::move(parsed.factor);
    st->lower = &st->storage;
  }

  // Partition is a deterministic O(n) function of the validated identity;
  // rebuild instead of trusting (or paying for) a serialized copy.
  if (n > 0 && backend_is_multi_gpu(options.backend)) {
    snap.partition = partition_for(options, n);
  }

  // Host backends execute in an order derived from the level analysis.
  // A stored order must be a topological order of a solvable factor --
  // the row-form build relies on it, and an ascending claim over any
  // other order would spin forever -- so check both in one pass over the
  // structure instead of trusting the CRC alone. Blobs from before serial
  // and sync-free plans kept levels lack them: validate the factor, then
  // compute them. The row form is then rebuilt from the resolved factor
  // (the borrowed matrix's values included) in execution order -- one
  // O(nnz) scatter, the same pass analyze pays.
  if (n > 0 && backend_uses_row_form(options.backend)) {
    if (!snap.levels.has_value()) {
      if (!sparse::diagnose_solvable_lower(*st->lower).solvable) {
        return Result(SolveStatus::kBadSnapshot,
                      "snapshot factor is not a solvable lower-triangular "
                      "matrix");
      }
      snap.levels = sparse::analyze_levels(*st->lower, /*validate=*/false);
    } else if (!is_topological_order(*st->lower, snap.levels->order)) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot level order is not a topological order of a "
                    "solvable factor");
    }
    build_plan_row_form(options, *st->lower, snap);
  }

  // The task DAG is never serialized (like the row form): rebuild it
  // from the stored levels under the PERSISTED coarsening thresholds --
  // they came from the analyzing process's measured costs, and the graph
  // the plan runs must be the graph the analysis chose. Only a record
  // without them falls back to this process's costs.
  if (n > 0 && options.backend == Backend::kCpuTaskGraph) {
    sparse::CoarsenOptions coarsen =
        snap.tuned.has_value() ? snap.tuned->coarsen : sparse::CoarsenOptions{};
    if (coarsen.narrow_width == 0) {
      coarsen.narrow_width =
          measured_coarsening(*snap.levels, options.cpu_threads).narrow_width;
    }
    snap.tasks = sparse::coarsen_levels(*st->lower, *snap.levels, coarsen);
  }

  // The sync-free host kernel SPINS on its delivery counters: in-degrees
  // that disagree with the factor would hang the worker threads, not just
  // mis-answer, so re-derive them and compare (one streaming pass over
  // the structure; the level/mg schedules degrade to wrong answers at
  // worst and are left to the CRC).
  if (n > 0 && options.backend == Backend::kCpuSyncFree &&
      sparse::compute_in_degrees(*st->lower, /*validate=*/false) !=
          snap.in_degrees) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot in-degrees do not match the factor structure");
  }

  st->options = std::move(options);
  st->snapshot = std::move(snap);
  // Re-stamp the identity from the validated options so a re-save of this
  // plan records the configuration it actually runs with (they can differ
  // only where the symbolic state does not depend on them).
  st->snapshot.tasks_per_gpu = st->options.tasks_per_gpu;
  st->snapshot.num_gpus = st->options.machine.num_gpus();
  // A loaded plan never paid the analysis: the whole point. The read cost
  // is reported separately via load_us().
  st->snapshot.analysis_us = 0.0;
  st->analysis_seconds = 0.0;
  if (n > 0 && backend_is_host_parallel(st->options.backend)) {
    PoolOptions pool_opts;
    pool_opts.numa_policy = st->options.numa_policy;
    st->workspaces = std::make_unique<WorkspacePool>(
        resolve_cpu_threads(st->options.cpu_threads),
        st->options.use_shared_pool ? &SharedWorkerPool::instance() : nullptr,
        pool_opts);
  }
  st->load_seconds = seconds_since(t0);
  return SolverPlan(std::move(st));
}

index_t SolverPlan::rows() const { return state_->lower->rows; }

bool SolverPlan::is_upper() const { return state_->snapshot.upper; }

const SolveOptions& SolverPlan::options() const { return state_->options; }

const sparse::CscMatrix& SolverPlan::factor() const { return *state_->lower; }

sparse::Partition SolverPlan::partition() const {
  MSPTRSV_REQUIRE(rows() > 0, "an empty (0x0) plan has no partition");
  if (state_->snapshot.partition.has_value()) return *state_->snapshot.partition;
  return partition_for(state_->options, rows());
}

std::span<const index_t> SolverPlan::in_degrees() const {
  return state_->snapshot.in_degrees;
}

const sparse::LevelAnalysis* SolverPlan::level_analysis() const {
  return state_->snapshot.levels ? &*state_->snapshot.levels : nullptr;
}

const RowForm* SolverPlan::row_form() const {
  return state_->snapshot.row_form ? &*state_->snapshot.row_form : nullptr;
}

const TunedDecision* SolverPlan::tuned() const {
  return state_->snapshot.tuned ? &*state_->snapshot.tuned : nullptr;
}

const sparse::TaskGraph* SolverPlan::task_graph() const {
  return state_->snapshot.tasks ? &*state_->snapshot.tasks : nullptr;
}

std::size_t SolverPlan::workspace_count() const {
  return state_->workspaces ? state_->workspaces->size() : 0;
}

std::size_t SolverPlan::owned_thread_count() const {
  return state_->workspaces ? state_->workspaces->owned_threads() : 0;
}

const void* SolverPlan::state_id() const { return state_.get(); }

namespace {

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t csc_bytes(const sparse::CscMatrix& m) {
  return vector_bytes(m.col_ptr) + vector_bytes(m.row_idx) +
         vector_bytes(m.val);
}

}  // namespace

std::size_t SolverPlan::resident_bytes() const {
  const State& st = *state_;
  std::size_t bytes = sizeof(State);
  bytes += csc_bytes(st.storage);  // empty (0) for borrowed plans
  const PlanSnapshot& snap = st.snapshot;
  bytes += vector_bytes(snap.in_degrees);
  if (snap.levels.has_value()) {
    bytes += vector_bytes(snap.levels->level_of) +
             vector_bytes(snap.levels->level_ptr) +
             vector_bytes(snap.levels->order);
  }
  if (snap.row_form.has_value()) {
    bytes += vector_bytes(snap.row_form->row_ptr) +
             vector_bytes(snap.row_form->col_idx) +
             vector_bytes(snap.row_form->val) +
             vector_bytes(snap.row_form->row_of);
  }
  if (snap.tasks.has_value()) {
    bytes += vector_bytes(snap.tasks->task_ptr) +
             vector_bytes(snap.tasks->kind) +
             vector_bytes(snap.tasks->task_of) +
             vector_bytes(snap.tasks->in_degree) +
             vector_bytes(snap.tasks->succ_ptr) +
             vector_bytes(snap.tasks->succ);
  }
  if (snap.partition.has_value()) {
    // Partition internals: per-component owner map dominates. The
    // schedule's solve order is charged from analysis on, though the
    // first solve memoizes it: a byte budget charges plans at insert time.
    bytes += static_cast<std::size_t>(rows()) * sizeof(int) +
             2 * static_cast<std::size_t>(rows()) * sizeof(index_t);
  }
  return bytes;
}

sim_time_t SolverPlan::analysis_us() const { return state_->snapshot.analysis_us; }

double SolverPlan::analysis_seconds() const {
  return state_->analysis_seconds;
}

sparse::FootprintEstimate SolverPlan::footprint() const {
  if (rows() == 0) return {};  // empty plan
  const Backend b = state_->options.backend;
  const sparse::StateLayout layout =
      (b == Backend::kMgShmem || b == Backend::kMgZeroCopy)
          ? sparse::StateLayout::kSymmetricHeap
          : sparse::StateLayout::kUnifiedManaged;
  return sparse::estimate_footprint(*state_->lower, partition(), layout);
}

}  // namespace msptrsv::core
