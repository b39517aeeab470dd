#include "core/plan.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
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

Expected<SolverPlan> unreadable_blob(const std::string& path) {
  return Expected<SolverPlan>(SolveStatus::kBadSnapshot,
                              "cannot read plan blob '" + path + "'");
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

/// The internal row order a row form stores: its row_of with an upper
/// plan's mirroring undone. A form rebuilt from a refreshed factor in
/// this order keeps every row at its position.
std::vector<index_t> stored_order(const RowForm& rf, bool upper) {
  std::vector<index_t> order(rf.row_of);
  if (upper) {
    for (index_t& i : order) i = rf.rows() - 1 - i;
  }
  return order;
}

/// The level-set gang's persistent execution state: parked threads and
/// a reusable barrier per concurrent solve, materialized on first use.
std::unique_ptr<WorkspacePool> make_workspaces(const SolveOptions& options) {
  PoolOptions pool_opts;
  pool_opts.numa_policy = options.numa_policy;
  return std::make_unique<WorkspacePool>(
      resolve_cpu_threads(options.cpu_threads),
      options.use_shared_pool ? &SharedWorkerPool::instance() : nullptr,
      pool_opts);
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
  EngineResult out;
  if (options.backend == Backend::kMgUnified ||
      options.backend == Backend::kMgUnifiedTask) {
    UnifiedComm comm(net, machine.cost, partition.num_gpus(), lower.rows,
                     cost_rhs);
    out = run_mg_engine(lower, partition, machine, net, comm, eng);
  } else {
    NvshmemComm comm(net, machine.cost, partition.num_gpus(), lower.rows,
                     options.nvshmem, cost_rhs);
    out = run_mg_engine(lower, partition, machine, net, comm, eng);
  }
  out.report.solver_name = backend_name(options.backend);
  return out;
}

/// The simulated report of one fused solve of `num_rhs` rhs on a
/// simulated plan: the multi-GPU engine's event simulation, or the
/// gpu-levelset level cost loop.
sim::RunReport simulated_report(const SolveOptions& options,
                                const PlanSnapshot& snap,
                                const sparse::CscMatrix& lower,
                                index_t num_rhs) {
  if (options.backend == Backend::kGpuLevelSet) {
    return simulate_levelset(lower, *snap.levels, options.machine, num_rhs);
  }
  return simulate_mg(options, snap, lower, num_rhs).report;
}

}  // namespace

struct SolverPlan::State {
  index_t n = 0;
  /// The CSC factor of a simulated plan, which its engines, level-cost
  /// loop and replay build walk: `storage`, or the caller's matrix on a
  /// borrowed plan. A host plan drops it once its row form -- then its
  /// only copy of the factor -- is built, and keeps it only while empty
  /// (0x0); `lower` is null then.
  sparse::CscMatrix storage;
  const sparse::CscMatrix* lower = nullptr;
  /// Built by analyze_borrowed or load_borrowed: refuses update_values.
  bool borrowed = false;
  SolveOptions options;
  /// The whole symbolic result in its explicit, serializable form:
  /// orientation flag, partition, in-degrees, levels, the host row form
  /// and its level boundaries, and the one-time simulated analysis
  /// charge. save()/load() round-trip exactly this (plus a simulated
  /// plan's factor).
  PlanSnapshot snapshot;
  /// The factor's content hash as the blob this plan was loaded from
  /// recorded it (on a borrowed load: the caller's matrix's), which a
  /// re-save carries. Unset on analyzed plans -- analysis hashes nothing
  /// -- and after update_values.
  std::optional<sparse::StructuralHash> recorded_hash;
  double analysis_seconds = 0.0;
  /// Wall seconds spent restoring the plan from a blob (load paths only).
  double load_seconds = 0.0;
  /// Persistent execution state of the cpu-levelset backend: leased
  /// workspaces carrying parked worker threads and a reusable barrier.
  /// Internally synchronized; null for other backends.
  std::unique_ptr<WorkspacePool> workspaces;
  /// A simulated plan's replay state, built by the first solve of any
  /// copy of the plan under `replay_once` -- never at analysis (a plan may
  /// never solve), never at restore, and never stored in blobs (derived
  /// state):
  ///  * `replay_report`: the one-rhs simulated report, a pure function of
  ///    the structure, partition, machine and comm options, which every
  ///    k = 1 solve copies (update_values keeps it: values never move the
  ///    schedule);
  ///  * `replay`: the row form every solve runs through the serial pull
  ///    kernel, each row's entries in the order its push adds them
  ///    (EntryOrder::kSolveOrder) -- for mg plans rows in the one-rhs
  ///    schedule's solve order, for gpu-levelset in natural order, the
  ///    order of its column sweep. An upper plan's form is mirrored into
  ///    the caller's numbering, as a host upper plan's is. It snapshots
  ///    the values, so update_values rebuilds it once built.
  mutable std::once_flag replay_once;
  mutable sim::RunReport replay_report;
  mutable RowForm replay;
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
  st->n = lower.rows;

  if (lower.rows == 0) {
    // A 0x0 system is vacuously solvable by every backend: the plan
    // short-circuits (no partition, no analysis state) and run_batch
    // returns the empty solution. A host plan's blob stores its (empty)
    // row form.
    if (!is_simulated(options.backend)) {
      st->snapshot.row_form = build_row_form(lower, {}, st->snapshot.upper);
    }
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
  // Host plans: the level analysis their row form's order derives from.
  sparse::LevelAnalysis levels;
  if (options.autotune && !is_simulated(options.backend)) {
    levels = sparse::analyze_levels(lower, /*validate=*/false);
    TunedDecision tuned =
        autotune_decision(levels, measured_host_costs(),
                          resolve_cpu_threads(options.cpu_threads));
    st->options.backend = tuned.backend;
    st->options.cpu_threads = tuned.gang_width;
    st->snapshot.tuned = tuned;
    // Re-stamp the identity the tuner just changed: the snapshot must
    // describe the CHOSEN configuration.
    st->snapshot.backend = tuned.backend;
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
    case Backend::kCpuLevelSet: {
      // Both host backends gather through a row form of the factor in the
      // order they execute, derived from the level analysis (which the
      // autotune path above may have computed): serial sweeps level order
      // inside windows of consecutive rows (serial_row_order),
      // cpu-levelset plain level order. An upper plan's form is mirrored
      // into the caller's numbering. The form snapshots the values, so
      // update_values rebuilds it and a borrowed plan does not see
      // in-place value edits. The gang keeps its level boundaries; the
      // rest of the analysis is dropped.
      if (levels.n == 0) {
        levels = sparse::analyze_levels(lower, /*validate=*/false);
      }
      const bool upper = st->snapshot.upper;
      RowForm rf = options.backend == Backend::kSerial
                       ? build_row_form(lower, serial_row_order(levels), upper)
                       : build_row_form(lower, levels.order, upper);
      apply_numa_hints(options, rf);
      st->snapshot.row_form = std::move(rf);
      if (options.backend == Backend::kCpuLevelSet) {
        st->snapshot.level_ptr = std::move(levels.level_ptr);
      }
      break;
    }
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

  // The row form is now a host plan's only copy of the factor.
  if (!is_simulated(options.backend)) {
    st->storage = {};
    st->lower = nullptr;
  }
  // The gang solves on plan-owned persistent workspaces. The pool is
  // lazy: workspaces (and their threads) materialize on first solve, one
  // per concurrent caller.
  if (options.backend == Backend::kCpuLevelSet) {
    st->workspaces = make_workspaces(options);
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
  st->borrowed = true;
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
                                            std::span<value_t> x,
                                            const CancelToken* cancel) const {
  const State& st = *state_;
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
  if (st.n == 0) {
    // Vacuous system: every backend returns the empty solution for free.
    out.report.solver_name = backend_name(st.options.backend);
    out.report.machine_name =
        is_simulated(st.options.backend) ? st.options.machine.name : "host";
    out.report.num_rhs = num_rhs;
    out.completed_ns = support::trace::trace_now_ns();
    return out;
  }
  // Every row form speaks the caller's numbering, so upper plans solve in
  // place on every backend.
  switch (st.options.backend) {
    case Backend::kSerial: {
      const auto t0 = steady_clock::now();
      if (!solve_lower_serial_pull(*st.snapshot.row_form, b, num_rhs, x,
                                   cancel)) {
        return cancel_error(*cancel);
      }
      scratch.kernel_us += us_since(t0);
      out.wall_seconds = seconds_since(t0);
      out.report.solver_name = backend_name(st.options.backend);
      out.report.machine_name = "host";
      break;
    }
    case Backend::kCpuLevelSet: {
      WorkspacePool::Lease lease = st.workspaces->acquire();
      const auto t0 = steady_clock::now();
      if (!solve_lower_levelset_fused(*st.snapshot.row_form, b, num_rhs,
                                      st.snapshot.level_ptr, lease.ws(), x,
                                      cancel)) {
        return cancel_error(*cancel);
      }
      scratch.kernel_us += us_since(t0);
      out.wall_seconds = seconds_since(t0);
      out.report.solver_name = backend_name(st.options.backend);
      out.report.machine_name = "host";
      break;
    }
    case Backend::kGpuLevelSet:
    case Backend::kMgUnified:
    case Backend::kMgUnifiedTask:
    case Backend::kMgShmem:
    case Backend::kMgZeroCopy: {
      const sparse::CscMatrix& lower = *st.lower;
      std::call_once(st.replay_once, [&] {
        std::vector<index_t> order;
        if (st.options.backend == Backend::kGpuLevelSet) {
          st.replay_report = simulate_levelset(lower, *st.snapshot.levels,
                                               st.options.machine, 1);
          // Natural order, not the stored level order: it is topological
          // for every lower factor, so no blob data reaches the numerics.
          order.resize(static_cast<std::size_t>(st.n));
          std::iota(order.begin(), order.end(), index_t{0});
        } else {
          EngineResult schedule = simulate_mg(st.options, st.snapshot, lower, 1);
          st.replay_report = std::move(schedule.report);
          order = std::move(schedule.order);
        }
        st.replay = build_row_form(lower, order, st.snapshot.upper,
                                   EntryOrder::kSolveOrder);
      });
      // The numerics follow the one-rhs form at every width, which is
      // what makes fused x bit-for-bit equal to looped x. No token: a
      // simulated solve checks cancellation at entry only.
      const auto t0 = steady_clock::now();
      solve_lower_serial_pull(st.replay, b, num_rhs, x, nullptr);
      scratch.kernel_us += us_since(t0);
      // A batch's timing is ONE simulation under the fused cost model
      // (per-component work scales with the batch; launches, lock-waits,
      // gathers and update messages amortized).
      out.report = num_rhs == 1
                       ? st.replay_report
                       : simulated_report(st.options, st.snapshot, lower,
                                          num_rhs);
      break;
    }
  }
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
  std::vector<value_t> x(b.size());
  Expected<SolveResult> r = run_batch(b, 1, x, tok.active() ? &tok : nullptr);
  if (r.ok()) r.value().x = std::move(x);
  return r;
}

Expected<SolveResult> SolverPlan::solve_batch(std::span<const value_t> rhs,
                                              index_t num_rhs) const {
  return solve_batch(rhs, num_rhs, CancelToken());
}

Expected<SolveResult> SolverPlan::solve_batch(std::span<const value_t> rhs,
                                              index_t num_rhs,
                                              const CancelToken& cancel) const {
  std::vector<value_t> x(rhs.size());
  Expected<SolveResult> r = solve_batch(rhs, num_rhs, x, cancel);
  if (r.ok()) r.value().x = std::move(x);
  return r;
}

Expected<SolveResult> SolverPlan::solve_batch(std::span<const value_t> rhs,
                                              index_t num_rhs,
                                              std::span<value_t> x,
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
  if (x.size() != expected) {
    return Expected<SolveResult>(
        SolveStatus::kShapeMismatch,
        "solution buffer holds " + std::to_string(x.size()) +
            " values, the batch needs " + std::to_string(expected));
  }

  const CancelToken tok = effective_token(cancel);
  return run_batch(rhs, num_rhs, x, tok.active() ? &tok : nullptr);
}

Expected<bool> SolverPlan::update_values(std::span<const value_t> values) {
  State& st = *state_;
  if (st.borrowed) {
    return Expected<bool>(
        SolveStatus::kInvalidOptions,
        "update_values requires an owning plan; every backend snapshots a "
        "borrowed plan's values into its row form (host plans at analysis, "
        "simulated plans at their first solve), so a borrowed plan whose "
        "matrix changes must be re-analyzed");
  }
  // `values` follows the caller's CSC order: an upper plan's caller
  // factor is the mirror of its analyzed lower form (the reversal is its
  // own inverse).
  const bool upper = st.snapshot.upper;
  sparse::CscMatrix f = factor();
  if (upper) f = reverse_upper_to_lower_prevalidated(f);
  if (values.size() != static_cast<std::size_t>(f.nnz())) {
    return Expected<bool>(
        SolveStatus::kShapeMismatch,
        "value refresh needs one value per stored nonzero (" +
            std::to_string(f.nnz()) + "), got " +
            std::to_string(values.size()));
  }
  // The diagonal leads every lower column and ends every upper one:
  // check each new one before mutating anything.
  for (index_t j = 0; j < st.n; ++j) {
    const offset_t d = upper ? f.col_ptr[j + 1] - 1 : f.col_ptr[j];
    if (values[static_cast<std::size_t>(d)] == 0.0) {
      return Expected<bool>(SolveStatus::kSingularDiagonal,
                            "zero diagonal at column " + std::to_string(j) +
                                " (singular); plan values unchanged");
    }
  }
  std::copy(values.begin(), values.end(), f.val.begin());
  if (upper) f = reverse_upper_to_lower_prevalidated(f);
  // Every row form snapshots the values: rebuild the ones built so far,
  // each in its own stored order.
  if (st.snapshot.row_form) {
    RowForm rf = build_row_form(f, stored_order(*st.snapshot.row_form, upper),
                                upper);
    apply_numa_hints(st.options, rf);
    st.snapshot.row_form = std::move(rf);
  }
  if (!st.replay.row_of.empty()) {
    st.replay = build_row_form(f, stored_order(st.replay, upper), upper,
                               EntryOrder::kSolveOrder);
  }
  if (st.lower != nullptr) st.storage = std::move(f);
  st.recorded_hash.reset();
  return true;
}

Expected<bool> SolverPlan::update_values(const sparse::CscMatrix& m) {
  if (state_->borrowed) {
    // The span overload rejects borrowed plans; do it before the O(nnz)
    // pattern comparison, with the same diagnostic.
    return update_values(m.val);
  }
  // Compared in the caller's frame, as the span overload maps values.
  sparse::CscMatrix cur = factor();
  if (state_->snapshot.upper) cur = reverse_upper_to_lower_prevalidated(cur);
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
  // Exact pattern equality.
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

// ---- persistence -----------------------------------------------------------

Expected<std::vector<std::uint8_t>> SolverPlan::serialize() const {
  const State& st = *state_;
  // A loaded plan re-saves the hash its blob recorded. An analyzed plan
  // hashes its factor here, not at analysis: a host plan's is rebuilt
  // from its row form.
  sparse::StructuralHash hash;
  if (st.recorded_hash) {
    hash = *st.recorded_hash;
  } else if (st.lower != nullptr) {
    hash = sparse::hash_csc(*st.lower);
  } else {
    hash = sparse::hash_csc(factor());
  }
  if (st.lower != nullptr) return serialize_snapshot(st.snapshot, hash, *st.lower);
  return serialize_snapshot(st.snapshot, hash);
}

Expected<bool> SolverPlan::save(const std::string& path) const {
  if (!support::write_file(path, serialize().value())) {
    return Expected<bool>(SolveStatus::kBadSnapshot,
                          "cannot write plan blob to '" + path + "'");
  }
  return true;
}

Expected<SolverPlan> SolverPlan::deserialize(
    std::span<const std::uint8_t> bytes, SolveOptions options) {
  return restore(bytes, std::move(options), nullptr, steady_clock::now());
}

Expected<SolverPlan> SolverPlan::load(const std::string& path,
                                      SolveOptions options) {
  const auto t0 = steady_clock::now();
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) return unreadable_blob(path);
  return restore(bytes, std::move(options), nullptr, t0);
}

Expected<SolverPlan> SolverPlan::load_borrowed(const std::string& path,
                                               const sparse::CscMatrix& lower,
                                               SolveOptions options) {
  const auto t0 = steady_clock::now();
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) return unreadable_blob(path);
  return restore(bytes, std::move(options), &lower, t0);
}

double SolverPlan::load_us() const { return state_->load_seconds * 1e6; }

Expected<SolverPlan> SolverPlan::restore(
    std::span<const std::uint8_t> bytes, SolveOptions options,
    const sparse::CscMatrix* borrow,
    std::chrono::steady_clock::time_point t0) {
  using Result = Expected<SolverPlan>;
  SnapshotBlob parsed;
  // A borrowed load takes the caller's values (and a simulated plan's
  // whole factor): skip materializing the stored ones.
  const std::string err = deserialize_snapshot(
      bytes, parsed,
      borrow != nullptr ? SnapshotRead::kSkipValues : SnapshotRead::kFull);
  if (!err.empty()) return Result(SolveStatus::kBadSnapshot, err);
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
  const index_t n = parsed.rows;
  if (n > 0) {
    if (options.backend == Backend::kGpuLevelSet && !snap.levels.has_value()) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot lacks the level analysis its backend needs");
    }
    if (backend_is_multi_gpu(options.backend) && snap.in_degrees.empty()) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot lacks the in-degree state its backend needs");
    }
    if ((options.backend == Backend::kCpuLevelSet) == snap.level_ptr.empty()) {
      return Result(SolveStatus::kBadSnapshot,
                    "snapshot level boundaries do not match its backend");
    }
  }

  const bool host = !is_simulated(options.backend);
  auto st = std::make_shared<State>();
  st->n = n;
  st->recorded_hash = parsed.factor_hash;
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
    st->recorded_hash = caller_hash;
    if (!host) {
      st->lower = borrow;
      if (caller_hash.values != parsed.factor_hash.values) {
        // Refreshed values: the saved plan's diagonal guarantee no longer
        // covers them. The pattern matches the analyzed factor, so the
        // diagonal still leads every column -- an O(n) re-check.
        for (index_t j = 0; j < borrow->cols; ++j) {
          if (borrow->val[static_cast<std::size_t>(borrow->col_ptr[j])] ==
              0.0) {
            return Result(SolveStatus::kSingularDiagonal,
                          "zero diagonal at column " + std::to_string(j) +
                              " in the supplied matrix (singular)");
          }
        }
      }
    }
  } else if (!host) {
    st->storage = std::move(parsed.factor);
    st->lower = &st->storage;
  }

  // Partition is a deterministic O(n) function of the validated identity;
  // rebuild instead of trusting (or paying for) a serialized copy.
  if (n > 0 && backend_is_multi_gpu(options.backend)) {
    snap.partition = partition_for(options, n);
  }

  // A host plan runs its stored row form as it stands, and a CRC only
  // proves the bytes are the ones written: prove the form before any
  // kernel reads it -- one pass, where analysis pays a level analysis and
  // a scatter. A borrowed load proves the structure; its values come
  // from the caller below, through the diagonal-checked refresh.
  if (host && !is_row_schedule(*snap.row_form, snap.level_ptr, snap.upper)) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot row form is not a schedule of a solvable factor");
  }
  if (host && borrow == nullptr) apply_numa_hints(options, *snap.row_form);
  // A gpu-levelset plan's stored levels drive its level-cost loop: check
  // the whole schedule against the factor -- one pass over the structure
  // that also proves the factor a solvable lower one.
  if (n > 0 && snap.levels.has_value() &&
      !is_level_schedule(*st->lower, snap.levels->order,
                         snap.levels->level_ptr)) {
    return Result(SolveStatus::kBadSnapshot,
                  "snapshot level analysis is not a level schedule of a "
                  "solvable factor");
  }
  // The multi-GPU engine counts each component's in-degree down to zero:
  // in-degrees that disagree with the factor would leave components
  // unsolved (an engine deadlock at the first solve), so re-derive them
  // and compare -- one streaming pass over the structure.
  if (n > 0 && backend_is_multi_gpu(options.backend) &&
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
  if (n > 0 && st->options.backend == Backend::kCpuLevelSet) {
    st->workspaces = make_workspaces(st->options);
  }
  SolverPlan plan(std::move(st));
  if (borrow != nullptr) {
    if (host) {
      // The caller's values fill the proven structure, every new diagonal
      // checked before the form is rebuilt.
      const sparse::StructuralHash caller_hash = *plan.state_->recorded_hash;
      const Expected<bool> filled = plan.update_values(borrow->val);
      if (!filled.ok()) return Result(filled.error());
      plan.state_->recorded_hash = caller_hash;
    }
    plan.state_->borrowed = true;
  }
  plan.state_->load_seconds = seconds_since(t0);
  return plan;
}

index_t SolverPlan::rows() const { return state_->n; }

bool SolverPlan::is_upper() const { return state_->snapshot.upper; }

const SolveOptions& SolverPlan::options() const { return state_->options; }

sparse::CscMatrix SolverPlan::factor() const {
  const State& st = *state_;
  if (st.lower != nullptr) return *st.lower;
  return factor_of(*st.snapshot.row_form, st.snapshot.upper);
}

sparse::Partition SolverPlan::partition() const {
  MSPTRSV_REQUIRE(rows() > 0, "an empty (0x0) plan has no partition");
  if (state_->snapshot.partition.has_value()) return *state_->snapshot.partition;
  return partition_for(state_->options, rows());
}

std::span<const index_t> SolverPlan::in_degrees() const {
  return state_->snapshot.in_degrees;
}

const sparse::StructuralHash* SolverPlan::recorded_hash() const {
  return state_->recorded_hash ? &*state_->recorded_hash : nullptr;
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
  // Simulated plans only: empty on host and borrowed plans.
  bytes += csc_bytes(st.storage);
  const PlanSnapshot& snap = st.snapshot;
  bytes += vector_bytes(snap.in_degrees) + vector_bytes(snap.level_ptr);
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
  if (snap.partition.has_value()) {
    // Partition internals: per-component owner map dominates.
    bytes += static_cast<std::size_t>(rows()) * sizeof(int) +
             static_cast<std::size_t>(rows()) * sizeof(index_t);
  }
  if (is_simulated(st.options.backend) && rows() > 0) {
    // The replay form (row_ptr, col_idx, val, row_of) is charged from
    // analysis on, though the first solve builds it: a byte budget
    // charges plans at insert time.
    const std::size_t n = static_cast<std::size_t>(rows());
    const std::size_t nnz = static_cast<std::size_t>(st.lower->nnz());
    bytes += (n + 1) * sizeof(offset_t) +
             nnz * (sizeof(index_t) + sizeof(value_t)) + n * sizeof(index_t);
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
  if (state_->lower != nullptr) {
    return sparse::estimate_footprint(*state_->lower, partition(), layout);
  }
  return sparse::estimate_footprint(factor(), partition(), layout);
}

}  // namespace msptrsv::core
