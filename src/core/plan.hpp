// The phase-split solver API: analyze once, solve many times.
//
// SpTRSV is almost never a one-off: it runs inside iterative methods and
// preconditioner applications, where the same factor is solved against a
// new right-hand side every iteration. The symbolic work -- input
// validation, level analysis, partitioning, per-component in-degrees,
// comm-policy sizing -- depends only on the matrix structure, so it must be
// paid once and amortized (the cuSPARSE csrsv2 analyze/solve split; the
// inspector-executor model).
//
//   auto plan = core::SolverPlan::analyze(L, options);     // symbolic phase
//   if (!plan.ok()) { /* plan.status(), plan.message() */ }
//   auto r1 = plan->solve(b1);                             // numeric phase
//   auto r2 = plan->solve(b2);                             // ... no re-analysis
//   auto rb = plan->solve_batch(B, k);                     // k rhs, column-major
//   plan->update_values(new_vals);                         // same sparsity,
//   auto r3 = plan->solve(b1);                             // ... new numerics
//
// Execution engine: the numeric phase runs on plan-owned persistent state.
// The level-set gang leases a SolveWorkspace (parked worker threads + a
// reusable barrier; see workspace.hpp), so repeated solves spawn no
// threads and allocate nothing. solve_batch runs the FUSED multi-RHS
// kernel: one dependency resolution and one sweep over the matrix
// structure per batch, identical bits to one solve() per rhs, amortized
// launch/sync accounting on the simulated backends. Concurrent
// solve()/solve_batch() calls on one plan are safe on every backend
// (concurrent callers lease disjoint workspaces).
//
// A host plan (serial, cpu-levelset) holds its factor once: as the row
// form its kernels read (row_form.hpp), plus the gang's level boundaries.
// factor() rebuilds the CSC from it on demand.
//
// Reports from plan solves charge the analysis phase exactly once: the
// per-solve RunReport carries analysis_us == 0 and the plan exposes the
// one-time charge via analysis_us() / analysis_seconds(). The legacy
// one-shot core::solve() wrapper folds the charge back into its report.
//
// Persistence: the symbolic state is an explicit PlanSnapshot
// (core/plan_snapshot.hpp) that save()/load() round-trip through a
// versioned, CRC-guarded blob -- the durable-schedule artifact of the
// inspector-executor model. A host blob stores the row form itself, so a
// load reads it and proves it in one pass instead of re-running analysis
// (analysis_us() == 0; the read cost is exposed via load_us()), and the
// loaded plan solves bit-for-bit like the freshly analyzed plan it was
// saved from:
//
//   plan->save("factor.plan");
//   // ... later, any process:
//   auto back = core::SolverPlan::load("factor.plan", options);
//   auto rb = back->solve(b);            // identical bits, zero analysis
//
// User-input errors (shape mismatch, non-triangular input, singular
// diagonal, bad options) come back through the Expected/SolveStatus channel
// instead of thrown contract violations.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/solver.hpp"
#include "core/status.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/partition.hpp"

namespace msptrsv::sparse {
struct StructuralHash;  // sparse/serialize.hpp
}  // namespace msptrsv::sparse

namespace msptrsv::core {

struct RowForm;        // core/row_form.hpp
struct TunedDecision;  // core/plan_snapshot.hpp

class SolverPlan {
 public:
  /// Symbolic phase for a lower-triangular factor: validates the input,
  /// builds the partition and the backend's analysis state, and captures
  /// the matrix -- a host plan only as its row form (pass an rvalue to
  /// avoid the copy). A 0x0 system is
  /// vacuously solvable (the plan short-circuits). Errors:
  /// kNotTriangular, kSingularDiagonal, kInvalidOptions.
  static Expected<SolverPlan> analyze(sparse::CscMatrix lower,
                                      SolveOptions options);

  /// As analyze() but WITHOUT taking ownership: the plan keeps a reference
  /// to `lower`, which must outlive the plan (the cuSPARSE handle
  /// contract). Use when the factor is large and already owned elsewhere;
  /// the one-shot core::solve wrappers use this for their throwaway plans.
  /// Every backend still copies the VALUES into its row form -- host
  /// backends here (and then no longer read `lower`), simulated ones at
  /// their first solve -- so later in-place edits of `lower` need a
  /// re-analysis.
  static Expected<SolverPlan> analyze_borrowed(const sparse::CscMatrix& lower,
                                               SolveOptions options);

  /// Symbolic phase for an upper-triangular factor (backward substitution).
  /// The reduction to lower form (reference.hpp) is performed HERE, once.
  /// Every backend then solves in the caller's numbering through a
  /// mirrored row form, with no per-solve vector reversal.
  static Expected<SolverPlan> analyze_upper(sparse::CscMatrix upper,
                                            SolveOptions options);

  /// Numeric phase: solves against the cached analysis. No re-analysis, no
  /// revalidation of the matrix; only the rhs length is checked
  /// (kShapeMismatch). The result's report has analysis_us == 0.
  Expected<SolveResult> solve(std::span<const value_t> b) const;

  /// Batched numeric phase: `rhs` holds `num_rhs` right-hand sides of
  /// length rows() each, column-major (rhs[j*n + i] is entry i of rhs j).
  /// The solution uses the same layout; x is bit-for-bit what num_rhs
  /// solve() calls would produce. One fused kernel sweep solves the whole
  /// batch: report.solve_us is the amortized batch makespan
  /// (== max_solve_us) and launch/update counters are per-batch, not
  /// per-rhs.
  Expected<SolveResult> solve_batch(std::span<const value_t> rhs,
                                    index_t num_rhs) const;

  /// Cancellable forms: `cancel` (a CancelSource token, a budget token, or
  /// both) is checked cooperatively inside the host kernels (per level on
  /// the gang, every few thousand rows on the serial sweep); a fired token aborts MID-SOLVE with kDeadlineExceeded
  /// (deadline) or kOverloaded (flag -- the service's abandon-on-shutdown
  /// path), leaving the plan and its workspaces immediately reusable.
  /// Composes with options().time_budget: the earlier deadline wins.
  /// Simulated backends check only at entry: their first solve simulates
  /// the schedule and builds the replay form, and every solve then runs
  /// the replay sweep uninterrupted. The plain overloads above are
  /// equivalent to passing an inert token.
  Expected<SolveResult> solve(std::span<const value_t> b,
                              const CancelToken& cancel) const;
  Expected<SolveResult> solve_batch(std::span<const value_t> rhs,
                                    index_t num_rhs,
                                    const CancelToken& cancel) const;

  /// solve_batch into a caller-owned `x` of rhs's size and layout: the
  /// bits are the allocating overload's, the result's x stays empty, and
  /// nothing is allocated or zero-filled for the solution -- so warm calls
  /// take no page fault. `x` must not overlap `rhs`; its contents on entry
  /// are never read. kShapeMismatch when x.size() != rhs.size(); on any
  /// error x's contents are unspecified.
  Expected<SolveResult> solve_batch(std::span<const value_t> rhs,
                                    index_t num_rhs, std::span<value_t> x,
                                    const CancelToken& cancel = {}) const;

  /// Value-only refresh: replaces the factor's numeric values while
  /// reusing every cached analysis (levels, in-degrees, partition,
  /// comm sizing, a simulated plan's one-rhs report) -- the sparsity
  /// pattern MUST be unchanged. `values` follows the analyzed matrix's
  /// CSC nonzero order (for upper plans: the original upper factor's
  /// order; the plan re-applies the reversal mapping internally), and the
  /// plan rebuilds its row form from them in the same order (a host plan
  /// from the factor() it materializes). Rejects
  /// kShapeMismatch when values.size() != nnz, kSingularDiagonal (before
  /// mutating) when a new diagonal entry is zero, and kInvalidOptions on
  /// borrowed plans: every backend snapshots values into a row form --
  /// host plans at analysis, simulated plans at their first solve -- so a
  /// borrowed plan whose matrix changes must be re-analyzed. NOT safe
  /// concurrently with solve()/solve_batch(); values are shared by every
  /// copy of this plan.
  Expected<bool> update_values(std::span<const value_t> values);

  /// As the span overload, but sparsity-checks `m` against factor()
  /// first (dims + col_ptr + row_idx must be IDENTICAL; for upper plans
  /// `m` is the upper factor and is checked against the mirrored
  /// pattern). kShapeMismatch names the first divergence; on success
  /// delegates to the span path (same rejection rules).
  Expected<bool> update_values(const sparse::CscMatrix& m);

  // ---- persistence ---------------------------------------------------------
  // The symbolic phase as a durable artifact: serialize() captures the
  // PlanSnapshot -- a host plan's row form and level boundaries, or a
  // simulated plan's factor with its levels or in-degrees -- and the
  // factor's content hash into a versioned, endianness-tagged,
  // CRC-guarded blob; the load paths restore it without re-running ANY
  // analysis. The reader accepts the current format only: a blob of any
  // other version is kBadSnapshot, naming the version.

  /// Sealed blob image of this plan (works on borrowed plans too). One
  /// pass over the stored arrays, plus, on an analyzed plan, hashing its
  /// factor (a host plan's materialized from the row form); a loaded
  /// plan re-records its blob's hash, so load + serialize reproduces the
  /// blob's bytes.
  Expected<std::vector<std::uint8_t>> serialize() const;

  /// serialize() + atomic-enough file write. kBadSnapshot on I/O failure.
  Expected<bool> save(const std::string& path) const;

  /// Restores a plan from a blob image, owning the embedded factor.
  /// `options` supplies the runtime configuration (machine cost model,
  /// cpu_threads, nvshmem ablations...); the blob's identity
  /// section must agree with it on backend, GPU count, and task
  /// granularity -- a mismatched pairing would silently execute a schedule
  /// computed for a different configuration, so it is kBadSnapshot. A
  /// host blob's row form is proved (is_row_schedule) before the plan
  /// exists: a form no analysis could have built is kBadSnapshot too.
  /// Loaded plans report analysis_us() == 0 and expose the restore cost
  /// via load_us().
  static Expected<SolverPlan> deserialize(std::span<const std::uint8_t> bytes,
                                          SolveOptions options);

  /// read_file + deserialize. kBadSnapshot on unreadable/invalid blobs.
  static Expected<SolverPlan> load(const std::string& path,
                                   SolveOptions options);

  /// Borrowed-load: restores the symbolic state from the blob but solves
  /// against the CALLER's matrix (which must outlive the plan, the
  /// analyze_borrowed contract). The caller's matrix must hash-match the
  /// blob's recorded sparsity pattern (kBadSnapshot otherwise); its VALUES
  /// may differ. A host plan skips the stored values, proves the stored
  /// structure, and fills it from the caller's values through the
  /// update_values path (kSingularDiagonal on a zero diagonal). Only
  /// lower-triangular plans support borrowed loading (an upper plan's
  /// internal factor is the reversed form, which no caller owns).
  static Expected<SolverPlan> load_borrowed(const std::string& path,
                                            const sparse::CscMatrix& lower,
                                            SolveOptions options);

  /// Host wall-clock microseconds spent restoring this plan from a blob
  /// (0 for plans built by the analyze paths).
  double load_us() const;

  index_t rows() const;
  /// True for plans built by analyze_upper.
  bool is_upper() const;
  const SolveOptions& options() const;
  /// The lower-triangular factor solves execute against (for upper plans:
  /// the reversed form), by value. A host plan rebuilds it from its row
  /// form, one O(n + nnz) scatter; no solve or load path calls it.
  sparse::CscMatrix factor() const;
  /// The factor's content hash as the blob this plan was loaded from
  /// recorded it (on a borrowed load: the caller's matrix's). It is what
  /// a re-save records and what PlanCache and the server check against
  /// the key a blob was filed under. Null on analyzed plans -- analysis
  /// hashes nothing -- and after update_values.
  const sparse::StructuralHash* recorded_hash() const;
  /// The component-to-GPU distribution this backend/options pair implies
  /// (cached for the multi-GPU backends, derived on demand otherwise).
  /// Requires a non-empty plan (a 0x0 system has no partition).
  sparse::Partition partition() const;
  /// Per-component in-degrees (multi-GPU plans; empty otherwise).
  std::span<const index_t> in_degrees() const;
  /// Level-set analysis of a gpu-levelset plan (its level-cost loop walks
  /// it); null otherwise. A host plan keeps only its row form, whose
  /// order the analysis fixed, and cpu-levelset its level boundaries.
  const sparse::LevelAnalysis* level_analysis() const;
  /// The host gather view and a host plan's only copy of the factor, rows
  /// stored in execution order and the caller's numbering (row_form.hpp);
  /// null for simulated backends (their replay form is built at the
  /// first solve and stays internal).
  const RowForm* row_form() const;
  /// The analyze-time schedule decision: present on every autotuned plan
  /// (SolveOptions::autotune / registry preset "auto"); null otherwise.
  /// Round-trips through plan blobs, so a LOADED plan reports the choice
  /// its analysis made.
  const TunedDecision* tuned() const;

  /// Host workspaces materialized so far: 0 before the first solve on a
  /// cpu-levelset plan (and always for other backends), then one per
  /// peak-concurrent solve -- sequential reuse never grows it. Exposed for
  /// observability and the reuse tests.
  std::size_t workspace_count() const;

  /// Per-workspace worker threads currently OWNED by this plan: always 0
  /// before the first solve, and 0 forever when
  /// options().use_shared_pool routes the kernels through the shared
  /// pool (the zero-idle-threads guarantee of the solve service).
  std::size_t owned_thread_count() const;

  /// Stable identity of the shared symbolic state: equal across copies of
  /// the same plan, distinct across independently analyzed plans. The
  /// solve service keys request coalescing on it -- two submits may be
  /// fused into one batch iff their state_id() match (copies of one plan
  /// share factor, analysis, and workspaces, so fusing them is exactly
  /// solve_batch's contract).
  const void* state_id() const;

  /// Approximate resident footprint of this plan's shared state in bytes:
  /// every snapshot section (a host plan's row form and level boundaries;
  /// a simulated plan's owned factor, levels, in-degrees and partition,
  /// and the replay form its first solve builds -- charged from analysis
  /// on, so the figure never grows). What a byte-budgeted PlanCache
  /// charges per entry. Borrowed plans exclude the caller's matrix.
  std::size_t resident_bytes() const;

  /// One-time simulated analysis charge (0 for the real host backends).
  sim_time_t analysis_us() const;
  /// Host wall-clock seconds spent inside analyze().
  double analysis_seconds() const;

  /// Per-GPU memory sizing under this plan's partition and the backend's
  /// state layout (symmetric heap for the NVSHMEM designs, managed arrays
  /// otherwise) -- the comm-policy/capacity sizing captured at analysis.
  sparse::FootprintEstimate footprint() const;

 private:
  struct State;
  explicit SolverPlan(std::shared_ptr<State> state);

  static Expected<std::shared_ptr<State>> analyze_state(
      std::shared_ptr<State> st);

  /// Shared blob-restore path: parses `bytes`, validates the snapshot
  /// against `options`, proves a host row form, optionally borrows the
  /// caller's matrix (or, on a host plan, its values), rebuilds derived
  /// runtime state (partition, workspace pool), and stamps load_us().
  static Expected<SolverPlan> restore(std::span<const std::uint8_t> bytes,
                                      SolveOptions options,
                                      const sparse::CscMatrix* borrow,
                                      std::chrono::steady_clock::time_point t0);

  /// Fused execution of num_rhs rhs (column-major, caller numbering) for
  /// lower and upper plans alike, into `x` (sized like `b`; the result's
  /// x stays empty). `cancel` may be null (no checks); a fired token maps
  /// to kDeadlineExceeded / kOverloaded.
  Expected<SolveResult> run_batch(std::span<const value_t> b, index_t num_rhs,
                                  std::span<value_t> x,
                                  const CancelToken* cancel) const;
  /// The caller-visible token composed with options().time_budget
  /// (earlier deadline wins); inert when neither is set.
  CancelToken effective_token(const CancelToken& cancel) const;

  /// Shared by all copies of the plan; mutable only through
  /// update_values() and the internal workspace pool (which is
  /// internally synchronized -- solves stay const and thread-safe).
  std::shared_ptr<State> state_;
};

}  // namespace msptrsv::core
