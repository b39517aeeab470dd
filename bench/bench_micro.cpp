// Micro-benchmarks (google-benchmark) of the real host backends and the
// hot substrate paths: these measure actual wall-clock on this machine,
// complementing the simulated figure benches.
//
// On top of the google-benchmark cases, main() runs the fused-vs-looped
// solve_batch comparison (1/4/16 rhs across representative backends) and
// writes it to BENCH_batch.json (override with MSPTRSV_BENCH_JSON) so
// future PRs can track the amortization trajectory machine-readably.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/msptrsv.hpp"
#include "support/trace.hpp"

using namespace msptrsv;

namespace {

/// A study's solve failed. main() reports it, runs the remaining studies
/// and exits 3.
struct SolveFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

const sparse::CscMatrix& bench_matrix() {
  static const sparse::CscMatrix m =
      sparse::gen_layered_dag(20000, 50, 120000, 0.5, 99);
  return m;
}

const std::vector<value_t>& bench_rhs() {
  static const std::vector<value_t> b = sparse::gen_rhs_for_solution(
      bench_matrix(), sparse::gen_solution(bench_matrix().rows, 5));
  return b;
}

void BM_SerialSolve(benchmark::State& state) {
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_lower_serial(l, b));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_SerialSolve);

void BM_LevelAnalysis(benchmark::State& state) {
  const auto& l = bench_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::analyze_levels(l));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_LevelAnalysis);

void BM_InDegreeCount(benchmark::State& state) {
  const auto& l = bench_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::compute_in_degrees(l));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_InDegreeCount);

void BM_LayeredDagGenerator(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::gen_layered_dag(10000, 40, 60000, 0.5, 7));
  }
}
BENCHMARK(BM_LayeredDagGenerator);

void BM_SimulatedZerocopy4Gpu(benchmark::State& state) {
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();
  const core::SolveOptions o =
      core::registry::options_for("mg-zerocopy").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(l, b, o));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_SimulatedZerocopy4Gpu);

// ---- one-shot vs plan: the amortization the phase-split API exists for.
// The one-shot path re-runs validation + analysis every call; the plan
// path pays them once in analyze() and each iteration below is a pure
// solve. Per-iteration time must drop for the plan variants.

void BM_OneShotSolve_Serial(benchmark::State& state) {
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();
  const core::SolveOptions o = core::registry::options_for("serial").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(l, b, o));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_OneShotSolve_Serial);

void BM_PlanSolve_Serial(benchmark::State& state) {
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();
  const core::SolverPlan plan =
      core::SolverPlan::analyze(l, core::registry::options_for("serial").value())
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.solve(b));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_PlanSolve_Serial);

void BM_PlanSolve_Zerocopy(benchmark::State& state) {
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();
  const core::SolverPlan plan =
      core::SolverPlan::analyze(
          l, core::registry::options_for("mg-zerocopy").value())
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.solve(b));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_PlanSolve_Zerocopy);

void BM_PlanSolveBatch8_Serial(benchmark::State& state) {
  const auto& l = bench_matrix();
  const index_t num_rhs = 8;
  std::vector<value_t> batch;
  for (index_t j = 0; j < num_rhs; ++j) {
    const std::vector<value_t> b = sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(l.rows, 100 + static_cast<std::uint64_t>(j)));
    batch.insert(batch.end(), b.begin(), b.end());
  }
  const core::SolverPlan plan =
      core::SolverPlan::analyze(l, core::registry::options_for("serial").value())
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.solve_batch(batch, num_rhs));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz() * num_rhs);
}
BENCHMARK(BM_PlanSolveBatch8_Serial);

void BM_CscTranspose(benchmark::State& state) {
  const auto& l = bench_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::transpose(l));
  }
}
BENCHMARK(BM_CscTranspose);

// ---- plan persistence: analyze vs serialize vs load ------------------------

void BM_PlanSerialize_Zerocopy(benchmark::State& state) {
  const core::SolverPlan plan =
      core::SolverPlan::analyze(
          bench_matrix(), core::registry::options_for("mg-zerocopy").value())
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.serialize());
  }
  state.SetItemsProcessed(state.iterations() * bench_matrix().nnz());
}
BENCHMARK(BM_PlanSerialize_Zerocopy);

void BM_PlanDeserialize_Zerocopy(benchmark::State& state) {
  const core::SolveOptions o =
      core::registry::options_for("mg-zerocopy").value();
  const auto blob =
      core::SolverPlan::analyze(bench_matrix(), o)->serialize().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolverPlan::deserialize(blob, o));
  }
  state.SetItemsProcessed(state.iterations() * bench_matrix().nnz());
}
BENCHMARK(BM_PlanDeserialize_Zerocopy);

// ---- fused vs looped solve_batch: the tentpole amortization. ---------------
// One dependency resolution + one structure sweep per batch (fused) against
// num_rhs independent solve() calls (looped). Host backends run on the
// persistent plan workspace either way, so the delta isolates the fusion
// itself.

const std::vector<value_t>& batch16() {
  static const std::vector<value_t> batch = [] {
    const auto& l = bench_matrix();
    std::vector<value_t> out;
    for (index_t j = 0; j < 16; ++j) {
      const std::vector<value_t> b = sparse::gen_rhs_for_solution(
          l, sparse::gen_solution(l.rows, 500 + static_cast<std::uint64_t>(j)));
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  }();
  return batch;
}

core::SolverPlan batch_plan(const std::string& key) {
  core::SolveOptions o = core::registry::options_for(key).value();
  o.cpu_threads = 2;
  return core::SolverPlan::analyze(bench_matrix(), o).value();
}

/// Solves k column-major rhs as one fused solve_batch or, looped, as k
/// solve() calls. Returns the simulated solve_us reported (summed over the
/// looped solves: each one-rhs report is the plan's own); 0 on the host.
double solve_k(const core::SolverPlan& plan, std::span<const value_t> batch,
               index_t k, bool fused) {
  if (fused) {
    const auto r = plan.solve_batch(batch, k);
    if (!r.ok()) throw SolveFailed("batch solve failed: " + r.message());
    return r.value().report.solve_us;
  }
  const std::size_t n = static_cast<std::size_t>(plan.rows());
  double us = 0.0;
  for (index_t j = 0; j < k; ++j) {
    const auto r =
        plan.solve(batch.subspan(static_cast<std::size_t>(j) * n, n));
    if (!r.ok()) throw SolveFailed("solve failed: " + r.message());
    us += r.value().report.solve_us;
  }
  return us;
}

void BM_SolveBatch(benchmark::State& state, const char* key, bool fused) {
  const auto plan = batch_plan(key);
  const index_t k = static_cast<index_t>(state.range(0));
  const auto batch = std::span<const value_t>(batch16())
                         .first(static_cast<std::size_t>(k * plan.rows()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_k(plan, batch, k, fused));
  }
  state.SetItemsProcessed(state.iterations() * bench_matrix().nnz() * k);
}
BENCHMARK_CAPTURE(BM_SolveBatch, Fused_CpuLevelSet, "cpu-levelset", true)
    ->Arg(1)->Arg(4)->Arg(16);
BENCHMARK_CAPTURE(BM_SolveBatch, Looped_CpuLevelSet, "cpu-levelset", false)
    ->Arg(1)->Arg(4)->Arg(16);
BENCHMARK_CAPTURE(BM_SolveBatch, Fused_Serial, "serial", true)
    ->Arg(1)->Arg(4)->Arg(16);

// Plan re-solve on the persistent workspace (the "no thread spawn, no O(n)
// zeroing per call" acceptance check -- compare against the one-shot
// variant above).
void BM_PlanSolve_CpuLevelSet(benchmark::State& state) {
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();
  core::SolveOptions o = core::registry::options_for("cpu-levelset").value();
  o.cpu_threads = 2;
  const core::SolverPlan plan = core::SolverPlan::analyze(l, o).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.solve(b));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK(BM_PlanSolve_CpuLevelSet);

// Budget-check tax: same plan solve with an ARMED (generous, never-firing)
// execution budget. The no-budget baselines above pass a null token to the
// kernels -- one branch per level/claim boundary -- while these pay the
// strided clock reads too. Compare against BM_PlanSolve_CpuLevelSet;
// main() gates the pairing below.
void BM_PlanSolve_BudgetArmed(benchmark::State& state, const char* key) {
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();
  core::SolveOptions o = core::registry::options_for(key).value();
  o.cpu_threads = 2;
  o.time_budget = 3600.0;  // armed, never fires
  const core::SolverPlan plan = core::SolverPlan::analyze(l, o).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.solve(b));
  }
  state.SetItemsProcessed(state.iterations() * l.nnz());
}
BENCHMARK_CAPTURE(BM_PlanSolve_BudgetArmed, CpuLevelSet, "cpu-levelset");

// ---- BENCH_batch.json ------------------------------------------------------

struct BatchCase {
  std::string backend;
  index_t num_rhs;
  double looped_per_rhs_us;
  double fused_per_rhs_us;
  const char* unit;  // "wall" (host) or "sim" (simulated machine)
};

/// Per-batch metric in us: simulated backends report deterministic
/// simulated time (one run suffices); host backends take the best wall
/// time over a few repetitions.
double batch_metric_us(const core::SolverPlan& plan,
                       std::span<const value_t> batch, index_t k, bool fused) {
  if (core::is_simulated(plan.options().backend)) {
    return solve_k(plan, batch, k, fused);
  }
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    solve_k(plan, batch, k, fused);
    best = std::min(best, std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

int write_batch_json() {
  const char* path_env = std::getenv("MSPTRSV_BENCH_JSON");
  const std::string path = path_env ? path_env : "BENCH_batch.json";
  const auto& l = bench_matrix();

  std::vector<BatchCase> cases;
  for (const char* key :
       {"serial", "cpu-levelset", "gpu-levelset", "mg-zerocopy"}) {
    const core::SolverPlan plan = batch_plan(key);
    const bool sim = core::is_simulated(plan.options().backend);
    for (index_t k : {1, 4, 16}) {
      const auto batch = std::span<const value_t>(batch16())
                             .first(static_cast<std::size_t>(k) *
                                    static_cast<std::size_t>(l.rows));
      BatchCase c;
      c.backend = key;
      c.num_rhs = k;
      c.looped_per_rhs_us = batch_metric_us(plan, batch, k, false) / k;
      c.fused_per_rhs_us = batch_metric_us(plan, batch, k, true) / k;
      c.unit = sim ? "sim" : "wall";
      cases.push_back(c);
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 3;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"solve_batch fused vs looped\",\n"
               "  \"matrix\": {\"rows\": %d, \"nnz\": %lld},\n"
               "  \"cpu_threads\": 2,\n  \"cases\": [\n",
               l.rows, static_cast<long long>(l.nnz()));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BatchCase& c = cases[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"num_rhs\": %d, \"unit\": \"%s\", "
        "\"looped_per_rhs_us\": %.3f, \"fused_per_rhs_us\": %.3f, "
        "\"speedup\": %.3f}%s\n",
        c.backend.c_str(), c.num_rhs, c.unit, c.looped_per_rhs_us,
        c.fused_per_rhs_us, c.looped_per_rhs_us / c.fused_per_rhs_us,
        i + 1 < cases.size() ? "," : "");
    std::printf("BENCH_batch %-13s rhs=%-2d  looped %9.1f us/rhs  fused "
                "%9.1f us/rhs  speedup %.2fx (%s)\n",
                c.backend.c_str(), c.num_rhs, c.looped_per_rhs_us,
                c.fused_per_rhs_us, c.looped_per_rhs_us / c.fused_per_rhs_us,
                c.unit);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// ---- BENCH_kernel.json -----------------------------------------------------
// The roofline study: SpTRSV is bandwidth-bound, so the honest yardstick
// for the host kernels is the GB/s they move against the machine's own
// streaming ceiling, not against the previous commit. Two parts:
//
//   1. stream_triad -- a STREAM-triad measurement (a = b + s*c over
//      three 32 MB arrays, one slice per thread) at the same thread count
//      the kernels run with, on threads started once: the bandwidth roof
//      is the best of kTriadPasses timed passes, and the median is
//      reported beside it to show how much the box wandered. On a host
//      whose last-level cache holds the arrays, the roof is that cache's.
//   2. Per-kernel achieved GB/s at 16 RHS from a LOWER-BOUND bytes-moved
//      model (each structure/value/RHS byte counted once; re-fetches make
//      real traffic higher, so the printed ceiling fraction is
//      optimistic-for-the-hardware / honest-for-us).
//
// Reported, not gated.

const sparse::CscMatrix& kernel_matrix() {
  // Wider and shallower than bench_matrix(): 60 levels of ~667 components
  // at ~12 nnz/row keeps all gang workers fed, so the measurement reflects
  // kernel throughput rather than level-boundary latency.
  static const sparse::CscMatrix m =
      sparse::gen_layered_dag(40000, 60, 480000, 0.3, 99);
  return m;
}

const std::vector<value_t>& kernel_batch16() {
  static const std::vector<value_t> batch = [] {
    const auto& l = kernel_matrix();
    std::vector<value_t> out;
    for (index_t j = 0; j < 16; ++j) {
      const std::vector<value_t> b = sparse::gen_rhs_for_solution(
          l, sparse::gen_solution(l.rows, 900 + static_cast<std::uint64_t>(j)));
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  }();
  return batch;
}

int kernel_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

struct TriadResult {
  double best_gbps = 0.0;
  double median_gbps = 0.0;
};

constexpr int kTriadPasses = 25;

/// STREAM triad at `threads` workers: GB/s of a = b + s*c, best and median
/// of kTriadPasses passes. The workers are started once and released into
/// each pass through a barrier, so no pass pays for thread creation.
TriadResult stream_triad(int threads) {
  constexpr std::size_t kN = 1u << 22;  // 4M doubles = 32 MB per array
  std::vector<double> a(kN, 0.0), b(kN, 1.0), c(kN, 2.0);
  const std::size_t slice = kN / static_cast<std::size_t>(threads);
  auto run_slice = [&](int t) {
    const std::size_t lo = static_cast<std::size_t>(t) * slice;
    const std::size_t hi = t + 1 == threads ? kN : lo + slice;
    for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
  };
  // Pass 0 (first touch + warm) is off the record. Each pass is timed on
  // the calling thread (slice 0) from the release to the last finisher.
  std::barrier sync(threads);
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int pass = 0; pass <= kTriadPasses; ++pass) {
        sync.arrive_and_wait();
        run_slice(t);
        sync.arrive_and_wait();
      }
    });
  }
  std::vector<double> seconds;
  for (int pass = 0; pass <= kTriadPasses; ++pass) {
    sync.arrive_and_wait();
    const auto t0 = std::chrono::steady_clock::now();
    run_slice(0);
    sync.arrive_and_wait();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (pass > 0) seconds.push_back(s);
  }
  for (std::thread& w : workers) w.join();
  std::sort(seconds.begin(), seconds.end());
  // 3 arrays x 8 bytes per element per pass (write-allocate traffic on
  // `a` is real but not counted -- STREAM convention).
  const double bytes = 3.0 * 8.0 * static_cast<double>(kN);
  return {bytes / seconds.front() / 1e9,
          bytes / seconds[seconds.size() / 2] / 1e9};
}

/// Lower-bound bytes one fused k-RHS solve must move: structure + values
/// once, every RHS element once through gather/b/x.
double solve_bytes_model(const sparse::CscMatrix& l, index_t k) {
  const auto n = static_cast<double>(l.rows);
  const auto nnz = static_cast<double>(l.nnz());
  const double kd = static_cast<double>(k);
  const double structure = (n + 1) * sizeof(offset_t) +  // row_ptr
                           nnz * sizeof(index_t) +       // col_idx
                           nnz * sizeof(value_t);        // values
  const double rhs = (nnz - n) * kd * sizeof(value_t) +  // x gathers
                     n * kd * sizeof(value_t) +          // b reads
                     n * kd * sizeof(value_t);           // x writes
  return structure + rhs;
}

double solve_batch_us(const core::SolverPlan& plan,
                      std::span<const value_t> batch, index_t k) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = plan.solve_batch(batch, k);
  if (!r.ok()) throw SolveFailed("kernel-study solve failed: " + r.message());
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int write_kernel_json() {
  const char* path_env = std::getenv("MSPTRSV_BENCH_KERNEL_JSON");
  const std::string path = path_env ? path_env : "BENCH_kernel.json";
  const auto& l = kernel_matrix();
  const int threads = kernel_threads();
  const unsigned hw = std::thread::hardware_concurrency();

  const TriadResult triad = stream_triad(threads);
  const double ceiling = triad.best_gbps;
  std::printf("BENCH_kernel STREAM triad ceiling %.1f GB/s, median %.1f GB/s "
              "(%d threads, %d passes)\n",
              ceiling, triad.median_gbps, threads, kTriadPasses);

  // Achieved GB/s per kernel at 16 RHS.
  struct RooflineCase {
    std::string backend;
    double solve_us;
    double achieved_gbps;
  };
  std::vector<RooflineCase> roofline;
  const index_t k16 = 16;
  const double bytes16 = solve_bytes_model(l, k16);
  for (const char* key : {"serial", "cpu-levelset"}) {
    core::SolveOptions o = core::registry::options_for(key).value();
    o.cpu_threads = threads;
    const core::SolverPlan plan = core::SolverPlan::analyze(l, o).value();
    solve_batch_us(plan, kernel_batch16(), k16);  // warm
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      best = std::min(best, solve_batch_us(plan, kernel_batch16(), k16));
    }
    RooflineCase c;
    c.backend = key;
    c.solve_us = best;
    c.achieved_gbps = bytes16 / best / 1e3;  // bytes/us -> GB/s
    roofline.push_back(c);
    std::printf("BENCH_kernel %-13s rhs=16  %9.1f us  %6.2f GB/s  "
                "(%.0f%% of ceiling)\n",
                c.backend.c_str(), c.solve_us, c.achieved_gbps,
                100.0 * c.achieved_gbps / ceiling);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 3;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"host kernel roofline\",\n"
               "  \"matrix\": {\"rows\": %d, \"nnz\": %lld, \"levels\": 60},\n"
               "  \"cpu_threads\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"stream_triad_gbps\": %.2f,\n"
               "  \"stream_triad_median_gbps\": %.2f,\n"
               "  \"stream_triad_passes\": %d,\n"
               "  \"bytes_model\": \"structure once + every rhs element once "
               "(lower bound)\",\n"
               "  \"roofline\": [\n",
               l.rows, static_cast<long long>(l.nnz()), threads, hw, ceiling,
               triad.median_gbps, kTriadPasses);
  for (std::size_t i = 0; i < roofline.size(); ++i) {
    const RooflineCase& c = roofline[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"num_rhs\": 16, \"solve_us\": "
                 "%.1f, \"achieved_gbps\": %.2f, \"ceiling_fraction\": "
                 "%.3f}%s\n",
                 c.backend.c_str(), c.solve_us, c.achieved_gbps,
                 c.achieved_gbps / ceiling,
                 i + 1 < roofline.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// ---- BENCH_plan_io.json ----------------------------------------------------
// Cold-start story of plan persistence: host wall time of SolverPlan
// analysis vs restoring the saved blob, on a deep low-locality matrix (the
// service shape: random dependency structure, so the analysis passes are
// cache-hostile while the blob restore streams at memcpy speed). A host
// blob stores the row form itself, so a host load is read + parse + one
// proof pass against analysis's level analysis and scatter. Upper
// factors additionally fold the U->L reversal into analysis -- the ILU
// preconditioner case.

double best_us_of(const std::function<void()>& f, int reps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    best = std::min(best, std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

int write_plan_io_json() {
  const char* path_env = std::getenv("MSPTRSV_BENCH_PLAN_IO_JSON");
  const std::string path = path_env ? path_env : "BENCH_plan_io.json";
  const std::string blob_path = path + ".plan.tmp";

  // Deep + locality 0: ~12 nnz/row of random far-away dependencies.
  const sparse::CscMatrix lower =
      sparse::gen_layered_dag(100000, 500, 1200000, 0.0, 99);
  const sparse::CscMatrix upper = sparse::transpose(lower);

  struct PlanIoCase {
    std::string backend;
    const char* factor;  // "lower" | "upper"
    double blob_mb;
    double parse_us = 0.0;     // read + decode of the blob, no restore
    double restore_gbps = 0.0; // blob bytes / load time
    double analyze_us;
    double load_us;
    double save_us = 0.0;      // serialize + write of the analyzed plan
    double resident_mb = 0.0;  // the loaded plan's resident_bytes()
  };
  std::vector<PlanIoCase> cases;
  bool gate_ok = true;
  std::string gate_failures;

  // Restore-cost gate: every upper-factor load, and a host plan's lower
  // load, must stay >= 2x faster than analysis. A simulated lower plan's
  // analysis is itself a near-memory-speed pass, and its load checks the
  // stored levels or in-degrees against the factor, so its ratio hovers
  // around 1x BY DESIGN and is reported, not gated. parse_us -- the same
  // blob's file read + decode with no restore -- is reported next to
  // load_us so the proof's (or check's) share shows.

  for (const char* key : {"cpu-levelset", "gpu-levelset", "mg-zerocopy"}) {
    core::SolveOptions o = core::registry::options_for(key).value();
    o.cpu_threads = 2;
    for (const bool is_upper : {false, true}) {
      // Time the ANALYSIS, not a matrix copy: lower plans borrow the
      // in-memory factor (the service already holds it either way).
      // analyze_upper has no borrowed form -- its input is consumed by
      // the reversal -- so the upper path pays one O(nnz) copy, ~2% of
      // its reversal-dominated analysis.
      auto analyze_once = [&]() -> core::Expected<core::SolverPlan> {
        return is_upper
                   ? core::SolverPlan::analyze_upper(sparse::CscMatrix(upper), o)
                   : core::SolverPlan::analyze_borrowed(lower, o);
      };
      auto plan = analyze_once();
      if (!plan.ok()) {
        std::fprintf(stderr, "plan analyze failed: %s\n",
                     plan.message().c_str());
        return 3;
      }
      PlanIoCase c;
      c.save_us = best_us_of(
          [&] {
            if (!plan->save(blob_path).ok()) {
              throw SolveFailed("cannot write " + blob_path);
            }
          },
          3);
      const auto blob = plan->serialize();
      c.backend = key;
      c.factor = is_upper ? "upper" : "lower";
      c.blob_mb = static_cast<double>(blob.value().size()) / 1e6;
      const bool host = std::string(key) == "cpu-levelset";
      c.parse_us = best_us_of(
          [&] {
            std::vector<std::uint8_t> bytes;
            core::SnapshotBlob parsed;
            if (!support::read_file(blob_path, bytes) ||
                !core::deserialize_snapshot(bytes, parsed).empty()) {
              throw SolveFailed("blob parse failed");
            }
          },
          3);
      c.analyze_us = best_us_of([&] { auto p = analyze_once(); (void)p; }, 3);
      c.load_us = best_us_of(
          [&] {
            auto p = core::SolverPlan::load(blob_path, o);
            if (!p.ok()) throw SolveFailed("load failed: " + p.message());
            c.resident_mb = static_cast<double>(p->resident_bytes()) / 1e6;
          },
          3);
      c.restore_gbps = static_cast<double>(blob.value().size()) / c.load_us /
                       1e3;  // bytes/us -> GB/s
      if ((is_upper || host) && c.load_us > c.analyze_us / 2.0) {
        gate_ok = false;
        gate_failures += std::string(" [") + key + "/" + c.factor +
                         ": load is not >= 2x faster than analyze]";
      }
      cases.push_back(c);
    }
  }
  std::remove(blob_path.c_str());

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 3;
  }
  auto geomean = [&](const char* factor) {
    double log_sum = 0.0;
    int n = 0;
    for (const PlanIoCase& c : cases) {
      if (std::string(c.factor) == factor) {
        log_sum += std::log(c.analyze_us / c.load_us);
        ++n;
      }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / n);
  };
  std::fprintf(f,
               "{\n  \"bench\": \"plan analyze vs load (cold start)\",\n"
               "  \"matrix\": {\"rows\": %d, \"nnz\": %lld, \"levels\": 500, "
               "\"locality\": 0.0},\n"
               "  \"gates\": \"upper and host lower loads >= 2x faster than "
               "analyze\",\n"
               "  \"lower_speedup_geomean\": %.2f,\n"
               "  \"upper_speedup_geomean\": %.2f,\n  \"cases\": [\n",
               lower.rows, static_cast<long long>(lower.nnz()),
               geomean("lower"), geomean("upper"));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PlanIoCase& c = cases[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"factor\": \"%s\", \"blob_mb\": %.1f, "
        "\"resident_mb\": %.1f, \"parse_us\": %.0f, \"restore_gbps\": %.2f, "
        "\"analyze_us\": %.0f, \"save_us\": %.0f, \"load_us\": %.0f, "
        "\"speedup\": %.2f}%s\n",
        c.backend.c_str(), c.factor, c.blob_mb, c.resident_mb, c.parse_us,
        c.restore_gbps, c.analyze_us, c.save_us, c.load_us,
        c.analyze_us / c.load_us, i + 1 < cases.size() ? "," : "");
    std::printf("BENCH_plan_io %-13s %-5s  blob %6.1f MB  resident %6.1f MB  "
                "analyze %9.0f us  save %9.0f us  load %9.0f us (parse %6.0f)"
                "  speedup %.2fx  restore %5.2f GB/s\n",
                c.backend.c_str(), c.factor, c.blob_mb, c.resident_mb,
                c.analyze_us, c.save_us, c.load_us, c.parse_us,
                c.analyze_us / c.load_us, c.restore_gbps);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  if (!gate_ok) {
    std::fprintf(stderr, "plan-io gates FAILED:%s\n", gate_failures.c_str());
    return 4;
  }
  return 0;
}

// ---- BENCH_budget.json -----------------------------------------------------
// Gate on the cancellation machinery's tax (ISSUE 7 acceptance): the
// budget checks the kernels grew must cost <= 1% on the DEFAULT path (no
// budget set, null token, one branch per boundary). Measured as the
// stronger statement: even the ARMED path (generous budget, strided clock
// reads live) must sit within 1% of the no-budget path, plus the
// machine's own same-code jitter.
//
// Statistic: bench::paired_median_study (bracketed rounds, median paired
// ratios, measured same-code noise floor; see bench_common.hpp). The gate
// is  median_overhead <= max(5%, 1% + noise)  -- the 5% floor keeps an
// unlucky CI box from flaking the build, while a real regression (say, a
// clock read moved inside the row loop) lands at tens of percent and
// cannot hide behind either term.

int write_budget_json() {
  const char* path_env = std::getenv("MSPTRSV_BENCH_BUDGET_JSON");
  const std::string path = path_env ? path_env : "BENCH_budget.json";
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();

  struct BudgetCase {
    std::string backend;
    double inert_us;     // no budget: kernels see a null token
    double armed_us;     // time_budget = 3600s: checks live, never fire
    double noise_pct;    // median |A - B| / min on the identical inert path
    double overhead_pct; // median paired armed/inert - 1
  };
  std::vector<BudgetCase> cases;
  bool gate_ok = true;

  for (const char* key : {"cpu-levelset"}) {
    core::SolveOptions o = core::registry::options_for(key).value();
    // Single worker: the boundary checks under test run identically, but
    // the measurement is not at the mercy of gang scheduling on a noisy
    // CI box -- multi-thread jitter would swamp a 1% signal.
    o.cpu_threads = 1;
    const core::SolverPlan inert = core::SolverPlan::analyze(l, o).value();
    o.time_budget = 3600.0;
    const core::SolverPlan armed = core::SolverPlan::analyze(l, o).value();

    constexpr int kRounds = 15;
    constexpr int kSolvesPerSample = 8;
    auto sample_us = [&](const core::SolverPlan& plan) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kSolvesPerSample; ++i) {
        const auto r = plan.solve(b);
        if (!r.ok()) {
          throw SolveFailed("budget-study solve failed: " + r.message());
        }
      }
      return std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    sample_us(inert);  // warm the pool + caches off the record
    sample_us(armed);

    const bench::PairedStudy study = bench::paired_median_study(
        [&] { return sample_us(inert); }, [&] { return sample_us(armed); },
        kRounds);
    BudgetCase c;
    c.backend = key;
    c.inert_us = study.baseline_us / kSolvesPerSample;
    c.armed_us = study.candidate_us / kSolvesPerSample;
    c.noise_pct = study.noise_pct;
    c.overhead_pct = study.overhead_pct;
    if (c.overhead_pct > std::max(5.0, 1.0 + c.noise_pct)) gate_ok = false;
    cases.push_back(c);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 3;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"execution-budget check overhead\",\n"
               "  \"matrix\": {\"rows\": %d, \"nnz\": %lld},\n"
               "  \"cpu_threads\": 1,\n  \"gate\": \"median overhead <= "
               "max(5%%, 1%% + measured noise)\",\n  \"cases\": [\n",
               l.rows, static_cast<long long>(l.nnz()));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BudgetCase& c = cases[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"no_budget_us\": %.2f, "
                 "\"armed_budget_us\": %.2f, \"overhead_pct\": %.2f, "
                 "\"noise_pct\": %.2f}%s\n",
                 c.backend.c_str(), c.inert_us, c.armed_us, c.overhead_pct,
                 c.noise_pct, i + 1 < cases.size() ? "," : "");
    std::printf("BENCH_budget %-13s no-budget %8.2f us  armed %8.2f us  "
                "overhead %+.2f%% (noise %.2f%%)\n",
                c.backend.c_str(), c.inert_us, c.armed_us, c.overhead_pct,
                c.noise_pct);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  if (!gate_ok) {
    std::fprintf(stderr,
                 "budget-check overhead gate FAILED: armed budget costs more "
                 "than max(5%%, 1%% + noise) over the no-budget path "
                 "(see above)\n");
    return 4;
  }
  return 0;
}

// ---- BENCH_trace.json ------------------------------------------------------
// Gate on the tracing layer's tax (ISSUE 9 acceptance): ARMED span
// recording -- every macro site live, kernel leaders emitting per-level
// spans into their rings -- must sit within 3% of the disarmed
// path (whose cost is one relaxed load per site), plus the machine's own
// same-code jitter. Same statistic and flake guard as the budget study:
// median paired ratios over bracketed rounds, gate
// median_overhead <= max(5%, 3% + noise).
//
// Also writes trace_sample.json -- the armed run's collected span
// document -- which CI validates with scripts/check_trace.py, so the
// Perfetto-loadable shape is pinned by the build, not just by unit tests.

int write_trace_json() {
  const char* path_env = std::getenv("MSPTRSV_BENCH_TRACE_JSON");
  const std::string path = path_env ? path_env : "BENCH_trace.json";
  const char* sample_env = std::getenv("MSPTRSV_BENCH_TRACE_SAMPLE");
  const std::string sample_path = sample_env ? sample_env : "trace_sample.json";
  const auto& l = bench_matrix();
  const auto& b = bench_rhs();

  struct TraceCase {
    std::string backend;
    double disarmed_us;
    double armed_us;
    double noise_pct;
    double overhead_pct;
  };
  std::vector<TraceCase> cases;
  bool gate_ok = true;
  const bool compiled = support::trace::trace_compiled();

  for (const char* key : {"cpu-levelset"}) {
    core::SolveOptions o = core::registry::options_for(key).value();
    // Single worker, as in the budget study: the macro sites under test
    // run identically, without gang-scheduling jitter swamping the signal.
    o.cpu_threads = 1;
    const core::SolverPlan plan = core::SolverPlan::analyze(l, o).value();

    constexpr int kRounds = 15;
    constexpr int kSolvesPerSample = 8;
    auto sample_us = [&](bool armed) {
      support::trace::trace_set_enabled(armed);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kSolvesPerSample; ++i) {
        const auto r = plan.solve(b);
        if (!r.ok()) {
          throw SolveFailed("trace-study solve failed: " + r.message());
        }
      }
      return std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    sample_us(false);  // warm the pool + caches off the record
    sample_us(true);

    const bench::PairedStudy study = bench::paired_median_study(
        [&] { return sample_us(false); }, [&] { return sample_us(true); },
        kRounds);
    support::trace::trace_set_enabled(false);
    support::trace::trace_clear();  // the rings the armed rounds filled
    TraceCase c;
    c.backend = key;
    c.disarmed_us = study.baseline_us / kSolvesPerSample;
    c.armed_us = study.candidate_us / kSolvesPerSample;
    c.noise_pct = study.noise_pct;
    c.overhead_pct = study.overhead_pct;
    if (compiled && c.overhead_pct > std::max(5.0, 3.0 + c.noise_pct)) {
      gate_ok = false;
    }
    cases.push_back(c);
  }

  // The CI-validated sample: one armed, trace-context'd solve, dumped as
  // the document an operator would pull with kTraceDump.
  if (compiled) {
    support::trace::trace_clear();
    support::trace::trace_set_enabled(true);
    {
      const support::trace::TraceId id = support::trace::make_trace_id();
      support::trace::ScopedTraceContext ctx(id);
      core::SolveOptions o = core::registry::options_for("cpu-levelset").value();
      o.cpu_threads = 1;
      const core::SolverPlan plan = core::SolverPlan::analyze(l, o).value();
      const auto r = plan.solve(b);
      if (!r.ok()) {
        throw SolveFailed("trace-sample solve failed: " + r.message());
      }
    }
    support::trace::trace_set_enabled(false);
    const std::string doc = support::trace::trace_collect_json();
    support::trace::trace_clear();
    std::FILE* sf = std::fopen(sample_path.c_str(), "w");
    if (sf == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", sample_path.c_str());
      return 3;
    }
    std::fwrite(doc.data(), 1, doc.size(), sf);
    std::fclose(sf);
    std::printf("wrote %s (%zu bytes)\n", sample_path.c_str(), doc.size());
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 3;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"armed-tracing overhead\",\n"
               "  \"matrix\": {\"rows\": %d, \"nnz\": %lld},\n"
               "  \"cpu_threads\": 1,\n  \"trace_compiled\": %s,\n"
               "  \"gate\": \"median overhead <= max(5%%, 3%% + measured "
               "noise)\",\n  \"cases\": [\n",
               l.rows, static_cast<long long>(l.nnz()),
               compiled ? "true" : "false");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TraceCase& c = cases[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"disarmed_us\": %.2f, "
                 "\"armed_us\": %.2f, \"overhead_pct\": %.2f, "
                 "\"noise_pct\": %.2f}%s\n",
                 c.backend.c_str(), c.disarmed_us, c.armed_us, c.overhead_pct,
                 c.noise_pct, i + 1 < cases.size() ? "," : "");
    std::printf("BENCH_trace %-13s disarmed %8.2f us  armed %8.2f us  "
                "overhead %+.2f%% (noise %.2f%%)\n",
                c.backend.c_str(), c.disarmed_us, c.armed_us, c.overhead_pct,
                c.noise_pct);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  if (!gate_ok) {
    std::fprintf(stderr,
                 "armed-tracing overhead gate FAILED: recording spans costs "
                 "more than max(5%%, 3%% + noise) over the disarmed path "
                 "(see above)\n");
    return 4;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Every study runs, whatever an earlier one returned, so each writes its
  // JSON and one failed gate never hides another. Exit 3 if any solve
  // failed, else 4 if any gate failed, else 0.
  struct Study {
    const char* name;
    int (*run)();
  };
  bool solve_failed = false;
  bool gate_failed = false;
  for (const Study& study :
       {Study{"batch", write_batch_json}, Study{"budget", write_budget_json},
        Study{"trace", write_trace_json}, Study{"kernel", write_kernel_json},
        Study{"plan-io", write_plan_io_json}}) {
    int rc;
    try {
      rc = study.run();
    } catch (const SolveFailed& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = 3;
    }
    if (rc == 3) {
      solve_failed = true;
      std::fprintf(stderr, "bench_micro: %s study FAILED to run\n",
                   study.name);
    } else if (rc != 0) {
      gate_failed = true;
      std::fprintf(stderr, "bench_micro: %s gate FAILED\n", study.name);
    }
  }
  return solve_failed ? 3 : gate_failed ? 4 : 0;
}
