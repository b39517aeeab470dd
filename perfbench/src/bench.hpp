// Shared pieces of the perfbench binary: command-line arguments, the
// result a workload hands back, sample statistics, and the SPD test
// problems the preconditioned-CG workloads solve.
#pragma once

#include <chrono>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using msptrsv::index_t;
using msptrsv::offset_t;
using msptrsv::value_t;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// Per-layer run: time the calls into each layer and report the
  /// per_layer metrics instead of the end-to-end ones.
  bool trace = false;
};

/// Full set-ups per run; setup_s is their median.
constexpr int kSetups = 11;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload measured. `op_ms` holds the latency of every
/// operation completed inside the measured window.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_ms;
  double window_s = 0.0;
  /// Wall time of each full set-up the run made.
  std::vector<double> setup_s;
  /// Per-layer metrics; filled only on traced runs.
  std::vector<Metric> layers;
};

/// The per-layer figures, one field per per_layer metric. Every workload
/// reports every field: the time fields are measured on all of them, and
/// a count or share of a layer a workload does not use stays 0.
struct Layers {
  double build_ms = 0.0;        ///< sparse: generate + factorize, per set-up
  double plan_ms = 0.0;         ///< core: analysis of one plan
  double trsv_ms = 0.0;         ///< core: one triangular-solve call
  double trsv_share_pct = 0.0;  ///< share of operation time in those calls
  double iterations = 0.0;      ///< solver: CG iterations per operation
  double levels = 0.0;          ///< sparse: level-set depth of the factors
  double queue_share_pct = 0.0; ///< service: queue wait share of latency
  double wire_share_pct = 0.0;  ///< net: share of latency outside the server
  double coalesce_width = 0.0;  ///< service: right-hand sides per dispatch
  double sim_speedup = 0.0;     ///< sim: 4GPU-Zerocopy over 4GPU-Unified
};
std::vector<Metric> layer_metrics(const Layers& l);

Outcome run_pcg(const Args& args);
Outcome run_pcg_block(const Args& args);
Outcome run_serve(const Args& args);
Outcome run_paper(const Args& args);

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
/// Kept here rather than reusing support::percentile so that a change to
/// the library under test cannot change how the benchmark scores it.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
inline double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double s_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulates the time spent in calls into one layer. Inert (never reads
/// the clock) unless enabled, so untraced runs pay nothing for it.
class LayerClock {
 public:
  explicit LayerClock(bool enabled) : enabled_(enabled) {}
  template <class F>
  decltype(auto) time(F&& f) {
    if (!enabled_) return f();
    const auto t0 = Clock::now();
    struct Stop {
      LayerClock& c;
      Clock::time_point t0;
      ~Stop() {
        c.total_ms_ += ms_since(t0);
        ++c.calls_;
      }
    } stop{*this, t0};
    return f();
  }
  double total_ms() const { return total_ms_; }
  double mean_ms() const { return calls_ ? total_ms_ / double(calls_) : 0.0; }

 private:
  bool enabled_;
  double total_ms_ = 0.0;
  std::uint64_t calls_ = 0;
};

// ---- test problems ----------------------------------------------------------

/// Grid Laplacian (5-point for nz == 1, else 7-point) with seeded edge
/// conductances in [1, 2] and Dirichlet boundaries: a symmetric M-matrix,
/// diagonally dominant and strictly so on the boundary, so SPD and
/// IC(0)-factorizable. The structure is
/// fixed by the grid; the seed only moves values, so every seed costs the
/// same work.
msptrsv::sparse::CsrMatrix grid_spd(index_t nx, index_t ny, index_t nz,
                                    std::uint64_t seed);

/// y = A x for a CSR matrix.
void spmv(const msptrsv::sparse::CsrMatrix& a, std::span<const value_t> x,
          std::span<value_t> y);

/// Seeded vector with entries uniform in [-1, 1].
std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed);

double dot(std::span<const value_t> a, std::span<const value_t> b);

}  // namespace perfbench
