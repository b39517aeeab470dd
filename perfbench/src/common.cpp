#include <algorithm>
#include <cmath>
#include <random>

#include "bench.hpp"
#include "sparse/coo.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

std::vector<Metric> layer_metrics(const Layers& l) {
  return {
      {"build_ms", l.build_ms, "ms"},
      {"plan_ms", l.plan_ms, "ms"},
      {"trsv_ms", l.trsv_ms, "ms"},
      {"trsv_share_pct", l.trsv_share_pct, "%"},
      {"iterations", l.iterations, "count"},
      {"levels", l.levels, "count"},
      {"queue_share_pct", l.queue_share_pct, "%"},
      {"wire_share_pct", l.wire_share_pct, "%"},
      {"coalesce_width", l.coalesce_width, "rhs"},
      {"sim_speedup", l.sim_speedup, "x"},
  };
}

msptrsv::sparse::CsrMatrix grid_spd(index_t nx, index_t ny, index_t nz,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> conductance(1.0, 2.0);
  const index_t n = nx * ny * nz;
  msptrsv::sparse::CooMatrix coo;
  coo.rows = coo.cols = n;
  std::vector<double> diag(static_cast<std::size_t>(n), 0.0);
  auto id = [&](index_t x, index_t y, index_t z) { return (z * ny + y) * nx + x; };
  // Each cell couples to its +x/+y/+z neighbour; a missing neighbour is a
  // Dirichlet boundary, which adds its conductance to the diagonal only.
  auto couple = [&](index_t a, index_t b, bool inside) {
    const double c = conductance(rng);
    diag[static_cast<std::size_t>(a)] += c;
    if (!inside) return;
    diag[static_cast<std::size_t>(b)] += c;
    coo.add(a, b, -c);
    coo.add(b, a, -c);
  };
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t i = id(x, y, z);
        couple(i, x + 1 < nx ? id(x + 1, y, z) : 0, x + 1 < nx);
        couple(i, y + 1 < ny ? id(x, y + 1, z) : 0, y + 1 < ny);
        if (nz > 1) couple(i, z + 1 < nz ? id(x, y, z + 1) : 0, z + 1 < nz);
        if (x == 0) diag[static_cast<std::size_t>(i)] += 1.0;
        if (y == 0) diag[static_cast<std::size_t>(i)] += 1.0;
        if (nz > 1 && z == 0) diag[static_cast<std::size_t>(i)] += 1.0;
      }
    }
  }
  for (index_t i = 0; i < n; ++i) coo.add(i, i, diag[static_cast<std::size_t>(i)]);
  coo.normalize();
  return msptrsv::sparse::csr_from_coo(std::move(coo));
}

void spmv(const msptrsv::sparse::CsrMatrix& a, std::span<const value_t> x,
          std::span<value_t> y) {
  for (index_t i = 0; i < a.rows; ++i) {
    value_t s = 0.0;
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      s += a.val[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = s;
  }
}

std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<value_t> v(n);
  for (value_t& x : v) x = u(rng);
  return v;
}

double dot(std::span<const value_t> a, std::span<const value_t> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace perfbench
