#include "core/reference.hpp"

#include <algorithm>

#include "sparse/triangular.hpp"
#include "support/contracts.hpp"

namespace msptrsv::core {

std::vector<value_t> solve_lower_serial(const sparse::CscMatrix& lower,
                                        std::span<const value_t> b) {
  sparse::require_solvable_lower(lower);
  MSPTRSV_REQUIRE(b.size() == static_cast<std::size_t>(lower.rows),
                  "rhs length must match the matrix dimension");
  return solve_lower_serial_prevalidated(lower, b);
}

std::vector<value_t> solve_lower_serial_prevalidated(
    const sparse::CscMatrix& lower, std::span<const value_t> b) {
  const index_t n = lower.rows;
  std::vector<value_t> x(static_cast<std::size_t>(n));
  std::vector<value_t> left_sum(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    // Diagonal leads the column by the solvable-lower invariant.
    const offset_t d = lower.col_ptr[i];
    const value_t xi =
        (b[static_cast<std::size_t>(i)] - left_sum[static_cast<std::size_t>(i)]) /
        lower.val[d];
    x[static_cast<std::size_t>(i)] = xi;
    for (offset_t k = d + 1; k < lower.col_ptr[i + 1]; ++k) {
      left_sum[static_cast<std::size_t>(lower.row_idx[k])] +=
          lower.val[k] * xi;
    }
  }
  return x;
}

std::vector<value_t> solve_lower_serial_fused(const sparse::CscMatrix& lower,
                                              std::span<const value_t> b,
                                              index_t num_rhs) {
  const index_t n = lower.rows;
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  MSPTRSV_REQUIRE(num_rhs >= 1 && b.size() == un * k,
                  "batch must be column-major n x num_rhs");
  std::vector<value_t> x(un * k);
  // Component-major accumulators keep the per-component RHS sweep
  // contiguous (and vectorizable: no atomics on the serial path).
  std::vector<value_t> left_sum(un * k, 0.0);
  for (index_t i = 0; i < n; ++i) {
    const offset_t d = lower.col_ptr[i];
    const value_t diag = lower.val[d];
    value_t* acc = left_sum.data() + static_cast<std::size_t>(i) * k;
    for (std::size_t r = 0; r < k; ++r) {
      x[r * un + static_cast<std::size_t>(i)] =
          (b[r * un + static_cast<std::size_t>(i)] - acc[r]) / diag;
    }
    for (offset_t e = d + 1; e < lower.col_ptr[i + 1]; ++e) {
      const value_t lv = lower.val[e];
      value_t* dep =
          left_sum.data() + static_cast<std::size_t>(lower.row_idx[e]) * k;
      for (std::size_t r = 0; r < k; ++r) {
        dep[r] += lv * x[r * un + static_cast<std::size_t>(i)];
      }
    }
  }
  return x;
}

void pack_interleaved(std::span<const value_t> column_major, index_t n,
                      index_t num_rhs, value_t* panel) {
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  // Output-sequential: the writes stream; the k read streams (one per
  // rhs, stride n apart) each advance a cache line at a time.
  for (std::size_t i = 0; i < un; ++i) {
    for (std::size_t r = 0; r < k; ++r) {
      panel[i * k + r] = column_major[r * un + i];
    }
  }
}

void unpack_interleaved(const value_t* panel, index_t n, index_t num_rhs,
                        std::span<value_t> column_major) {
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  // Output-sequential the other way round.
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t i = 0; i < un; ++i) {
      column_major[r * un + i] = panel[i * k + r];
    }
  }
}

std::vector<value_t> solve_upper_serial(const sparse::CscMatrix& upper,
                                        std::span<const value_t> b) {
  MSPTRSV_REQUIRE(upper.is_square(),
                  "triangular solve requires a square matrix");
  MSPTRSV_REQUIRE(sparse::is_upper_triangular(upper),
                  "solve_upper_serial expects an upper-triangular matrix");
  MSPTRSV_REQUIRE(b.size() == static_cast<std::size_t>(upper.rows),
                  "rhs length must match the matrix dimension");
  const index_t n = upper.rows;
  std::vector<value_t> x(static_cast<std::size_t>(n));
  std::vector<value_t> right_sum(static_cast<std::size_t>(n), 0.0);
  for (index_t i = n - 1; i >= 0; --i) {
    // Diagonal terminates the column (rows sorted ascending).
    const offset_t last = upper.col_ptr[i + 1] - 1;
    MSPTRSV_REQUIRE(upper.col_ptr[i] <= last && upper.row_idx[last] == i &&
                        upper.val[last] != 0.0,
                    "upper factor is singular at column " + std::to_string(i));
    const value_t xi = (b[static_cast<std::size_t>(i)] -
                        right_sum[static_cast<std::size_t>(i)]) /
                       upper.val[last];
    x[static_cast<std::size_t>(i)] = xi;
    for (offset_t k = upper.col_ptr[i]; k < last; ++k) {
      right_sum[static_cast<std::size_t>(upper.row_idx[k])] +=
          upper.val[k] * xi;
    }
  }
  return x;
}

sparse::CscMatrix reverse_upper_to_lower(const sparse::CscMatrix& upper) {
  MSPTRSV_REQUIRE(upper.is_square(), "triangular solve requires a square matrix");
  upper.validate();
  MSPTRSV_REQUIRE(sparse::is_upper_triangular(upper),
                  "reverse_upper_to_lower expects an upper-triangular matrix");
  sparse::CscMatrix lower = reverse_upper_to_lower_prevalidated(upper);
  sparse::require_solvable_lower(lower);
  return lower;
}

sparse::CscMatrix reverse_upper_to_lower_prevalidated(
    const sparse::CscMatrix& upper) {
  const index_t n = upper.rows;
  sparse::CscMatrix lower;
  lower.rows = lower.cols = n;
  lower.col_ptr.resize(static_cast<std::size_t>(n) + 1);
  lower.row_idx.resize(upper.row_idx.size());
  lower.val.resize(upper.val.size());
  // Upper column j, its rows mirrored (i -> n-1-i) and walked backwards,
  // is lower column n-1-j -- already sorted, so no COO round trip.
  lower.col_ptr[0] = 0;
  offset_t out = 0;
  for (index_t c = 0; c < n; ++c) {
    const index_t j = n - 1 - c;
    for (offset_t k = upper.col_ptr[j + 1]; k-- > upper.col_ptr[j];) {
      lower.row_idx[static_cast<std::size_t>(out)] = n - 1 - upper.row_idx[k];
      lower.val[static_cast<std::size_t>(out)] = upper.val[k];
      ++out;
    }
    lower.col_ptr[static_cast<std::size_t>(c) + 1] = out;
  }
  return lower;
}

std::vector<value_t> reversed(std::span<const value_t> v) {
  std::vector<value_t> out(v.rbegin(), v.rend());
  return out;
}

}  // namespace msptrsv::core
