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
