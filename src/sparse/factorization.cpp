#include "sparse/factorization.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "sparse/triangular.hpp"
#include "support/contracts.hpp"

namespace msptrsv::sparse {

namespace {

/// Returns the position of the diagonal entry in each row; requires it to
/// be structurally present.
std::vector<offset_t> diagonal_positions(const CsrMatrix& a) {
  std::vector<offset_t> diag(static_cast<std::size_t>(a.rows), -1);
  for (index_t i = 0; i < a.rows; ++i) {
    for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      if (a.col_idx[k] == i) {
        diag[static_cast<std::size_t>(i)] = k;
        break;
      }
    }
    MSPTRSV_REQUIRE(diag[static_cast<std::size_t>(i)] >= 0,
                    "ILU(0)/IC(0) requires a structurally full diagonal (row " +
                        std::to_string(i) + ")");
  }
  return diag;
}

}  // namespace

IluResult ilu0(const CsrMatrix& a, value_t pivot_floor) {
  MSPTRSV_REQUIRE(a.is_square(), "ILU(0) requires a square matrix");
  a.validate();
  MSPTRSV_REQUIRE(pivot_floor > 0.0, "pivot_floor must be positive");

  CsrMatrix f = a;  // factor in place on the pattern of a (IKJ variant)
  const std::vector<offset_t> diag = diagonal_positions(f);

  // Scatter buffer: position of column j in the current row, or -1.
  std::vector<offset_t> pos(static_cast<std::size_t>(f.cols), -1);
  for (index_t i = 0; i < f.rows; ++i) {
    for (offset_t k = f.row_ptr[i]; k < f.row_ptr[i + 1]; ++k) {
      pos[static_cast<std::size_t>(f.col_idx[k])] = k;
    }
    // Eliminate with every previous row k that appears in row i.
    for (offset_t kk = f.row_ptr[i]; kk < f.row_ptr[i + 1]; ++kk) {
      const index_t k = f.col_idx[kk];
      if (k >= i) break;
      value_t pivot = f.val[diag[static_cast<std::size_t>(k)]];
      if (std::abs(pivot) < pivot_floor) {
        pivot = pivot < 0 ? -pivot_floor : pivot_floor;
      }
      const value_t lik = f.val[kk] / pivot;
      f.val[kk] = lik;
      // Subtract lik * row_k restricted to the pattern of row i.
      for (offset_t kj = diag[static_cast<std::size_t>(k)] + 1;
           kj < f.row_ptr[k + 1]; ++kj) {
        const offset_t p = pos[static_cast<std::size_t>(f.col_idx[kj])];
        if (p >= 0) f.val[p] -= lik * f.val[kj];
      }
    }
    for (offset_t k = f.row_ptr[i]; k < f.row_ptr[i + 1]; ++k) {
      pos[static_cast<std::size_t>(f.col_idx[k])] = -1;
    }
    // Guard the pivot of row i for subsequent eliminations.
    value_t& piv = f.val[diag[static_cast<std::size_t>(i)]];
    if (std::abs(piv) < pivot_floor) piv = piv < 0 ? -pivot_floor : pivot_floor;
  }

  // Split into unit-lower L and upper U, row by row in CSR form: row i of
  // f holds L's row i left of its diagonal and U's row i from it on. One
  // counting scatter then turns each into CSC.
  const index_t n = f.rows;
  CsrMatrix lo, up;
  lo.rows = lo.cols = up.rows = up.cols = n;
  lo.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  up.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  auto append = [&f](CsrMatrix& m, offset_t from, offset_t to) {
    m.col_idx.insert(m.col_idx.end(), f.col_idx.begin() + from,
                     f.col_idx.begin() + to);
    m.val.insert(m.val.end(), f.val.begin() + from, f.val.begin() + to);
  };
  for (index_t i = 0; i < n; ++i) {
    const offset_t d = diag[static_cast<std::size_t>(i)];
    append(lo, f.row_ptr[i], d);
    lo.col_idx.push_back(i);
    lo.val.push_back(1.0);
    append(up, d, f.row_ptr[i + 1]);
    lo.row_ptr[i + 1] = lo.nnz();
    up.row_ptr[i + 1] = up.nnz();
  }
  IluResult out{csc_from_csr(std::move(lo)), csc_from_csr(std::move(up))};
  require_solvable_lower(out.lower);
  return out;
}

CscMatrix ic0(const CsrMatrix& a, value_t pivot_floor) {
  MSPTRSV_REQUIRE(a.is_square(), "IC(0) requires a square matrix");
  a.validate();
  MSPTRSV_REQUIRE(pivot_floor > 0.0, "pivot_floor must be positive");

  // Build L row by row in flat CSR arrays: row i holds the strictly lower
  // pattern of row i of A (columns ascending), then its diagonal.
  //   L(i,j) = (A(i,j) - sum_k L(i,k) L(j,k)) / L(j,j),  k < j on pattern
  //   L(i,i) = sqrt(A(i,i) - sum_k L(i,k)^2)
  const index_t n = a.rows;
  CsrMatrix l;
  l.rows = l.cols = n;
  l.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    offset_t below = 0;
    for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      if (a.col_idx[k] < i) ++below;
    }
    l.row_ptr[i + 1] = l.row_ptr[i] + below + 1;
  }
  l.col_idx.resize(static_cast<std::size_t>(l.row_ptr[n]));
  l.val.resize(static_cast<std::size_t>(l.row_ptr[n]));

  // Dense scatter of row i of L for the dot products.
  std::vector<value_t> dense(static_cast<std::size_t>(n), 0.0);

  for (index_t i = 0; i < n; ++i) {
    const offset_t begin = l.row_ptr[i];
    const offset_t diag = l.row_ptr[i + 1] - 1;
    value_t aii = 0.0;
    offset_t p = begin;
    for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t j = a.col_idx[k];
      if (j < i) {
        l.col_idx[p] = j;
        l.val[p++] = a.val[k];
      } else if (j == i) {
        aii = a.val[k];
      }
    }
    // Run the eliminations in ascending column order.
    for (offset_t t = begin; t < diag; ++t) {
      const index_t j = l.col_idx[t];
      const offset_t jdiag = l.row_ptr[j + 1] - 1;
      // dot(L_i, L_j) over the off-diagonal pattern of row j; dense[]
      // currently holds row i's entries for columns < j.
      value_t sum = l.val[t];
      for (offset_t s = l.row_ptr[j]; s < jdiag; ++s) {
        sum -= dense[static_cast<std::size_t>(l.col_idx[s])] * l.val[s];
      }
      const value_t ljj = l.val[jdiag];
      const value_t lij =
          sum / (std::abs(ljj) < pivot_floor ? pivot_floor : ljj);
      l.val[t] = lij;
      dense[static_cast<std::size_t>(j)] = lij;
    }
    // Diagonal.
    value_t d = aii;
    for (offset_t t = begin; t < diag; ++t) d -= l.val[t] * l.val[t];
    l.col_idx[diag] = i;
    l.val[diag] = d > pivot_floor ? std::sqrt(d) : std::sqrt(pivot_floor);
    // Clear scatter.
    for (offset_t t = begin; t < diag; ++t) {
      dense[static_cast<std::size_t>(l.col_idx[t])] = 0.0;
    }
  }

  CscMatrix out = csc_from_csr(std::move(l));
  require_solvable_lower(out);
  return out;
}

CscMatrix lower_factor_of(const CscMatrix& a) {
  MSPTRSV_REQUIRE(a.is_square(), "lower_factor_of requires a square matrix");
  // Ensure a structurally full diagonal before factorizing.
  CooMatrix coo = coo_from_csc(a);
  std::vector<bool> has_diag(static_cast<std::size_t>(a.cols), false);
  for (const Triplet& t : coo.entries) {
    if (t.row == t.col) has_diag[static_cast<std::size_t>(t.col)] = true;
  }
  for (index_t j = 0; j < a.cols; ++j) {
    if (!has_diag[static_cast<std::size_t>(j)]) coo.add(j, j, 1.0);
  }
  IluResult f = ilu0(csr_from_coo(std::move(coo)));
  return std::move(f.lower);
}

}  // namespace msptrsv::sparse
