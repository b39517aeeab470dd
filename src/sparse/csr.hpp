// Compressed Sparse Row matrix. Used by the ILU(0)/IC(0) factorizations
// (which sweep rows) and by the row-major reference solver; converts to/from
// the CSC format that the multi-GPU solvers consume.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "support/types.hpp"

namespace msptrsv::sparse {

struct CsrMatrix {
  index_t rows = 0;
  index_t cols = 0;
  /// Size rows+1; row i occupies [row_ptr[i], row_ptr[i+1]).
  std::vector<offset_t> row_ptr;
  /// Column index of each nonzero, sorted ascending within a row.
  std::vector<index_t> col_idx;
  std::vector<value_t> val;

  offset_t nnz() const { return static_cast<offset_t>(col_idx.size()); }
  bool is_square() const { return rows == cols; }

  std::span<const index_t> row_cols(index_t i) const;
  std::span<const value_t> row_values(index_t i) const;

  void validate() const;
};

/// Format conversions (structure-preserving, deterministic), each one
/// counting scatter: O(nnz + rows + cols). csc_from_csr reuses the arrays
/// of an rvalue argument.
CsrMatrix csr_from_csc(const CscMatrix& m);
CscMatrix csc_from_csr(CsrMatrix m);
/// Normalizes (duplicates summed in insertion order, see CooMatrix), then
/// scatters by row.
CsrMatrix csr_from_coo(CooMatrix coo);

}  // namespace msptrsv::sparse
