// Coordinate-format sparse matrix: the assembly format every generator and
// the Matrix Market reader produce before conversion to CSC/CSR.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace msptrsv::sparse {

/// One nonzero entry.
struct Triplet {
  index_t row = 0;
  index_t col = 0;
  value_t value = 0.0;
};

/// Unordered triplet list with explicit dimensions. Duplicates are allowed
/// until normalize() combines them (by summation, the Matrix Market rule).
/// Repeats of one (row, col) are summed left to right in insertion order,
/// so three or more of them give the same bits on every platform.
struct CooMatrix {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<Triplet> entries;

  offset_t nnz() const { return static_cast<offset_t>(entries.size()); }

  void add(index_t r, index_t c, value_t v) { entries.push_back({r, c, v}); }

  /// Sorts column-major (col, then row) and sums duplicates in place, in
  /// insertion order. Two stable counting passes: O(nnz + rows + cols)
  /// time and one nnz-sized scratch array; an input already strictly
  /// column-major returns after one scan.
  void normalize();

  /// Throws PreconditionError if any index is out of range.
  void validate() const;
};

}  // namespace msptrsv::sparse
