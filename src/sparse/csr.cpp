#include "sparse/csr.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace msptrsv::sparse {

std::span<const index_t> CsrMatrix::row_cols(index_t i) const {
  MSPTRSV_REQUIRE(i >= 0 && i < rows, "row index out of range");
  return {col_idx.data() + row_ptr[i],
          static_cast<std::size_t>(row_ptr[i + 1] - row_ptr[i])};
}

std::span<const value_t> CsrMatrix::row_values(index_t i) const {
  MSPTRSV_REQUIRE(i >= 0 && i < rows, "row index out of range");
  return {val.data() + row_ptr[i],
          static_cast<std::size_t>(row_ptr[i + 1] - row_ptr[i])};
}

void CsrMatrix::validate() const {
  MSPTRSV_ENSURE(rows >= 0 && cols >= 0, "negative dimensions");
  MSPTRSV_ENSURE(row_ptr.size() == static_cast<std::size_t>(rows) + 1,
                 "row_ptr must have rows+1 entries");
  MSPTRSV_ENSURE(row_ptr.front() == 0, "row_ptr must start at 0");
  MSPTRSV_ENSURE(row_ptr.back() == nnz(), "row_ptr must end at nnz");
  MSPTRSV_ENSURE(col_idx.size() == val.size(), "col_idx/val size mismatch");
  // Monotone pointers first, so no row range reaches past nnz.
  for (index_t i = 0; i < rows; ++i) {
    MSPTRSV_ENSURE(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be monotone");
  }
  const index_t* idx = col_idx.data();
  for (index_t i = 0; i < rows; ++i) {
    index_t prev = -1;  // columns rise strictly from 0 and stay below `cols`
    for (offset_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const index_t c = idx[k];
      if (c <= prev || c >= cols) {  // cold: name the violation
        MSPTRSV_ENSURE(c >= 0 && c < cols, "col index out of range");
        MSPTRSV_ENSURE(c > prev, "cols must be sorted and unique within a row");
      }
      prev = c;
    }
  }
}

CsrMatrix csr_from_csc(const CscMatrix& m) {
  // A CSR view of m is the CSC of its transpose with dims swapped back.
  CscMatrix t = transpose(m);
  CsrMatrix r;
  r.rows = m.rows;
  r.cols = m.cols;
  r.row_ptr = std::move(t.col_ptr);
  r.col_idx = std::move(t.row_idx);
  r.val = std::move(t.val);
  r.validate();
  return r;
}

CscMatrix csc_from_csr(CsrMatrix m) {
  CscMatrix as_csc;  // interpret CSR arrays as the CSC of the transpose
  as_csc.rows = m.cols;
  as_csc.cols = m.rows;
  as_csc.col_ptr = std::move(m.row_ptr);
  as_csc.row_idx = std::move(m.col_idx);
  as_csc.val = std::move(m.val);
  return transpose(as_csc);
}

CsrMatrix csr_from_coo(CooMatrix coo) {
  coo.normalize();
  CsrMatrix r;
  r.rows = coo.rows;
  r.cols = coo.cols;
  r.row_ptr.assign(static_cast<std::size_t>(r.rows) + 1, 0);
  r.col_idx.resize(coo.entries.size());
  r.val.resize(coo.entries.size());
  for (const Triplet& t : coo.entries) r.row_ptr[t.row + 1]++;
  for (index_t i = 0; i < r.rows; ++i) r.row_ptr[i + 1] += r.row_ptr[i];
  // One scatter by row; the column-major entries leave every row's
  // columns ascending.
  std::vector<offset_t> next(r.row_ptr.begin(), r.row_ptr.end() - 1);
  for (const Triplet& t : coo.entries) {
    const offset_t k = next[static_cast<std::size_t>(t.row)]++;
    r.col_idx[k] = t.col;
    r.val[k] = t.value;
  }
  r.validate();
  return r;
}

}  // namespace msptrsv::sparse
