#include "sparse/csc.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace msptrsv::sparse {

std::span<const index_t> CscMatrix::column_rows(index_t j) const {
  MSPTRSV_REQUIRE(j >= 0 && j < cols, "column index out of range");
  return {row_idx.data() + col_ptr[j],
          static_cast<std::size_t>(col_ptr[j + 1] - col_ptr[j])};
}

std::span<const value_t> CscMatrix::column_values(index_t j) const {
  MSPTRSV_REQUIRE(j >= 0 && j < cols, "column index out of range");
  return {val.data() + col_ptr[j],
          static_cast<std::size_t>(col_ptr[j + 1] - col_ptr[j])};
}

void CscMatrix::validate() const {
  MSPTRSV_ENSURE(rows >= 0 && cols >= 0, "negative dimensions");
  MSPTRSV_ENSURE(col_ptr.size() == static_cast<std::size_t>(cols) + 1,
                 "col_ptr must have cols+1 entries");
  MSPTRSV_ENSURE(col_ptr.front() == 0, "col_ptr must start at 0");
  MSPTRSV_ENSURE(col_ptr.back() == nnz(), "col_ptr must end at nnz");
  MSPTRSV_ENSURE(row_idx.size() == val.size(), "row_idx/val size mismatch");
  // Monotone pointers first, so no column range reaches past nnz.
  for (index_t j = 0; j < cols; ++j) {
    MSPTRSV_ENSURE(col_ptr[j] <= col_ptr[j + 1], "col_ptr must be monotone");
  }
  const index_t* idx = row_idx.data();
  for (index_t j = 0; j < cols; ++j) {
    index_t prev = -1;  // rows rise strictly from 0 and stay below `rows`
    for (offset_t k = col_ptr[j]; k < col_ptr[j + 1]; ++k) {
      const index_t r = idx[k];
      if (r <= prev || r >= rows) {  // cold: name the violation
        MSPTRSV_ENSURE(r >= 0 && r < rows, "row index out of range");
        MSPTRSV_ENSURE(r > prev,
                       "rows must be sorted and unique within a column");
      }
      prev = r;
    }
  }
}

CscMatrix csc_from_coo(CooMatrix coo) {
  coo.normalize();
  CscMatrix m;
  m.rows = coo.rows;
  m.cols = coo.cols;
  m.col_ptr.assign(static_cast<std::size_t>(m.cols) + 1, 0);
  m.row_idx.resize(coo.entries.size());
  m.val.resize(coo.entries.size());
  for (const Triplet& t : coo.entries) m.col_ptr[t.col + 1]++;
  for (index_t j = 0; j < m.cols; ++j) m.col_ptr[j + 1] += m.col_ptr[j];
  // Entries are already column-major sorted after normalize().
  for (std::size_t k = 0; k < coo.entries.size(); ++k) {
    m.row_idx[k] = coo.entries[k].row;
    m.val[k] = coo.entries[k].value;
  }
  m.validate();
  return m;
}

CooMatrix coo_from_csc(const CscMatrix& m) {
  CooMatrix coo;
  coo.rows = m.rows;
  coo.cols = m.cols;
  coo.entries.reserve(static_cast<std::size_t>(m.nnz()));
  for (index_t j = 0; j < m.cols; ++j) {
    for (offset_t k = m.col_ptr[j]; k < m.col_ptr[j + 1]; ++k) {
      coo.entries.push_back({m.row_idx[k], j, m.val[k]});
    }
  }
  return coo;
}

CscMatrix transpose(const CscMatrix& m) {
  CscMatrix t;
  t.rows = m.cols;
  t.cols = m.rows;
  t.col_ptr.assign(static_cast<std::size_t>(t.cols) + 1, 0);
  t.row_idx.resize(static_cast<std::size_t>(m.nnz()));
  t.val.resize(static_cast<std::size_t>(m.nnz()));
  for (offset_t k = 0; k < m.nnz(); ++k) t.col_ptr[m.row_idx[k] + 1]++;
  for (index_t j = 0; j < t.cols; ++j) t.col_ptr[j + 1] += t.col_ptr[j];
  std::vector<offset_t> cursor(t.col_ptr.begin(), t.col_ptr.end() - 1);
  for (index_t j = 0; j < m.cols; ++j) {
    for (offset_t k = m.col_ptr[j]; k < m.col_ptr[j + 1]; ++k) {
      const offset_t out = cursor[m.row_idx[k]]++;
      t.row_idx[out] = j;
      t.val[out] = m.val[k];
    }
  }
  t.validate();
  return t;
}

bool identical(const CscMatrix& a, const CscMatrix& b) {
  return a.rows == b.rows && a.cols == b.cols && a.col_ptr == b.col_ptr &&
         a.row_idx == b.row_idx && a.val == b.val;
}

std::vector<value_t> multiply(const CscMatrix& a, std::span<const value_t> x) {
  MSPTRSV_REQUIRE(x.size() == static_cast<std::size_t>(a.cols),
                  "vector length must equal matrix column count");
  std::vector<value_t> y(static_cast<std::size_t>(a.rows), 0.0);
  for (index_t j = 0; j < a.cols; ++j) {
    const value_t xj = x[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    for (offset_t k = a.col_ptr[j]; k < a.col_ptr[j + 1]; ++k) {
      y[static_cast<std::size_t>(a.row_idx[k])] += a.val[k] * xj;
    }
  }
  return y;
}

}  // namespace msptrsv::sparse
