#include "sparse/coo.hpp"

#include <cstdint>

#include "support/contracts.hpp"

namespace msptrsv::sparse {

namespace {

/// (col, row) as one integer: column-major order is ascending key order.
std::uint64_t col_major_key(const Triplet& t) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.col)) << 32 |
         static_cast<std::uint32_t>(t.row);
}

/// Turns bucket counts (shifted up by one) into each bucket's first slot.
void exclusive_scan(std::vector<offset_t>& next) {
  for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
}

}  // namespace

void CooMatrix::normalize() {
  validate();
  const std::size_t nnz = entries.size();
  std::size_t k = 1;
  while (k < nnz &&
         col_major_key(entries[k - 1]) < col_major_key(entries[k])) {
    ++k;
  }
  if (k >= nnz) return;  // strictly column-major, so free of duplicates too
  // Two stable counting passes, by row and then by column, leave the
  // entries column-major with every repeated (row, col) in insertion order.
  std::vector<offset_t> row_next(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<offset_t> col_next(static_cast<std::size_t>(cols) + 1, 0);
  for (const Triplet& t : entries) {
    ++row_next[t.row + 1];
    ++col_next[t.col + 1];
  }
  exclusive_scan(row_next);
  exclusive_scan(col_next);
  std::vector<Triplet> by_row(nnz);
  for (const Triplet& t : entries) by_row[row_next[t.row]++] = t;
  for (const Triplet& t : by_row) entries[col_next[t.col]++] = t;
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (out > 0 && entries[out - 1].row == entries[i].row &&
        entries[out - 1].col == entries[i].col) {
      entries[out - 1].value += entries[i].value;
    } else {
      entries[out++] = entries[i];
    }
  }
  entries.resize(out);
}

void CooMatrix::validate() const {
  MSPTRSV_REQUIRE(rows >= 0 && cols >= 0, "negative matrix dimensions");
  for (const Triplet& t : entries) {
    MSPTRSV_REQUIRE(t.row >= 0 && t.row < rows, "COO row index out of range");
    MSPTRSV_REQUIRE(t.col >= 0 && t.col < cols, "COO col index out of range");
  }
}

}  // namespace msptrsv::sparse
