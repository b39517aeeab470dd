// Sparse format substrate: COO normalization, CSC/CSR construction,
// conversions, transpose, SpMV.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/serialize.hpp"
#include "support/contracts.hpp"

namespace msptrsv::sparse {
namespace {

TEST(Coo, NormalizeSortsAndSumsDuplicates) {
  CooMatrix coo;
  coo.rows = coo.cols = 3;
  coo.add(2, 1, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(2, 1, 3.0);
  coo.normalize();
  ASSERT_EQ(coo.entries.size(), 2u);
  EXPECT_EQ(coo.entries[0].row, 0);
  EXPECT_DOUBLE_EQ(coo.entries[1].value, 4.0);
}

TEST(Coo, DuplicatesSumInInsertionOrder) {
  // Floating-point addition is not associative: 1e16 + -1e16 + 1 is 1, but
  // 1 + -1e16 + 1e16 is 0. Repeats must sum in the order they were added,
  // wherever they sit among other entries (a comparison sort that is not
  // stable reorders them once the input is large enough to partition).
  struct Case {
    std::array<value_t, 3> repeats;
    value_t want;
  };
  for (const Case& c : {Case{{1e16, -1e16, 1.0}, 1.0},
                        Case{{1.0, -1e16, 1e16}, 0.0}}) {
    CooMatrix coo;
    coo.rows = coo.cols = 32;
    for (index_t k = 0; k < 32 * 32; ++k) {
      if (k % 400 == 0) {  // k = 0, 400, 800
        coo.add(1, 0, c.repeats[static_cast<std::size_t>(k / 400)]);
      }
      const index_t row = (k * 7) % 32, col = (k * 13 / 32 + k) % 32;
      if (row != 1 || col != 0) coo.add(row, col, 1.0 + k);
    }
    const CscMatrix csc = csc_from_coo(coo);
    ASSERT_EQ(csc.row_idx[1], 1);
    EXPECT_EQ(csc.val[1], c.want);
    const CsrMatrix csr = csr_from_coo(coo);
    ASSERT_EQ(csr.col_idx[csr.row_ptr[1]], 0);
    EXPECT_EQ(csr.val[csr.row_ptr[1]], c.want);
    coo.normalize();
    EXPECT_EQ(coo.entries[1].value, c.want);
  }
}

TEST(Coo, ValidateRejectsOutOfRange) {
  CooMatrix coo;
  coo.rows = coo.cols = 2;
  coo.add(2, 0, 1.0);
  EXPECT_THROW(coo.validate(), support::PreconditionError);
}

TEST(Csc, FromCooBuildsSortedColumns) {
  CooMatrix coo;
  coo.rows = coo.cols = 3;
  coo.add(2, 0, 3.0);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 2.0);
  const CscMatrix m = csc_from_coo(std::move(coo));
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_ptr[0], 0);
  EXPECT_EQ(m.col_ptr[1], 2);
  EXPECT_EQ(m.row_idx[0], 0);
  EXPECT_EQ(m.row_idx[1], 2);
}

TEST(Csc, ColumnViewsMatchArrays) {
  const CscMatrix m = gen_banded(50, 3, 0.8, 5);
  for (index_t j = 0; j < m.cols; ++j) {
    const auto rows = m.column_rows(j);
    const auto vals = m.column_values(j);
    ASSERT_EQ(rows.size(), vals.size());
    ASSERT_EQ(static_cast<offset_t>(rows.size()),
              m.col_ptr[j + 1] - m.col_ptr[j]);
    if (!rows.empty()) {
      EXPECT_EQ(rows[0], j);  // diagonal first
    }
  }
}

TEST(Csc, RoundTripThroughCoo) {
  const CscMatrix m = gen_random_lower(200, 4.0, 9);
  const CscMatrix again = csc_from_coo(coo_from_csc(m));
  EXPECT_TRUE(identical(m, again));
}

TEST(Csc, TransposeIsInvolution) {
  const CscMatrix m = gen_random_lower(150, 5.0, 3);
  EXPECT_TRUE(identical(m, transpose(transpose(m))));
}

TEST(Csc, TransposeSwapsEntries) {
  CooMatrix coo;
  coo.rows = 2;
  coo.cols = 3;
  coo.add(1, 2, 7.0);
  coo.add(0, 0, 1.0);
  const CscMatrix t = transpose(csc_from_coo(std::move(coo)));
  EXPECT_EQ(t.rows, 3);
  EXPECT_EQ(t.cols, 2);
  // (1,2) becomes (2,1).
  EXPECT_EQ(t.row_idx[t.col_ptr[1]], 2);
  EXPECT_DOUBLE_EQ(t.val[t.col_ptr[1]], 7.0);
}

TEST(Csc, MultiplyMatchesDenseComputation) {
  const CscMatrix m = gen_banded(40, 4, 0.7, 21);
  std::vector<value_t> x(40);
  for (int i = 0; i < 40; ++i) x[static_cast<std::size_t>(i)] = 0.1 * i - 2.0;
  const std::vector<value_t> y = multiply(m, x);
  // Dense check.
  std::vector<value_t> expect(40, 0.0);
  for (index_t j = 0; j < m.cols; ++j) {
    for (offset_t k = m.col_ptr[j]; k < m.col_ptr[j + 1]; ++k) {
      expect[static_cast<std::size_t>(m.row_idx[k])] +=
          m.val[k] * x[static_cast<std::size_t>(j)];
    }
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                expect[static_cast<std::size_t>(i)], 1e-14);
  }
}

TEST(Csc, MultiplyRejectsWrongLength) {
  const CscMatrix m = gen_diagonal(5);
  std::vector<value_t> x(4, 1.0);
  EXPECT_THROW(multiply(m, x), support::PreconditionError);
}

TEST(Csr, RoundTripWithCsc) {
  const CscMatrix m = gen_random_lower(180, 6.0, 31);
  const CsrMatrix r = csr_from_csc(m);
  r.validate();
  const CscMatrix back = csc_from_csr(r);
  EXPECT_TRUE(identical(m, back));
}

TEST(Csr, RowViewsSortedAndInRange) {
  const CsrMatrix r = csr_from_csc(gen_rmat_lower(8, 800, 77));
  for (index_t i = 0; i < r.rows; ++i) {
    const auto cols = r.row_cols(i);
    for (std::size_t k = 1; k < cols.size(); ++k) {
      EXPECT_LT(cols[k - 1], cols[k]);
    }
  }
}

TEST(Csr, ValidateCatchesUnsortedColumns) {
  CsrMatrix r;
  r.rows = r.cols = 2;
  r.row_ptr = {0, 2, 2};
  r.col_idx = {1, 0};  // unsorted within row 0
  r.val = {1.0, 2.0};
  EXPECT_THROW(r.validate(), support::InvariantError);
}

TEST(Formats, ValidateRejectsPointersPastNnzBeforeReadingIndices) {
  // The first range ends past nnz (only the next pointer breaks
  // monotonicity): the pointers must be rejected before any index of that
  // range is read, or validation itself reads out of bounds.
  CscMatrix c;
  c.rows = 10;
  c.cols = 2;
  c.col_ptr = {0, 5, 3};
  c.row_idx = {0, 1, 2};
  c.val = {1.0, 1.0, 1.0};
  EXPECT_THROW(c.validate(), support::InvariantError);
  CsrMatrix r;
  r.rows = 2;
  r.cols = 10;
  r.row_ptr = {0, 5, 3};
  r.col_idx = {0, 1, 2};
  r.val = {1.0, 1.0, 1.0};
  EXPECT_THROW(r.validate(), support::InvariantError);
}

// ---- (de)serialization + structural hashing --------------------------------

TEST(Serialize, CscRoundTripsThroughBlob) {
  const CscMatrix m = gen_layered_dag(500, 12, 3000, 0.5, 17);
  support::BlobWriter w(1);
  write_csc(w, m);
  const std::vector<std::uint8_t> blob = std::move(w).finish();

  support::BlobReader r(blob, 1);
  const CscMatrix back = read_csc(r);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(identical(m, back));
  EXPECT_NO_THROW(back.validate());
}

TEST(Serialize, EmptyMatrixRoundTrips) {
  const CscMatrix empty;
  support::BlobWriter w(1);
  write_csc(w, empty);
  const std::vector<std::uint8_t> blob = std::move(w).finish();
  support::BlobReader r(blob, 1);
  const CscMatrix back = read_csc(r);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(back.rows, 0);
  EXPECT_EQ(back.nnz(), 0);
}

TEST(Serialize, InconsistentRecordFailsTheReader) {
  // Any structurally unsafe CSC record must fail the reader, not build a
  // matrix the solve kernels would index out of bounds through.
  struct BadCase {
    const char* what;
    std::vector<offset_t> col_ptr;
    std::vector<index_t> row_idx;
  };
  const std::vector<BadCase> cases = {
      {"ptr length vs dims", {0, 1}, {0}},
      {"ptr does not cover the nonzeros", {0, 0, 0, 0}, {0}},
      {"ptr not monotone", {0, 1, 0, 1}, {0}},
      {"row index out of range", {0, 1, 1, 1}, {3}},
      {"negative row index", {0, 1, 1, 1}, {-1}},
  };
  for (const BadCase& c : cases) {
    support::BlobWriter w(1);
    w.write_i32(3);  // rows
    w.write_i32(3);  // cols
    w.write_span(std::span<const offset_t>(c.col_ptr));
    w.write_span(std::span<const index_t>(c.row_idx));
    w.write_span(std::span<const value_t>(
        std::vector<value_t>(c.row_idx.size(), 1.0)));
    const std::vector<std::uint8_t> blob = std::move(w).finish();
    support::BlobReader r(blob, 1);
    const CscMatrix back = read_csc(r);
    EXPECT_FALSE(r.ok()) << c.what;
    EXPECT_EQ(back.rows, 0) << c.what;
  }
}

TEST(StructuralHash, SeparatesPatternFromValues) {
  const CscMatrix m = gen_layered_dag(400, 10, 2400, 0.5, 9);
  const StructuralHash h = hash_csc(m);

  // Same content: identical hash (deterministic function of content).
  EXPECT_EQ(hash_csc(m), h);
  CscMatrix copy = m;
  EXPECT_EQ(hash_csc(copy), h);

  // Value-only change: pattern hash stable, values hash moves.
  copy.val[copy.val.size() / 2] *= 2.0;
  const StructuralHash hv = hash_csc(copy);
  EXPECT_EQ(hv.pattern, h.pattern);
  EXPECT_NE(hv.values, h.values);

  // Structural change: both move.
  const CscMatrix other = gen_layered_dag(400, 10, 2500, 0.5, 10);
  const StructuralHash ho = hash_csc(other);
  EXPECT_NE(ho.pattern, h.pattern);
  EXPECT_NE(ho.values, h.values);

  // Dimension changes hash even with identical (empty) arrays.
  CscMatrix a;
  a.rows = a.cols = 1;
  a.col_ptr = {0, 0};
  CscMatrix b;
  b.rows = b.cols = 2;
  b.col_ptr = {0, 0, 0};
  EXPECT_NE(hash_csc(a).pattern, hash_csc(b).pattern);
}

}  // namespace
}  // namespace msptrsv::sparse
