// Matrix Market reader/writer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "support/contracts.hpp"

namespace msptrsv::sparse {
namespace {

TEST(Mmio, ReadsGeneralRealCoordinate) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 1 2.5\n"
      "3 2 -1.0\n");
  const CooMatrix coo = read_matrix_market(in);
  EXPECT_EQ(coo.rows, 3);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries[0].row, 0);
  EXPECT_EQ(coo.entries[0].col, 0);
  EXPECT_DOUBLE_EQ(coo.entries[1].value, -1.0);
}

TEST(Mmio, ExpandsSymmetricEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "2 1 5.0\n");
  const CooMatrix coo = read_matrix_market(in);
  // Off-diagonal mirrored, diagonal not duplicated.
  EXPECT_EQ(coo.nnz(), 3);
}

TEST(Mmio, ExpandsSkewSymmetricWithNegation) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "3 3 1\n"
      "2 1 4.0\n");
  CooMatrix coo = read_matrix_market(in);
  coo.normalize();
  ASSERT_EQ(coo.nnz(), 2);
  // normalize() sorts column-major: (1,0) in column 0 precedes (0,1).
  EXPECT_DOUBLE_EQ(coo.entries[0].value, 4.0);   // (1,0)
  EXPECT_DOUBLE_EQ(coo.entries[1].value, -4.0);  // (0,1)
}

TEST(Mmio, DuplicateEntriesSumInFileOrder) {
  // Repeated coordinates are summed in file order: 1e16 - 1e16 + 1 is 1,
  // while 1 - 1e16 + 1e16 is 0 (the 1 is absorbed before it can count).
  for (const auto& [entries, want] :
       {std::pair{"2 1 1e16\n1 1 3.0\n2 1 -1e16\n2 1 1.0\n", 1.0},
        std::pair{"2 1 1.0\n1 1 3.0\n2 1 -1e16\n2 1 1e16\n", 0.0}}) {
    std::istringstream in(
        std::string("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 4\n") +
        entries);
    const CscMatrix m = csc_from_coo(read_matrix_market(in));
    ASSERT_EQ(m.nnz(), 2);
    EXPECT_EQ(m.row_idx[1], 1);
    EXPECT_EQ(m.val[1], want);
  }
}

TEST(Mmio, PatternEntriesDefaultToOne) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "2 2\n");
  const CooMatrix coo = read_matrix_market(in);
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_DOUBLE_EQ(coo.entries[0].value, 1.0);
}

TEST(Mmio, RejectsMissingBanner) {
  std::istringstream in("3 3 0\n");
  EXPECT_THROW(read_matrix_market(in), support::PreconditionError);
}

TEST(Mmio, RejectsOutOfRangeIndex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), support::PreconditionError);
}

TEST(Mmio, RejectsTruncatedFile) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), support::PreconditionError);
}

TEST(Mmio, WriteReadRoundTripPreservesEverything) {
  const CscMatrix m = gen_layered_dag(300, 12, 1500, 0.5, 33);
  std::stringstream buf;
  write_matrix_market(buf, m);
  const CscMatrix back = csc_from_coo(read_matrix_market(buf));
  EXPECT_TRUE(identical(m, back));
}

TEST(Mmio, FileRoundTrip) {
  const CscMatrix m = gen_banded(100, 5, 0.6, 3);
  const std::string path = testing::TempDir() + "/msptrsv_roundtrip.mtx";
  write_matrix_market_file(path, m);
  const CscMatrix back = csc_from_coo(read_matrix_market_file(path));
  EXPECT_TRUE(identical(m, back));
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"),
               support::PreconditionError);
}

}  // namespace
}  // namespace msptrsv::sparse
