// Serial reference solvers: forward, backward, and the upper->lower
// reduction used by the parallel backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "core/reference.hpp"
#include "core/residual.hpp"
#include "sparse/generators.hpp"
#include "sparse/triangular.hpp"
#include "support/contracts.hpp"

namespace msptrsv {
namespace {

using core::max_relative_difference;
using core::relative_residual;
using core::reverse_upper_to_lower;
using core::reversed;
using core::solve_lower_serial;
using core::solve_upper_serial;

TEST(Reference, SolvesIdentity) {
  const sparse::CscMatrix d = sparse::gen_diagonal(8);
  std::vector<value_t> b(8, 0.0);
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = i + 1.0;
  const std::vector<value_t> x = solve_lower_serial(d, b);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(i)],
                     b[static_cast<std::size_t>(i)] /
                         d.val[static_cast<std::size_t>(d.col_ptr[i])]);
  }
}

TEST(Reference, KnownThreeByThree) {
  // L = [2 0 0; 1 4 0; 3 5 8], b = [2, 6, 24] -> x = [1, 1.25, 1.84375].
  sparse::CooMatrix coo;
  coo.rows = coo.cols = 3;
  coo.add(0, 0, 2.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 4.0);
  coo.add(2, 0, 3.0);
  coo.add(2, 1, 5.0);
  coo.add(2, 2, 8.0);
  const sparse::CscMatrix l = sparse::csc_from_coo(std::move(coo));
  const std::vector<value_t> b = {2.0, 6.0, 24.0};
  const std::vector<value_t> x = solve_lower_serial(l, b);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 1.25);
  EXPECT_DOUBLE_EQ(x[2], (24.0 - 3.0 * 1.0 - 5.0 * 1.25) / 8.0);
}

TEST(Reference, ManufacturedSolutionRoundTrips) {
  const sparse::CscMatrix l = sparse::gen_random_lower(500, 6.0, 7);
  const std::vector<value_t> x_ref = sparse::gen_solution(l.rows, 3);
  const std::vector<value_t> b = sparse::gen_rhs_for_solution(l, x_ref);
  const std::vector<value_t> x = solve_lower_serial(l, b);
  EXPECT_LT(max_relative_difference(x, x_ref), 1e-11);
  EXPECT_LT(relative_residual(l, x, b), 1e-12);
}

TEST(Reference, RejectsWrongRhsLength) {
  const sparse::CscMatrix l = sparse::gen_chain(10);
  std::vector<value_t> b(9, 1.0);
  EXPECT_THROW(solve_lower_serial(l, b), support::PreconditionError);
}

TEST(Reference, RejectsMissingDiagonal) {
  sparse::CooMatrix coo;
  coo.rows = coo.cols = 2;
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);  // no (1,1) entry
  const sparse::CscMatrix l = sparse::csc_from_coo(std::move(coo));
  std::vector<value_t> b(2, 1.0);
  EXPECT_THROW(solve_lower_serial(l, b), support::PreconditionError);
}

TEST(Reference, BackwardSubstitutionSolvesUpper) {
  const sparse::CscMatrix lower = sparse::gen_banded(200, 4, 0.7, 21);
  const sparse::CscMatrix upper = sparse::mirror_to_upper(lower);
  const std::vector<value_t> x_ref = sparse::gen_solution(upper.rows, 5);
  const std::vector<value_t> b = sparse::multiply(upper, x_ref);
  const std::vector<value_t> x = solve_upper_serial(upper, b);
  EXPECT_LT(max_relative_difference(x, x_ref), 1e-10);
}

TEST(Reference, ReverseUpperToLowerAgreesWithBackward) {
  const sparse::CscMatrix lower = sparse::gen_random_lower(300, 4.0, 9);
  const sparse::CscMatrix upper = sparse::mirror_to_upper(lower);
  const std::vector<value_t> x_ref = sparse::gen_solution(upper.rows, 11);
  const std::vector<value_t> b = sparse::multiply(upper, x_ref);

  const std::vector<value_t> direct = solve_upper_serial(upper, b);
  const sparse::CscMatrix as_lower = reverse_upper_to_lower(upper);
  const std::vector<value_t> via_lower =
      reversed(solve_lower_serial(as_lower, reversed(b)));

  EXPECT_LT(max_relative_difference(via_lower, direct), 1e-12);
}

TEST(Reference, ReversedIsInvolution) {
  const std::vector<value_t> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(reversed(reversed(v)), v);
}

/// max_relative_difference as one scalar loop: the definition the
/// vectorized version must reproduce bit for bit.
value_t max_relative_difference_scalar(std::span<const value_t> x,
                                       std::span<const value_t> y) {
  value_t worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const value_t denom = std::max<value_t>(1.0, std::abs(y[i]));
    worst = std::max(worst, std::abs(x[i] - y[i]) / denom);
  }
  return worst;
}

TEST(Reference, MaxRelativeDifferenceMatchesTheScalarLoop) {
  // NaN, infinities, signed zeros and near-overflow values in both
  // vectors, at every length whose two-lane body and scalar tail split
  // differently: the result must be the scalar loop's, bit for bit.
  const value_t inf = std::numeric_limits<value_t>::infinity();
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  const std::vector<value_t> specials = {nan,     inf,    -inf,  0.0,
                                         -0.0,    1e308,  -1e308, 1.0,
                                         -1.0,    0.5,    3.0,    -7.25,
                                         1e-300,  2.0,    -2.0,   1e300};
  std::mt19937_64 rng(0x5EEDu);
  std::size_t mismatches = 0;
  for (std::size_t len = 0; len <= 67; ++len) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<value_t> x(len), y(len);
      for (std::size_t i = 0; i < len; ++i) {
        x[i] = specials[rng() % specials.size()];
        y[i] = rng() % 4 == 0 ? x[i] : specials[rng() % specials.size()];
      }
      const value_t got = max_relative_difference(x, y);
      const value_t want = max_relative_difference_scalar(x, y);
      if (std::bit_cast<std::uint64_t>(got) !=
              std::bit_cast<std::uint64_t>(want) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "length " << len << ": " << got << " vs " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace msptrsv
