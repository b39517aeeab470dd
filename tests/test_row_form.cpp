// Property test for the host row form (core/row_form.hpp): every host
// plan stores its rows in the order its schedule executes them, in the
// caller's numbering, and each row's entries in the analyzed factor's
// order. The kernels' progress (ascending claims, level slices, one
// front-to-back sweep) and the bit-for-bit contract between backends
// rest on three invariants, checked here over seeded random lower and
// upper factors for all four host backends:
//
//  * row_of is a permutation of the rows;
//  * every off-diagonal column id at position p names a row at an earlier
//    position, and the diagonal ends the row (the order is topological);
//  * each row keeps its entries -- columns and values -- in the analyzed
//    factor's ascending internal-column order (ascending caller columns
//    for a lower plan, descending for an upper one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"
#include "support/contracts.hpp"

namespace msptrsv {
namespace {

/// Level pointers that give every position its own level: the level
/// schedule a plain topological order is.
std::vector<offset_t> one_row_levels(std::size_t n) {
  std::vector<offset_t> ptr(n + 1);
  std::iota(ptr.begin(), ptr.end(), offset_t{0});
  return ptr;
}

struct Factor {
  std::string tag;
  sparse::CscMatrix lower;
};

std::vector<Factor> random_factors() {
  std::vector<Factor> out;
  for (std::uint64_t seed : {3u, 11u, 29u}) {
    const std::string s = std::to_string(seed);
    out.push_back({"random" + s, sparse::gen_random_lower(600, 4.0, seed)});
    out.push_back({"layered" + s,
                   sparse::gen_layered_dag(900, 30, 5000, 0.5, seed)});
    out.push_back({"chain_heavy" + s,
                   sparse::gen_chain_heavy(3, 40, 300, 2, seed)});
    out.push_back({"banded" + s, sparse::gen_banded(700, 6, 0.6, seed)});
  }
  out.push_back({"grid3d", sparse::gen_grid3d_lower(12, 12, 12)});
  out.push_back({"grid2d", sparse::gen_grid2d_lower(40, 40)});
  return out;
}

/// Caller-numbered row i of `caller` (the factor handed to the plan) in
/// the analyzed factor's order: ascending columns for a lower factor; for
/// an upper one the reversed lower form's ascending columns, which are
/// the caller's columns descending.
void expected_row(const sparse::CsrMatrix& caller, bool upper, index_t i,
                  std::vector<index_t>& cols, std::vector<value_t>& vals) {
  const auto c = caller.row_cols(i);
  const auto v = caller.row_values(i);
  cols.assign(c.begin(), c.end());
  vals.assign(v.begin(), v.end());
  if (upper) {
    std::reverse(cols.begin(), cols.end());
    std::reverse(vals.begin(), vals.end());
  }
}

void check_row_form(const core::RowForm& rf, const sparse::CscMatrix& caller,
                    bool upper) {
  const index_t n = caller.rows;
  ASSERT_EQ(rf.rows(), n);
  ASSERT_EQ(rf.row_ptr.size(), static_cast<std::size_t>(n) + 1);
  ASSERT_EQ(rf.nnz(), caller.nnz());
  ASSERT_EQ(rf.val.size(), rf.col_idx.size());

  // row_of is a permutation; pos[i] is row i's position.
  std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
  for (index_t p = 0; p < n; ++p) {
    const index_t i = rf.row_of[static_cast<std::size_t>(p)];
    ASSERT_GE(i, 0);
    ASSERT_LT(i, n);
    ASSERT_EQ(pos[static_cast<std::size_t>(i)], -1) << "row " << i << " twice";
    pos[static_cast<std::size_t>(i)] = p;
  }

  const sparse::CsrMatrix rows = sparse::csr_from_csc(caller);
  std::vector<index_t> cols;
  std::vector<value_t> vals;
  for (index_t p = 0; p < n; ++p) {
    const index_t i = rf.row_of[static_cast<std::size_t>(p)];
    const offset_t b = rf.row_ptr[static_cast<std::size_t>(p)];
    const offset_t e = rf.row_ptr[static_cast<std::size_t>(p) + 1];
    ASSERT_LT(b, e) << "position " << p << " stores no diagonal";
    // Topological: every dependency solves at an earlier position, and
    // the diagonal ends the row.
    for (offset_t k = b; k < e - 1; ++k) {
      const index_t c = rf.col_idx[static_cast<std::size_t>(k)];
      ASSERT_GE(c, 0);
      ASSERT_LT(c, n);
      ASSERT_LT(pos[static_cast<std::size_t>(c)], p)
          << "row " << i << " reads row " << c << " before it is solved";
    }
    ASSERT_EQ(rf.col_idx[static_cast<std::size_t>(e - 1)], i);
    // Entry order (and values) of the analyzed factor, bit for bit.
    expected_row(rows, upper, i, cols, vals);
    ASSERT_EQ(std::vector<index_t>(rf.col_idx.begin() + b,
                                   rf.col_idx.begin() + e),
              cols)
        << "row " << i;
    ASSERT_EQ(std::vector<value_t>(rf.val.begin() + b, rf.val.begin() + e),
              vals)
        << "row " << i;
  }
}

TEST(RowForm, HostPlansStoreATopologicalPermutationInFactorEntryOrder) {
  for (const Factor& f : random_factors()) {
    for (const bool upper : {false, true}) {
      const sparse::CscMatrix caller =
          upper ? sparse::transpose(f.lower) : f.lower;
      for (const char* key : {"serial", "cpu-levelset"}) {
        SCOPED_TRACE(f.tag + (upper ? " upper " : " lower ") + key);
        core::SolveOptions opt = core::registry::options_for(key).value();
        opt.cpu_threads = 2;
        auto plan = upper ? core::SolverPlan::analyze_upper(caller, opt)
                          : core::SolverPlan::analyze(caller, opt);
        ASSERT_TRUE(plan.ok()) << plan.message();
        ASSERT_NE(plan->row_form(), nullptr);
        EXPECT_EQ(plan->level_analysis(), nullptr);
        check_row_form(*plan->row_form(), caller, upper);

        // The schedules run the positions they were built for: plain
        // level order for the gang (mirrored for upper plans).
        const sparse::LevelAnalysis levels =
            sparse::analyze_levels(plan->factor());
        if (opt.backend != core::Backend::kSerial) {
          for (std::size_t p = 0; p < levels.order.size(); ++p) {
            const index_t i = levels.order[p];
            ASSERT_EQ(plan->row_form()->row_of[p],
                      upper ? caller.rows - 1 - i : i);
          }
        }

        // A value refresh rebuilds the form in the same order.
        sparse::CscMatrix scaled = caller;
        for (value_t& v : scaled.val) v *= 1.0 + 1.0 / 32.0;
        const std::vector<index_t> before = plan->row_form()->row_of;
        ASSERT_TRUE(plan->update_values(scaled).ok());
        EXPECT_EQ(plan->row_form()->row_of, before);
        check_row_form(*plan->row_form(), scaled, upper);
      }
    }
  }
}

TEST(RowForm, SerialWindowFollowsTheLevelStructure) {
  // 24^3 grid: 70 levels of ~200 rows; 256-row windows average under 8
  // rows per (window, level) pair, 512-row ones clear it.
  const sparse::LevelAnalysis grid =
      sparse::analyze_levels(sparse::gen_grid3d_lower(24, 24, 24));
  EXPECT_EQ(core::serial_window_rows(grid), 512);
  // A chain never has two rows of one level: no window qualifies, and
  // the serial order is the whole factor's level order.
  const sparse::LevelAnalysis chain =
      sparse::analyze_levels(sparse::gen_chain(4000));
  EXPECT_EQ(core::serial_window_rows(chain), chain.n);
  EXPECT_EQ(core::serial_row_order(chain), chain.order);
  // A diagonal factor is one level: the smallest window qualifies.
  const sparse::LevelAnalysis diag =
      sparse::analyze_levels(sparse::gen_diagonal(5000));
  EXPECT_EQ(core::serial_window_rows(diag), 256);
  // Small factors are one window.
  const sparse::LevelAnalysis tiny =
      sparse::analyze_levels(sparse::gen_grid2d_lower(10, 10));
  EXPECT_EQ(core::serial_window_rows(tiny), tiny.n);

  // Windowed order: each window holds exactly its own rows, in level
  // order, ascending ids within a level -- and stays topological.
  const sparse::CscMatrix l = sparse::gen_grid3d_lower(24, 24, 24);
  const std::vector<index_t> order = core::serial_row_order(grid);
  const index_t w = core::serial_window_rows(grid);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(grid.n));
  for (std::size_t p = 1; p < order.size(); ++p) {
    const index_t a = order[p - 1];
    const index_t b = order[p];
    ASSERT_EQ(static_cast<index_t>(p) / w, b / w) << "position " << p;
    if (a / w == b / w) {
      const index_t la = grid.level_of[static_cast<std::size_t>(a)];
      const index_t lb = grid.level_of[static_cast<std::size_t>(b)];
      ASSERT_TRUE(la < lb || (la == lb && a < b)) << "position " << p;
    }
  }
  EXPECT_TRUE(core::is_level_schedule(l, order, one_row_levels(order.size())));
}

TEST(RowForm, LevelScheduleCheckRejectsBadSchedules) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(300, 12, 1500, 0.5, 7);
  const sparse::LevelAnalysis levels = sparse::analyze_levels(l);
  const std::size_t n = levels.order.size();
  const auto check = [&](std::span<const index_t> order,
                         std::span<const offset_t> level_ptr) {
    return core::is_level_schedule(l, order, level_ptr);
  };
  EXPECT_TRUE(check(levels.order, levels.level_ptr));
  // A topological order is the schedule of one row per level.
  EXPECT_TRUE(check(levels.order, one_row_levels(n)));
  std::vector<index_t> reversed(levels.order.rbegin(), levels.order.rend());
  EXPECT_FALSE(check(reversed, levels.level_ptr));
  EXPECT_FALSE(check(reversed, one_row_levels(n)));
  std::vector<index_t> repeated = levels.order;
  repeated.back() = repeated.front();
  EXPECT_FALSE(check(repeated, levels.level_ptr));
  std::vector<index_t> out_of_range = levels.order;
  out_of_range.back() = l.rows;
  EXPECT_FALSE(check(out_of_range, levels.level_ptr));
  EXPECT_FALSE(check(std::span<const index_t>(levels.order).first(10),
                     levels.level_ptr));
  // Topological, but dependent rows share a level: the gang would race.
  const std::vector<offset_t> one_level = {0, static_cast<offset_t>(n)};
  EXPECT_FALSE(check(levels.order, one_level));
  // Boundaries that do not tile the order.
  std::vector<offset_t> short_ptr = levels.level_ptr;
  short_ptr.back() -= 1;
  EXPECT_FALSE(check(levels.order, short_ptr));
  std::vector<offset_t> backwards = levels.level_ptr;
  std::swap(backwards[1], backwards[2]);
  EXPECT_FALSE(check(levels.order, backwards));
  // The builder refuses a non-permutation instead of writing out of
  // bounds.
  EXPECT_THROW(core::build_row_form(l, repeated, false),
               support::PreconditionError);
}

}  // namespace
}  // namespace msptrsv
