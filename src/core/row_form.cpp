#include "core/row_form.hpp"

#include <bit>

#include "support/contracts.hpp"

namespace msptrsv::core {

namespace {

/// `level_ptr` cuts positions 0..n into levels: it starts at 0, never
/// decreases and ends at n.
bool tiles(std::span<const offset_t> level_ptr, std::size_t n) {
  if (level_ptr.empty() || level_ptr.front() != 0 ||
      level_ptr.back() != static_cast<offset_t>(n)) {
    return false;
  }
  for (std::size_t l = 1; l < level_ptr.size(); ++l) {
    if (level_ptr[l - 1] > level_ptr[l]) return false;
  }
  return true;
}

}  // namespace

RowForm build_row_form(const sparse::CscMatrix& lower,
                       std::span<const index_t> order, bool mirrored,
                       EntryOrder entries) {
  const std::size_t n = static_cast<std::size_t>(lower.rows);
  MSPTRSV_REQUIRE(order.size() == n, "row order must list every row once");
  const index_t last = lower.rows - 1;
  RowForm rf;
  rf.row_ptr.resize(n + 1);
  rf.row_of.resize(n);
  rf.col_idx.resize(static_cast<std::size_t>(lower.nnz()));
  rf.val.resize(rf.col_idx.size());

  // next[i] first counts row i's entries (negated: a solvable row has at
  // least its diagonal, so negative means "not yet placed"), then holds
  // the slot its next entry goes to.
  std::vector<offset_t> next(n, 0);
  for (const index_t i : lower.row_idx) --next[static_cast<std::size_t>(i)];
  rf.row_ptr[0] = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const index_t i = order[p];
    MSPTRSV_REQUIRE(i >= 0 && i <= last, "row order names a missing row");
    offset_t& slot = next[static_cast<std::size_t>(i)];
    MSPTRSV_REQUIRE(slot < 0, "row order repeats a row");
    rf.row_of[p] = mirrored ? last - i : i;
    rf.row_ptr[p + 1] = rf.row_ptr[p] - slot;
    slot = rf.row_ptr[p];
  }
  // Columns land in every row in the order they are scattered: ascending,
  // or the positions' order. Either way the diagonal (column i of row i)
  // is the last column to reach row i -- the largest column of a lower
  // row, and the last of its columns in a topological order.
  const bool solve_order = entries == EntryOrder::kSolveOrder;
  for (index_t s = 0; s <= last; ++s) {
    const index_t j = solve_order ? order[static_cast<std::size_t>(s)] : s;
    const index_t cj = mirrored ? last - j : j;
    for (offset_t e = lower.col_ptr[static_cast<std::size_t>(j)];
         e < lower.col_ptr[static_cast<std::size_t>(j) + 1]; ++e) {
      const index_t i = lower.row_idx[static_cast<std::size_t>(e)];
      const auto dst = static_cast<std::size_t>(
          next[static_cast<std::size_t>(i)]++);
      rf.col_idx[dst] = cj;
      rf.val[dst] = lower.val[static_cast<std::size_t>(e)];
    }
  }
  return rf;
}

index_t serial_window_rows(const sparse::LevelAnalysis& levels) {
  constexpr int kMinShift = 8;  // 256-row windows
  constexpr offset_t kMinRowsPerPair = 8;
  const index_t n = levels.n;
  for (int shift = kMinShift; (offset_t{1} << shift) < n; ++shift) {
    // A level lists its rows in ascending id order, so each change of
    // window along the list opens a new (window, level) pair.
    // Stops counting once the window size can no longer qualify.
    offset_t pairs = 0;
    for (index_t l = 0; l < levels.num_levels && n >= kMinRowsPerPair * pairs;
         ++l) {
      index_t window = -1;
      for (offset_t p = levels.level_ptr[static_cast<std::size_t>(l)];
           p < levels.level_ptr[static_cast<std::size_t>(l) + 1]; ++p) {
        const index_t w = levels.order[static_cast<std::size_t>(p)] >> shift;
        pairs += w != window;
        window = w;
      }
    }
    if (n >= kMinRowsPerPair * pairs) return index_t{1} << shift;
  }
  return n;
}

std::vector<index_t> serial_row_order(const sparse::LevelAnalysis& levels) {
  const index_t window = serial_window_rows(levels);
  if (window >= levels.n) return levels.order;
  // Window k holds rows [k*window, (k+1)*window) and so positions
  // [k*window, ...): a stable bucket pass over the level order keeps
  // level order inside every window.
  const int shift = std::countr_zero(static_cast<unsigned>(window));
  std::vector<offset_t> cursor(
      static_cast<std::size_t>((levels.n + window - 1) >> shift));
  for (std::size_t k = 0; k < cursor.size(); ++k) {
    cursor[k] = static_cast<offset_t>(k) << shift;
  }
  std::vector<index_t> out(static_cast<std::size_t>(levels.n));
  for (const index_t i : levels.order) {
    offset_t& slot = cursor[static_cast<std::size_t>(i >> shift)];
    out[static_cast<std::size_t>(slot++)] = i;
  }
  return out;
}

sparse::CscMatrix factor_of(const RowForm& rows, bool mirrored) {
  const std::size_t n = rows.row_of.size();
  const index_t last = static_cast<index_t>(n) - 1;
  const auto internal = [mirrored, last](index_t i) {
    return static_cast<std::size_t>(mirrored ? last - i : i);
  };
  sparse::CscMatrix m;
  m.rows = m.cols = static_cast<index_t>(n);
  m.col_ptr.assign(n + 1, 0);
  m.row_idx.resize(rows.col_idx.size());
  m.val.resize(rows.col_idx.size());
  for (const index_t c : rows.col_idx) ++m.col_ptr[internal(c) + 1];
  for (std::size_t j = 0; j < n; ++j) m.col_ptr[j + 1] += m.col_ptr[j];
  // Visiting the rows in ascending internal id lists every column's rows
  // ascending, its diagonal first.
  std::vector<index_t> position(n);
  for (std::size_t p = 0; p < n; ++p) {
    position[internal(rows.row_of[p])] = static_cast<index_t>(p);
  }
  std::vector<offset_t> next(m.col_ptr.begin(), m.col_ptr.end() - 1);
  const bool values = !rows.val.empty();
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::size_t>(position[i]);
    for (offset_t e = rows.row_ptr[p]; e < rows.row_ptr[p + 1]; ++e) {
      const auto dst = static_cast<std::size_t>(
          next[internal(rows.col_idx[static_cast<std::size_t>(e)])]++);
      m.row_idx[dst] = static_cast<index_t>(i);
      if (values) m.val[dst] = rows.val[static_cast<std::size_t>(e)];
    }
  }
  return m;
}

bool is_row_schedule(const RowForm& rows, std::span<const offset_t> level_ptr,
                     bool mirrored) {
  const std::size_t n = rows.row_of.size();
  const offset_t nnz = rows.nnz();
  if (rows.row_ptr.size() != n + 1 || rows.row_ptr.front() != 0 ||
      rows.row_ptr.back() != nnz ||
      (!rows.val.empty() && rows.val.size() != rows.col_idx.size())) {
    return false;
  }
  const bool levels = !level_ptr.empty();
  if (levels && !tiles(level_ptr, n)) return false;
  const auto bound = static_cast<std::uint32_t>(n);
  const index_t last = static_cast<index_t>(n) - 1;
  // solved[i]: one past the level (position, without levels) that solves
  // caller row i; 0 until then.
  std::vector<index_t> solved(n, 0);
  std::size_t level = 0;
  for (std::size_t p = 0; p < n; ++p) {
    while (levels && level_ptr[level + 1] <= static_cast<offset_t>(p)) ++level;
    const auto here = static_cast<index_t>(levels ? level : p);
    const offset_t b = rows.row_ptr[p];
    const offset_t e = rows.row_ptr[p + 1];
    const index_t i = rows.row_of[p];
    if (e <= b || e > nnz || static_cast<std::uint32_t>(i) >= bound ||
        solved[static_cast<std::size_t>(i)] != 0) {
      return false;
    }
    index_t prev = -1;  // the last column's internal id
    for (offset_t k = b; k < e; ++k) {
      const index_t c = rows.col_idx[static_cast<std::size_t>(k)];
      if (static_cast<std::uint32_t>(c) >= bound) return false;
      const index_t ic = mirrored ? last - c : c;
      if (ic <= prev) return false;
      prev = ic;
      // Off-diagonals read rows solved in an earlier level; the diagonal
      // is the row itself, not yet solved.
      const index_t s = solved[static_cast<std::size_t>(c)];
      if (k + 1 < e ? s == 0 || s > here : c != i) return false;
    }
    if (!rows.val.empty() && rows.val[static_cast<std::size_t>(e) - 1] == 0.0) {
      return false;
    }
    solved[static_cast<std::size_t>(i)] = here + 1;
  }
  return true;
}

bool is_level_schedule(const sparse::CscMatrix& lower,
                       std::span<const index_t> order,
                       std::span<const offset_t> level_ptr) {
  const std::size_t n = static_cast<std::size_t>(lower.rows);
  if (order.size() != n || !tiles(level_ptr, n)) return false;
  // level[i]: the stored level of row i (-1 until placed).
  std::vector<index_t> level(n, -1);
  for (std::size_t l = 0; l + 1 < level_ptr.size(); ++l) {
    for (offset_t p = level_ptr[l]; p < level_ptr[l + 1]; ++p) {
      const index_t i = order[static_cast<std::size_t>(p)];
      if (i < 0 || static_cast<std::size_t>(i) >= n ||
          level[static_cast<std::size_t>(i)] >= 0) {
        return false;
      }
      level[static_cast<std::size_t>(i)] = static_cast<index_t>(l);
    }
  }
  // Column j leads with its diagonal, then lists the rows that depend on
  // row j in strictly ascending order.
  for (std::size_t j = 0; j < n; ++j) {
    const offset_t b = lower.col_ptr[j];
    const offset_t e = lower.col_ptr[j + 1];
    if (b >= e || lower.row_idx[static_cast<std::size_t>(b)] !=
                      static_cast<index_t>(j)) {
      return false;
    }
    for (offset_t k = b + 1; k < e; ++k) {
      const index_t i = lower.row_idx[static_cast<std::size_t>(k)];
      if (i <= lower.row_idx[static_cast<std::size_t>(k) - 1] ||
          level[static_cast<std::size_t>(i)] <= level[j]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace msptrsv::core
