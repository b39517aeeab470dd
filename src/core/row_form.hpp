// The kernels' gather view of an analyzed factor, stored in the order its
// schedule executes.
//
// Every backend solves a row by PULLING the final x entries of its
// dependencies (cpu_parallel.hpp): the host backends in their own
// schedules, and the simulated ones through the serial pull kernel. The
// row form holds those rows at POSITIONS: position p is the p-th row of a
// topological order, and a kernel walks positions -- front to back on one
// party, or in level slices on a gang -- never row ids. Storing the rows in execution order makes every sweep a
// unit-stride stream through the structure, and lets the serial sweep put
// independent rows next to each other so the core overlaps their divides
// instead of waiting on x[i-1] every row.
//
// The form speaks the CALLER's numbering: row_of[p] and the column ids
// are the caller's row ids. For an upper plan, whose analyzed factor is
// the reversed lower form (reference.hpp), internal row i is caller row
// n-1-i, so upper solves read b and write x directly, with no vector
// reversal around the kernel.
//
// A row's entries are gathered in their stored order, from zero, and that
// order alone fixes every result bit -- whatever the order of the
// positions. Host plans store them in the analyzed factor's ascending
// internal-column order. A simulated plan's replay form stores them in
// the order its simulated schedule PUSHES them (EntryOrder): a push that
// adds a row's terms in a fixed order gives the bits of a pull over that
// row stored in that order. Either way the diagonal ends every row.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/level_analysis.hpp"

namespace msptrsv::core {

struct RowForm {
  /// Position p's entries occupy [row_ptr[p], row_ptr[p+1]); size n+1.
  std::vector<offset_t> row_ptr;
  /// Caller-numbered column of each entry, in the form's EntryOrder; the
  /// diagonal ends every row.
  std::vector<index_t> col_idx;
  std::vector<value_t> val;
  /// row_of[p]: the caller-numbered row solved at position p.
  std::vector<index_t> row_of;

  index_t rows() const { return static_cast<index_t>(row_of.size()); }
  offset_t nnz() const { return static_cast<offset_t>(col_idx.size()); }
};

/// Where build_row_form places each row's entries.
enum class EntryOrder {
  /// Ascending internal column, as the analyzed factor stores them: every
  /// host kernel's order.
  kAscending,
  /// The position of each entry's column in `order`: the order a push
  /// sweep visiting the components in `order` adds a row's terms in -- a
  /// simulated plan's replay form, built from the multi-GPU schedule or,
  /// for gpu-levelset, natural order (which gives ascending entries).
  kSolveOrder,
};

/// Builds the row form of the solvable lower factor `lower` with its rows
/// at the positions `order` lists (internal row ids; a permutation, and
/// topological for any kernel to run on it -- which also puts each row's
/// diagonal last under kSolveOrder). `mirrored` numbers rows and columns
/// n-1-i in the caller's frame (upper plans). One counting pass and one
/// scatter pass over the factor, O(n + nnz).
RowForm build_row_form(const sparse::CscMatrix& lower,
                       std::span<const index_t> order, bool mirrored,
                       EntryOrder entries = EntryOrder::kAscending);

/// Rows per window of the serial sweep: the smallest power of two of at
/// least 256 whose windows of consecutive rows hold, on average, at least
/// 8 rows per (window, level) pair; the whole factor (levels.n) when none
/// does. One linear pass over the level order per candidate.
index_t serial_window_rows(const sparse::LevelAnalysis& levels);

/// The serial sweep's execution order: the rows of each window of
/// serial_window_rows consecutive rows, in level order (ascending id
/// within a level). Rows of one level sit side by side, so the sweep
/// overlaps their independent divides, and each window's slice of b and
/// x stays in cache at any batch width. Topological whenever
/// levels.order is.
std::vector<index_t> serial_row_order(const sparse::LevelAnalysis& levels);

/// The analyzed lower factor a host row form (EntryOrder::kAscending)
/// was built from: the inverse of build_row_form, one counting pass and
/// one scatter over the form, O(n + nnz). Rows ascend in every column, so
/// the result is the CSC the analysis read, bit for bit. `mirrored` as in
/// build_row_form. An empty rows.val gives a pattern with zero values.
sparse::CscMatrix factor_of(const RowForm& rows, bool mirrored);

/// True when `rows` is a host row form a kernel may run: row_ptr starts
/// at 0, never decreases and ends at nnz; row_of is a permutation; every
/// row ends with its own diagonal, nonzero (checked only when rows.val is
/// non-empty); its other columns are in range, strictly ascend in
/// internal numbering (descending caller ids when `mirrored`) -- the one
/// gather order of every host kernel, so the bits equal a fresh
/// analysis's -- and each lies in a strictly earlier level, the levels
/// cut at `level_ptr`, which must tile 0..n. An empty `level_ptr` makes
/// every position its own level: serial's windowed order is topological
/// but not cut into levels. The load path proves every stored host form
/// with it. One pass, O(n + nnz).
bool is_row_schedule(const RowForm& rows, std::span<const offset_t> level_ptr,
                     bool mirrored);

/// True when `lower` has the structure of a solvable lower factor -- each
/// column leads with its diagonal, then strictly ascending rows below it
/// -- and `order` cut at `level_ptr` is a level schedule of it: the
/// levels tile `order` front to back, `order` lists every row exactly
/// once, and every off-diagonal (i, j) puts row i in a strictly later
/// level than row j. The rows of a level are then independent, which the
/// level-set gang's slices rest on, and `order` is topological, which
/// build_row_form and every sweep rest on; a topological order is the
/// level schedule whose levels hold one row each. The load path checks
/// a gpu-levelset plan's stored level analysis with it. O(n + nnz).
bool is_level_schedule(const sparse::CscMatrix& lower,
                       std::span<const index_t> order,
                       std::span<const offset_t> level_ptr);

}  // namespace msptrsv::core
