// Serial reference solvers (the paper's Algorithm 1 and its backward
// counterpart). Every parallel backend is validated against these.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.hpp"

namespace msptrsv::core {

/// Forward substitution for Lx = b on a solvable lower-triangular CSC
/// matrix (Algorithm 1: column sweep with a left-sum accumulator).
std::vector<value_t> solve_lower_serial(const sparse::CscMatrix& lower,
                                        std::span<const value_t> b);

/// As solve_lower_serial but with no input validation: the caller has
/// already established the solvable-lower invariants and the rhs length
/// (e.g. SolverPlan::analyze). This is the reusable-execution form.
std::vector<value_t> solve_lower_serial_prevalidated(
    const sparse::CscMatrix& lower, std::span<const value_t> b);

/// Backward substitution for Ux = b on an upper-triangular CSC matrix with
/// a nonzero diagonal terminating each column.
std::vector<value_t> solve_upper_serial(const sparse::CscMatrix& upper,
                                        std::span<const value_t> b);

/// Reduction of Ux = b to the lower-triangular form every backend
/// analyzes: reverse-order both dimensions (L'(i,j) = U(n-1-i, n-1-j)),
/// solve L'x' = b', undo the reversal. SolverPlan::analyze_upper reverses
/// the factor once and then solves in the caller's numbering through a
/// mirrored row form, with no vector reversal; this form lets a caller run
/// backward substitution through a lower plan of L' instead, reversing b
/// and x itself. Throws PreconditionError unless `upper` is a valid
/// upper-triangular CSC matrix whose reversal is solvable.
sparse::CscMatrix reverse_upper_to_lower(const sparse::CscMatrix& upper);

/// The same reversal with no validation, one O(nnz) pass: `upper` must
/// be square, upper triangular, with sorted unique rows per column
/// (CscMatrix::validate); the result then has sorted columns too.
/// SolverPlan::analyze_upper diagnoses its input through the status
/// channel first and calls this.
sparse::CscMatrix reverse_upper_to_lower_prevalidated(
    const sparse::CscMatrix& upper);

/// Reverses a vector (the rhs/solution transform that pairs with
/// reverse_upper_to_lower).
std::vector<value_t> reversed(std::span<const value_t> v);

}  // namespace msptrsv::core
