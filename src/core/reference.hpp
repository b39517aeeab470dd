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

/// Fused multi-RHS column sweep: one pass over the matrix structure solves
/// all `num_rhs` right-hand sides (`b` column-major n x num_rhs, result in
/// the same layout). For each rhs the floating-point operation order is
/// identical to solve_lower_serial_prevalidated, so fused and looped
/// execution agree bit-for-bit. No input validation. The simulated
/// gpu-levelset backend's numeric pass; the serial plan backend runs the
/// pull sweep instead (solve_lower_serial_pull in cpu_parallel.hpp).
std::vector<value_t> solve_lower_serial_fused(const sparse::CscMatrix& lower,
                                              std::span<const value_t> b,
                                              index_t num_rhs);

/// Transposes a column-major n x num_rhs batch (entry i of rhs r at
/// [r*n + i]) into a component-major panel ([i*num_rhs + r]). The one
/// place the interleaved layout pays its transposition cost: once per
/// batch at the workspace boundary, O(n*k) sequential writes.
void pack_interleaved(std::span<const value_t> column_major, index_t n,
                      index_t num_rhs, value_t* panel);

/// Inverse of pack_interleaved: panel back to column-major.
void unpack_interleaved(const value_t* panel, index_t n, index_t num_rhs,
                        std::span<value_t> column_major);

/// Backward substitution for Ux = b on an upper-triangular CSC matrix with
/// a nonzero diagonal terminating each column.
std::vector<value_t> solve_upper_serial(const sparse::CscMatrix& upper,
                                        std::span<const value_t> b);

/// Reduction of Ux = b to the lower-triangular form every parallel backend
/// consumes: reverse-order both dimensions (L'(i,j) = U(n-1-i, n-1-j)),
/// solve L'x' = b', undo the reversal. Exposed so callers can run backward
/// substitution through any multi-GPU backend. Throws PreconditionError
/// unless `upper` is a valid upper-triangular CSC matrix whose reversal
/// is solvable.
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
