// Incomplete factorizations used to manufacture triangular factors from
// general square matrices.
//
// The paper factorizes its test matrices with MA48 (HSL, proprietary); any
// nonsingular factorization with a realistic dependency structure exercises
// the same solver code paths, so we provide ILU(0) (general, no fill) and
// IC(0) (SPD) plus a convenience that produces a ready-to-solve L.
//
// Cost: beyond the elimination arithmetic on the pattern, building the
// factors is O(nnz + n). They are computed row by row in flat CSR arrays
// and turned into CSC by one counting scatter each -- no COO, no sort.
// The input is CSR, so repeated entries were already summed when it was
// assembled (in insertion order; see CooMatrix::normalize).
#pragma once

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace msptrsv::sparse {

struct IluResult {
  /// Unit lower-triangular factor (diagonal of ones stored explicitly).
  CscMatrix lower;
  /// Upper-triangular factor with the pivots on its diagonal.
  CscMatrix upper;
};

/// ILU(0): incomplete LU with zero fill-in on the pattern of `a`.
/// Requires a square matrix whose diagonal is fully present. Zero or
/// vanishing pivots are perturbed to `pivot_floor` (in magnitude) so the
/// factors stay nonsingular -- standard practice for preconditioners.
IluResult ilu0(const CsrMatrix& a, value_t pivot_floor = 1e-8);

/// IC(0): incomplete Cholesky on the lower-triangular pattern of an SPD
/// matrix; returns L with A ~= L * L^T on the pattern.
CscMatrix ic0(const CsrMatrix& a, value_t pivot_floor = 1e-8);

/// One-stop shop for examples/tests: takes any square CSC matrix, runs
/// ILU(0) on it (after ensuring a full diagonal) and returns the lower
/// factor in solver-ready form.
CscMatrix lower_factor_of(const CscMatrix& a);

}  // namespace msptrsv::sparse
