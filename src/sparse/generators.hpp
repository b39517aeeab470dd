// Synthetic lower-triangular workload generators.
//
// The paper evaluates on SuiteSparse factors produced by MA48 (proprietary
// HSL). We reproduce the *structural* properties its analysis says matter
// (Section VI-D): dependency = nnz/n and parallelism = n/#levels, plus
// spatial locality of the dependency pattern. `layered_dag` gives exact
// control of levels and parallelism; the other generators provide classical
// extreme and application-shaped structures.
//
// All generators return a solvable lower-triangular CSC (diagonal present,
// first in each column, nonzero) with diagonally-dominant values so forward
// substitution is well conditioned, and are deterministic in their seed.
#pragma once

#include <cstdint>

#include "sparse/csc.hpp"

namespace msptrsv::sparse {

/// Diagonal matrix: one level, zero dependencies (best case).
CscMatrix gen_diagonal(index_t n);

/// Bidiagonal chain: n levels, parallelism 1 (worst case / critical path).
CscMatrix gen_chain(index_t n);

/// Tridiagonal-style banded factor: entries on the diagonal and `bandwidth`
/// sub-diagonals, each present with probability `fill`, giving locality-heavy
/// structure like 1D PDE factors.
CscMatrix gen_banded(index_t n, index_t bandwidth, double fill,
                     std::uint64_t seed);

/// Random lower factor: row i draws `avg_row_degree` predecessors uniformly
/// from [0, i). Produces log-depth DAGs with no locality (stress case for
/// communication).
CscMatrix gen_random_lower(index_t n, double avg_row_degree,
                           std::uint64_t seed);

/// The key generator: a layered DAG with exactly `num_levels` levels (when
/// n >= num_levels >= 1) and parallelism n/num_levels.
///
/// Components are laid out level-contiguously. Every component in level
/// l > 0 takes one mandatory predecessor from level l-1 (pinning its level)
/// plus extra random predecessors from earlier components, tuned so total
/// nnz ~= target_nnz. `locality` in [0,1] biases predecessor choice toward
/// nearby ids (1 = strongly local / banded-like, 0 = uniform).
CscMatrix gen_layered_dag(index_t n, index_t num_levels, offset_t target_nnz,
                          double locality, std::uint64_t seed);

/// Chain-heavy workload: `num_segments` repetitions of a long width-1
/// chain (`chain_len` rows, each depending on its predecessor) feeding a
/// `fan_width`-wide independent fan, with the next segment's chain rooted
/// in the fan. Produces chain_len narrow levels followed by one wide level
/// per segment -- the regime where a level schedule pays a gang
/// synchronization per chain row, and one sequential sweep pays none.
/// `extra_edges` random fan-to-fan dependencies
/// per segment add gather work without changing the level structure.
CscMatrix gen_chain_heavy(index_t num_segments, index_t chain_len,
                          index_t fan_width, index_t extra_edges,
                          std::uint64_t seed);

/// Lower factor of the 5-point 2D Poisson stencil on an nx-by-ny grid
/// (structure of an IC(0)/ILU(0) factor on a structured grid: dependencies
/// on west and south neighbors; #levels = nx+ny-1 wavefronts).
CscMatrix gen_grid2d_lower(index_t nx, index_t ny);

/// Lower factor of the 7-point 3D stencil on an nx*ny*nz grid.
CscMatrix gen_grid3d_lower(index_t nx, index_t ny, index_t nz);

/// Scale-free graph structure via R-MAT edge sampling, mapped to the lower
/// triangle (edge (u,v) -> (max,min)), duplicates dropped. Produces the
/// skewed degree distributions of the paper's web/social graphs
/// (twitter7, uk-2005, citationCiteseer, ...).
CscMatrix gen_rmat_lower(index_t n_log2, offset_t target_edges,
                         std::uint64_t seed);

/// Solution/right-hand-side helpers ------------------------------------

/// Deterministic reference solution vector (entries in [-1, 1], nonzero).
std::vector<value_t> gen_solution(index_t n, std::uint64_t seed);

/// Manufactures b = L * x_ref so solvers can be checked against x_ref.
std::vector<value_t> gen_rhs_for_solution(const CscMatrix& lower,
                                          const std::vector<value_t>& x_ref);

}  // namespace msptrsv::sparse
