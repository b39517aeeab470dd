// Sparse-matrix (de)serialization and stable structural hashing.
//
// Two consumers:
//  * plan persistence (core/plan_snapshot) embeds a simulated plan's
//    factor and a gpu-levelset plan's levels in its blob;
//  * the content-addressed PlanCache keys plans by the structural hash, so
//    "same matrix" is decided without ever comparing matrices.
//
// The hash is a deterministic function of the matrix CONTENT only (dims,
// col_ptr, row_idx, and -- for the values variant -- the raw value bytes):
// stable across processes, machines of the same endianness, and library
// versions, which is what makes it usable as an on-disk cache filename.
#pragma once

#include <cstdint>

#include "sparse/csc.hpp"
#include "sparse/level_analysis.hpp"
#include "support/blob.hpp"

namespace msptrsv::sparse {

/// Content hash of a matrix, split by sensitivity:
///  * `pattern` covers dims + col_ptr + row_idx -- what the symbolic
///    analysis depends on;
///  * `values` additionally folds in the nonzero values (so it changes on
///    every update_values refresh while `pattern` stays put).
struct StructuralHash {
  std::uint64_t pattern = 0;
  std::uint64_t values = 0;

  bool operator==(const StructuralHash&) const = default;
};

StructuralHash hash_csc(const CscMatrix& m);

/// Writes the matrix as a length-prefixed record (dims + the three
/// arrays). Appended to the writer's payload in place.
void write_csc(support::BlobWriter& w, const CscMatrix& m);

/// Reads a write_csc record. Validates everything a consumer
/// indexes through -- shape vs the recorded dims, a monotone pointer
/// array covering exactly the stored nonzeros, indices within the minor
/// dimension -- so even a hostile blob with a recomputed CRC is
/// memory-safe to solve with; on violation the READER is failed (r.ok()
/// turns false) and an empty matrix is returned. Within-segment
/// sortedness is NOT re-checked (it cannot cause out-of-bounds access,
/// and a CRC-verified blob written by this library is already sorted).
CscMatrix read_csc(support::BlobReader& r);

/// Consumes a write_csc record WITHOUT materializing the arrays (for
/// loads where the caller already holds the matrix): only the dims
/// survive, in an otherwise-empty matrix. Shape consistency is still
/// checked; content is not (it is never used).
CscMatrix skip_csc(support::BlobReader& r);

/// Level-set analysis results round-trip with the plans that cached them
/// (the expensive half of the csrsv2-style symbolic phase).
void write_levels(support::BlobWriter& w, const LevelAnalysis& a);
LevelAnalysis read_levels(support::BlobReader& r);

}  // namespace msptrsv::sparse
