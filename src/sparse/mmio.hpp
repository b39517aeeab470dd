// Matrix Market (.mtx) I/O.
//
// Supports the coordinate format with real / integer / pattern fields and
// general / symmetric / skew-symmetric symmetry, which covers every matrix
// in the paper's SuiteSparse test set. Writing always emits
// "coordinate real general" with full 17-digit round-trip precision.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/csc.hpp"

namespace msptrsv::sparse {

/// Parses a Matrix Market stream into COO, entries in file order (a
/// symmetric entry's mirror right after it). Throws PreconditionError on
/// malformed input with a line-numbered message. Repeated coordinates are
/// kept; CooMatrix::normalize (and every conversion) sums them in file
/// order, the format's own rule.
CooMatrix read_matrix_market(std::istream& in);

/// Convenience: read a file from disk (throws if it cannot be opened).
CooMatrix read_matrix_market_file(const std::string& path);

/// Serializes to "coordinate real general" with 1-based indices.
void write_matrix_market(std::ostream& out, const CscMatrix& m);

void write_matrix_market_file(const std::string& path, const CscMatrix& m);

}  // namespace msptrsv::sparse
