// Workload generators: shape, determinism, conditioning, nnz targeting.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "sparse/factorization.hpp"
#include "sparse/generators.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/suite.hpp"
#include "sparse/triangular.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace msptrsv::sparse {
namespace {

TEST(Generators, AllAreDeterministicInSeed) {
  EXPECT_TRUE(identical(gen_banded(200, 5, 0.5, 42), gen_banded(200, 5, 0.5, 42)));
  EXPECT_TRUE(identical(gen_random_lower(200, 4.0, 42),
                        gen_random_lower(200, 4.0, 42)));
  EXPECT_TRUE(identical(gen_layered_dag(500, 10, 2500, 0.5, 42),
                        gen_layered_dag(500, 10, 2500, 0.5, 42)));
  EXPECT_TRUE(identical(gen_rmat_lower(8, 600, 42), gen_rmat_lower(8, 600, 42)));
}

TEST(Generators, SeedsChangeStructureOrValues) {
  EXPECT_FALSE(identical(gen_random_lower(200, 4.0, 1),
                         gen_random_lower(200, 4.0, 2)));
}

TEST(Generators, LayeredDagApproximatesNnzTarget) {
  const offset_t target = 30000;
  const CscMatrix m = gen_layered_dag(5000, 50, target, 0.5, 7);
  EXPECT_GT(m.nnz(), target * 7 / 10);
  EXPECT_LT(m.nnz(), target * 13 / 10);
}

TEST(Generators, LayeredDagRejectsBadArguments) {
  EXPECT_THROW(gen_layered_dag(10, 11, 50, 0.5, 1), support::PreconditionError);
  EXPECT_THROW(gen_layered_dag(10, 0, 50, 0.5, 1), support::PreconditionError);
  EXPECT_THROW(gen_layered_dag(10, 2, 50, 1.5, 1), support::PreconditionError);
}

TEST(Generators, LayeredDagLocalityShortensDependencySpans) {
  auto mean_span = [](const CscMatrix& m) {
    double total = 0.0;
    offset_t count = 0;
    for (index_t j = 0; j < m.cols; ++j) {
      for (offset_t k = m.col_ptr[j] + 1; k < m.col_ptr[j + 1]; ++k) {
        total += std::abs(static_cast<double>(m.row_idx[k]) - j);
        ++count;
      }
    }
    return count ? total / static_cast<double>(count) : 0.0;
  };
  const double local = mean_span(gen_layered_dag(4000, 40, 20000, 0.95, 5));
  const double scattered = mean_span(gen_layered_dag(4000, 40, 20000, 0.0, 5));
  EXPECT_LT(local, 0.6 * scattered);
}

TEST(Generators, BandedRespectsBandwidth) {
  const index_t bw = 7;
  const CscMatrix m = gen_banded(300, bw, 0.8, 9);
  for (index_t j = 0; j < m.cols; ++j) {
    for (offset_t k = m.col_ptr[j]; k < m.col_ptr[j + 1]; ++k) {
      EXPECT_LE(m.row_idx[k] - j, bw);
    }
  }
}

TEST(Generators, RandomLowerHitsAverageDegree) {
  const CscMatrix m = gen_random_lower(5000, 6.0, 13);
  const double avg = static_cast<double>(m.nnz() - m.rows) / m.rows;
  EXPECT_NEAR(avg, 6.0, 0.8);
}

TEST(Generators, Grid3dStructure) {
  const CscMatrix m = gen_grid3d_lower(5, 4, 3);
  EXPECT_EQ(m.rows, 60);
  // interior cell count check via nnz: n + edges along each axis
  const offset_t expected = 60 + (4 * 4 * 3) + (5 * 3 * 3) + (5 * 4 * 2);
  EXPECT_EQ(m.nnz(), expected);
  const LevelAnalysis a = analyze_levels(m);
  EXPECT_EQ(a.num_levels, 5 + 4 + 3 - 2);
}

TEST(Generators, RmatProducesSkewedInDegrees) {
  const CscMatrix m = gen_rmat_lower(11, 8000, 3);
  const std::vector<index_t> indeg = compute_in_degrees(m);
  index_t max_deg = 0;
  for (index_t d : indeg) max_deg = std::max(max_deg, d);
  const double avg = static_cast<double>(m.nnz() - m.rows) / m.rows;
  // Power-law-ish: max in-degree far above the average.
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * avg);
}

TEST(Generators, ValuesAreDiagonallyDominantEnough) {
  // Forward substitution on generated matrices must stay well conditioned:
  // |diag| >= 1 and row off-diagonal sums bounded by ~1.
  const CscMatrix m = gen_layered_dag(2000, 30, 12000, 0.3, 21);
  std::vector<double> row_offdiag(static_cast<std::size_t>(m.rows), 0.0);
  for (index_t j = 0; j < m.cols; ++j) {
    EXPECT_GE(std::abs(m.val[m.col_ptr[j]]), 1.0);
    for (offset_t k = m.col_ptr[j] + 1; k < m.col_ptr[j + 1]; ++k) {
      row_offdiag[static_cast<std::size_t>(m.row_idx[k])] += std::abs(m.val[k]);
    }
  }
  for (double s : row_offdiag) EXPECT_LE(s, 1.5);
}

TEST(Generators, SolutionHelperRoundTrip) {
  const CscMatrix m = gen_banded(400, 6, 0.6, 5);
  const std::vector<value_t> x = gen_solution(m.rows, 9);
  EXPECT_EQ(x.size(), 400u);
  for (value_t v : x) EXPECT_GE(std::abs(v), 1e-3);
  const std::vector<value_t> b = gen_rhs_for_solution(m, x);
  EXPECT_EQ(b.size(), 400u);
}

/// FNV-1a (64-bit) over a matrix's dimensions, its index arrays and the
/// bits of its values: equal hashes mean the same structure and the same
/// result bits, down to the sign of a zero.
class Fnv1a {
 public:
  template <typename T>
  void add(T v) {
    const auto bits = std::bit_cast<std::array<unsigned char, sizeof(T)>>(v);
    for (unsigned char byte : bits) {
      h_ ^= byte;
      h_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t hash_of(const CscMatrix& m) {
  Fnv1a h;
  h.add(m.rows);
  h.add(m.cols);
  h.add(m.col_ptr);
  h.add(m.row_idx);
  h.add(m.val);
  return h.value();
}

std::uint64_t hash_of(const CsrMatrix& m) {
  Fnv1a h;
  h.add(m.rows);
  h.add(m.cols);
  h.add(m.row_ptr);
  h.add(m.col_idx);
  h.add(m.val);
  return h.value();
}

/// Seeded SPD grid operator: the 5-point stencil when nz == 1, else the
/// 7-point one. Each neighbour pair couples by -c with c drawn from
/// [1, 2]; the diagonal is 1 plus the cell's couplings. No entry repeats.
CsrMatrix seeded_grid_operator(index_t nx, index_t ny, index_t nz,
                               std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  const index_t n = nx * ny * nz;
  std::vector<value_t> diag(static_cast<std::size_t>(n), 1.0);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  auto couple = [&](index_t a, index_t b) {
    const value_t c = rng.uniform_real(1.0, 2.0);
    diag[static_cast<std::size_t>(a)] += c;
    diag[static_cast<std::size_t>(b)] += c;
    coo.add(a, b, -c);
    coo.add(b, a, -c);
  };
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t i = (z * ny + y) * nx + x;
        if (x + 1 < nx) couple(i, i + 1);
        if (y + 1 < ny) couple(i, i + nx);
        if (z + 1 < nz) couple(i, i + nx * ny);
      }
    }
  }
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag[static_cast<std::size_t>(i)]);
  }
  return csr_from_coo(std::move(coo));
}

/// Seeded general square matrix in shuffled COO order with no repeated
/// entry: a diagonal in [4, 5] and `per_row` off-diagonals per row at
/// distinct random columns on both sides of it.
CooMatrix seeded_shuffled_coo(index_t n, index_t per_row, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  std::vector<index_t> stamp(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, rng.uniform_real(4.0, 5.0));
    stamp[static_cast<std::size_t>(i)] = i;
    for (index_t t = 0; t < per_row; ++t) {
      const auto j =
          static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (stamp[static_cast<std::size_t>(j)] == i) continue;
      stamp[static_cast<std::size_t>(j)] = i;
      coo.add(i, j, rng.uniform_real(-1.0, 1.0));
    }
  }
  for (std::size_t k = coo.entries.size(); k > 1; --k) {
    std::swap(coo.entries[k - 1], coo.entries[rng.next_below(k)]);
  }
  return coo;
}

// The build layer (COO assembly, format conversions, factorizations and
// generators) must produce the same bits whatever algorithm builds them.
// Every constant was computed by the sort-based build layer; a change
// that moves one changes a matrix a golden, corpus or paper test relies on.
TEST(Generators, BuildLayerKeepsEveryBit) {
  struct SuiteGolden {
    const char* name;
    std::uint64_t at_1000;
    std::uint64_t at_4000;
  };
  const SuiteGolden kSuite[] = {
      {"belgium_osm", 0xd063dc34a422a2ddULL, 0x8af08e7fd95e4495ULL},
      {"chipcool0", 0x60dc0636565ceb6bULL, 0x62c7001ba917ab86ULL},
      {"citationCiteseer", 0xa71e2cefc9dcf4a1ULL, 0x8df8d94b373f0d16ULL},
      {"dblp-2010", 0x7d83d247ed1b4f2ULL, 0x23088f4d6f3b0a1fULL},
      {"dc2", 0xf0f53d306aa35a57ULL, 0x8742746f1bb6a902ULL},
      {"delaunay_n20", 0xf1c238ab0b55d1e1ULL, 0x43ccf91236241092ULL},
      {"nlpkkt160", 0x44d2e36ad90bd1f0ULL, 0x80d0b9f8fa61dc62ULL},
      {"pkustk14", 0x5646e23dbb560221ULL, 0xc4b864db7167dd6aULL},
      {"powersim", 0xfb0c973501b4d5c6ULL, 0x9d048abe92d603a0ULL},
      {"roadNet-CA", 0xa56b42f7ff7b555bULL, 0x5df6c11e56ce8f8cULL},
      {"webbase-1M", 0x70adea90ca1fe10cULL, 0x74dc91948e16c1d9ULL},
      {"Wordnet3", 0x557a9cc03423b7aULL, 0x30e8bd42d5a3e203ULL},
      {"shipsec1", 0xae2b6dc4f6b9cee9ULL, 0xe03c0ac2a24d4a84ULL},
      {"copter2", 0xd0b138b64e2cf0bbULL, 0xcfc1b9fd678627edULL},
      {"twitter7", 0xab5ff8b4a7666103ULL, 0xad6170c92a1aec7eULL},
      {"uk-2005", 0x9b61e3fddbb3a329ULL, 0x400434db0662eff6ULL},
  };
  ASSERT_EQ(std::size(kSuite), table1_entries().size());
  for (const SuiteGolden& g : kSuite) {
    for (const auto& [cap, want] :
         {std::pair{1000, g.at_1000}, std::pair{4000, g.at_4000}}) {
      const std::uint64_t got =
          hash_of(generate_suite_matrix(g.name, cap).lower);
      EXPECT_EQ(got, want) << g.name << " at " << cap << " rows: 0x"
                           << std::hex << got;
    }
  }

  const CooMatrix shuffled = seeded_shuffled_coo(700, 6, 31);
  const CsrMatrix general = csr_from_coo(shuffled);
  const IluResult ilu = ilu0(general);
  const CscMatrix general_csc = csc_from_coo(shuffled);
  struct Golden {
    const char* what;
    std::uint64_t got;
    std::uint64_t want;
  };
  const Golden kCases[] = {
      {"gen_diagonal", hash_of(gen_diagonal(257)),
       0xa44498261bae281fULL},
      {"gen_chain", hash_of(gen_chain(300)),
       0x64f45bb948819bd0ULL},
      {"gen_banded", hash_of(gen_banded(500, 6, 0.6, 5)),
       0x487cb04ca86d576aULL},
      {"gen_random_lower", hash_of(gen_random_lower(2000, 6.0, 13)),
       0xd8441ad4edbc7989ULL},
      {"gen_layered_dag local",
       hash_of(gen_layered_dag(3000, 40, 18000, 0.95, 7)),
       0x4b1dc9beef974c74ULL},
      {"gen_layered_dag mixed",
       hash_of(gen_layered_dag(3000, 40, 18000, 0.5, 7)),
       0x40f3acab0f5f4e5fULL},
      {"gen_layered_dag scattered",
       hash_of(gen_layered_dag(3000, 40, 18000, 0.0, 7)),
       0x1aaba99ef93b26faULL},
      {"gen_chain_heavy", hash_of(gen_chain_heavy(3, 50, 64, 8, 42)),
       0xfea655285d20f912ULL},
      {"gen_grid2d_lower", hash_of(gen_grid2d_lower(30, 20)),
       0x9baa00fe23c1e617ULL},
      {"gen_grid3d_lower", hash_of(gen_grid3d_lower(9, 8, 7)),
       0xba2a642ab7c22002ULL},
      {"gen_rmat_lower", hash_of(gen_rmat_lower(11, 8000, 3)),
       0xd104329df89b5c11ULL},
      {"ic0 5-point", hash_of(ic0(seeded_grid_operator(40, 30, 1, 5))),
       0x6b894f36a805f0baULL},
      {"ic0 7-point", hash_of(ic0(seeded_grid_operator(12, 10, 8, 7))),
       0xc706275dbaaa319bULL},
      {"ilu0 lower", hash_of(ilu.lower),
       0xaeef871c3a1d4ebfULL},
      {"ilu0 upper", hash_of(ilu.upper),
       0xb772b795103b3649ULL},
      {"lower_factor_of", hash_of(lower_factor_of(general_csc)),
       0xaeef871c3a1d4ebfULL},
      {"csc_from_coo", hash_of(general_csc),
       0x77ab845ca7c7db00ULL},
      {"csr_from_coo", hash_of(general),
       0x1bc5fa41e75ef8a1ULL},
      {"csc_from_csr", hash_of(csc_from_csr(general)),
       0x77ab845ca7c7db00ULL},
      {"csr_from_csc", hash_of(csr_from_csc(general_csc)),
       0x1bc5fa41e75ef8a1ULL},
  };
  for (const Golden& c : kCases) {
    EXPECT_EQ(c.got, c.want) << c.what << ": 0x" << std::hex << c.got;
  }
}

}  // namespace
}  // namespace msptrsv::sparse
