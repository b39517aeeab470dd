// Golden bits of the simulated backends at the shapes the repository
// benchmark runs: every bit of x and of the simulated report, computed
// through public SolverPlan calls only, so they pin what a caller sees
// whatever the engine, the plan and the kernels do inside.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/registry.hpp"
#include "golden_hash.hpp"
#include "sparse/csc.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"

namespace msptrsv::core {
namespace {

using golden::hex;
using golden::solve_hash;

constexpr index_t kBatch = 3;

SolverPlan analyze_plan(const sparse::CscMatrix& factor, bool upper,
                        const SolveOptions& opt, const std::string& label) {
  Expected<SolverPlan> p = upper ? SolverPlan::analyze_upper(factor, opt)
                                 : SolverPlan::analyze(factor, opt);
  EXPECT_TRUE(p.ok()) << label << ": " << p.message();
  return std::move(p).value();
}

/// One hash per case, in loop order: Fig. 10 matrix (fig10_matrix_names at
/// 4000 rows, the perfbench `paper` matrices, none of them diagonal) x
/// orientation (lower, upper) x design (registry defaults: a 4-GPU DGX-1)
/// x call (solve, solve_batch k = 3).
constexpr std::uint64_t kPaperGolden[] = {
    // belgium_osm
    0xbae09079253ca0e2ull, 0x5e4e8d6824a6e496ull,
    0xc6c46abb6e5a7f5full, 0x48628fdb311a0d64ull,
    0x01ade1b34923ed60ull, 0x71e4f08d4a328f37ull,
    0xf77993ca62b79636ull, 0xf040ead0246df0e4ull,
    0xdf06ab86a4f7ba97ull, 0x528fef6b584fa857ull,
    0xdbdbab4ab6a43454ull, 0x3a43ba1b87a97152ull,
    0xe976a55ded7f8a24ull, 0xe866c40919ae7885ull,
    0x6cbaa657b384c8deull, 0x2112f7dd9e3323e3ull,
    // delaunay_n20
    0x7a8a9fdc8b7e7730ull, 0x4785a5e57b7a0670ull,
    0x346ae912b49a53feull, 0x46ed41f7e4b4c663ull,
    0x345ee08c80f6a553ull, 0x596ecdc9f2fa7b07ull,
    0x6bbecb068021fa51ull, 0x46a520f275b03b05ull,
    0x36a6fe086bb2aef2ull, 0x629b2305679738d9ull,
    0xa7023712e69bd71eull, 0xcc8d56707fae5aa1ull,
    0xedbf019264c31643ull, 0x0e63dc6fd2d18e70ull,
    0xe36db103707973b9ull, 0x02c498f1a9126f9bull,
    // nlpkkt160
    0x70614312daf13402ull, 0x9f6f30d7ddd9205bull,
    0xe555959f4b9db861ull, 0xa359f0887a806cb3ull,
    0x5314b2ecf6583963ull, 0xdbe3643791c9f322ull,
    0x30f82ab72699121eull, 0xea523b700f7141f8ull,
    0x3537d4401ae6515aull, 0x786301df39adce9aull,
    0xf30b82572ce7cac5ull, 0x2bbbe57231e94914ull,
    0xb7f1934a3d27e767ull, 0xc310fb66538953d3ull,
    0xdab488fe67af4758ull, 0x69213e8750b76009ull,
    // powersim
    0xcd2204c650509669ull, 0x799b55654e92ad18ull,
    0xe78dce3eb9cce055ull, 0x35eb9300d03fd963ull,
    0x8c533b13a14159b3ull, 0x63c8a34f9e1b9623ull,
    0xa6d356e70201b0efull, 0x1489b2a333ad8ca4ull,
    0x8c5162e8da1c5c35ull, 0xfcd0fa1831c50ca5ull,
    0x9d921958428e8af0ull, 0xc1a1955b0cf4eea6ull,
    0x314c5419b236b6adull, 0x375e55f1ff70f5ecull,
    0x19c2d7c8ee29a36cull, 0xd0cefd10f315c9efull,
    // Wordnet3
    0xa9075da0b47de8a1ull, 0xa60d5656bf0f7379ull,
    0xc780c445a8bb7ccdull, 0x2932c42b7d6e37a5ull,
    0x277cee4e0cd1a24bull, 0x9cbcb447b7f77df2ull,
    0xed1b4bd9c80b07b8ull, 0x22a3dc6051e9a2a5ull,
    0x1ad48334a2405024ull, 0x4126e7fe7767c1c4ull,
    0xb832a44d0dc8eee0ull, 0x5ab6bfff15b21afaull,
    0x213d04be7f178df2ull, 0xba783c64fe3767e6ull,
    0x84c16cb8ecfc345full, 0xe4cb81dfaaa7d4fdull,
};

TEST(MgEngineGolden, PaperShapeKeepsEveryBit) {
  const char* const designs[] = {"mg-unified", "mg-unified-task", "mg-shmem",
                                 "mg-zerocopy"};
  std::size_t c = 0;
  for (const sparse::SuiteMatrix& m :
       sparse::generate_suite(4000, sparse::fig10_matrix_names())) {
    const index_t n = m.lower.rows;
    const std::vector<value_t> b = sparse::gen_solution(n, 1);
    const std::vector<value_t> batch = golden::golden_batch(n, kBatch);
    for (const bool upper : {false, true}) {
      const sparse::CscMatrix factor =
          upper ? sparse::transpose(m.lower) : m.lower;
      for (const char* design : designs) {
        const std::string label =
            m.entry.name + (upper ? "/upper/" : "/lower/") + design;
        const SolverPlan plan = analyze_plan(
            factor, upper, registry::options_for(design).value(), label);
        const std::uint64_t one = solve_hash(plan.solve(b).value());
        const std::uint64_t fused =
            solve_hash(plan.solve_batch(batch, kBatch).value());
        ASSERT_LT(c + 1, std::size(kPaperGolden)) << label;
        EXPECT_EQ(one, kPaperGolden[c]) << label << "/solve: " << hex(one);
        EXPECT_EQ(fused, kPaperGolden[c + 1])
            << label << "/solve_batch: " << hex(fused);
        c += 2;
      }
    }
  }
  EXPECT_EQ(c, std::size(kPaperGolden));
}

/// One hash per case, in loop order: rows (1000, 4000) x Fig. 10 matrix x
/// orientation (lower, upper) x call (solve, solve_batch k = 3), on a
/// registry-default gpu-levelset plan. belgium_osm and delaunay_n20 are
/// diagonal at 1000 rows, so their upper hashes repeat their lower ones.
constexpr std::uint64_t kLevelSetGolden[] = {
    // belgium_osm at 1000 rows
    0xf428d4d0741ca525ull, 0x6ca8fe220fb2c770ull,
    0xf428d4d0741ca525ull, 0x6ca8fe220fb2c770ull,
    // delaunay_n20 at 1000 rows
    0x906838aed2ba80b2ull, 0x1d895665ef8bb293ull,
    0x906838aed2ba80b2ull, 0x1d895665ef8bb293ull,
    // nlpkkt160 at 1000 rows
    0xb6394ee8d360d6cbull, 0xe7240656dc6e1613ull,
    0x54ce6c9ddc013b31ull, 0xb09205ffd05a2e6cull,
    // powersim at 1000 rows
    0x08d2889a75728619ull, 0x5e744241e4a94741ull,
    0x1dfbc68f4e05ff03ull, 0x70d329328188eacbull,
    // Wordnet3 at 1000 rows
    0x53155e033f10a3ffull, 0xc7caf6517ad04113ull,
    0xcb38e3e4bbfe0671ull, 0x3405c9de92e535dfull,
    // belgium_osm at 4000 rows
    0x642f9fa9a06eb46eull, 0x4ce9ecf8df1ceb55ull,
    0x219fac451d03e7c7ull, 0xfe6f4f7e696ea585ull,
    // delaunay_n20 at 4000 rows
    0xb985fa865c2a5f19ull, 0x646c836586b686a8ull,
    0x3fe0a9ca99005daaull, 0x8a94435c87bfec10ull,
    // nlpkkt160 at 4000 rows
    0x28dfcd2a054f064aull, 0xa9eace25641f0b4aull,
    0x548ffe0138a51159ull, 0x605f72416aa2d945ull,
    // powersim at 4000 rows
    0x8da5e27ec51b4052ull, 0xe79d3cba99752b14ull,
    0x2feaf98e4fa3da0cull, 0x4c9d2d9afab1093full,
    // Wordnet3 at 4000 rows
    0xc6ef51a7b8762e81ull, 0xa127cc1e0283a1aaull,
    0xdf38703795c6bc8bull, 0x6a7b626de20a033dull,
};

TEST(LevelSetGolden, SimulatedSolvesKeepEveryBit) {
  const SolveOptions opt = registry::options_for("gpu-levelset").value();
  std::size_t c = 0;
  for (const index_t rows : {1000, 4000}) {
    for (const sparse::SuiteMatrix& m :
         sparse::generate_suite(rows, sparse::fig10_matrix_names())) {
      const index_t n = m.lower.rows;
      const std::vector<value_t> b0 = sparse::gen_solution(n, 1);
      const std::vector<value_t> b1 = sparse::gen_solution(n, 2);
      const std::vector<value_t> batch = golden::golden_batch(n, kBatch);
      for (const bool upper : {false, true}) {
        const sparse::CscMatrix factor =
            upper ? sparse::transpose(m.lower) : m.lower;
        sparse::CscMatrix revalued = factor;
        for (value_t& v : revalued.val) v *= 1.5;
        const std::string label = m.entry.name + "/" + std::to_string(rows) +
                                  (upper ? "/upper" : "/lower");
        SolverPlan plan = analyze_plan(factor, upper, opt, label);
        const std::uint64_t one = solve_hash(plan.solve(b0).value());
        const std::uint64_t fused =
            solve_hash(plan.solve_batch(batch, kBatch).value());
        ASSERT_LT(c + 1, std::size(kLevelSetGolden)) << label;
        EXPECT_EQ(one, kLevelSetGolden[c]) << label << "/solve: " << hex(one);
        EXPECT_EQ(fused, kLevelSetGolden[c + 1])
            << label << "/solve_batch: " << hex(fused);
        c += 2;

        // Same plan, later solves: a new b, then new values, give every
        // bit a freshly analyzed plan gives on its first solve.
        EXPECT_EQ(solve_hash(plan.solve(b1).value()),
                  solve_hash(analyze_plan(factor, upper, opt, label)
                                 .solve(b1)
                                 .value()))
            << label << ": second solve";
        ASSERT_TRUE(plan.update_values(revalued.val).ok()) << label;
        const SolverPlan fresh = analyze_plan(revalued, upper, opt, label);
        EXPECT_EQ(solve_hash(plan.solve(b0).value()),
                  solve_hash(fresh.solve(b0).value()))
            << label << ": solve after update_values";
        EXPECT_EQ(solve_hash(plan.solve_batch(batch, kBatch).value()),
                  solve_hash(fresh.solve_batch(batch, kBatch).value()))
            << label << ": batch after update_values";
      }
    }
  }
  EXPECT_EQ(c, std::size(kLevelSetGolden));
}

}  // namespace
}  // namespace msptrsv::core
