// Cross-backend differential harness.
//
// One seeded sweep drives every host execution strategy through the same
// inputs -- {lower, upper} x {serial, cpu-levelset} x {1, 4 threads} x
// {solve, solve_batch at 2, 3 and 5 rhs, the 5 rhs solved one by one,
// save-then-load-then-solve, load-then-update_values-then-solve,
// load-then-save (the same bytes), borrowed load of refreshed values,
// update_values-then-solve} -- and holds the results to two contracts at
// once:
//
//  * numerics: every configuration reproduces the serial backend to
//    tight relative tolerance;
//  * bits: every host backend -- the serial windowed sweep and the
//    level-set gang alike -- gathers each row in the analyzed
//    factor's ascending-column order from zero BY CONSTRUCTION,
//    independent of the order its rows execute in, thread count, and
//    batch width -- so all of them must agree bit for bit, across every
//    configuration, and a fused batch must equal its columns solved one
//    by one.
//
// The batch widths cover every column-major register block (1 to 4 rhs:
// solve, then 2 and 3, then 5 = 4 + 1, a two-pass batch).
//
// A failing comparison dumps the matrix to a Matrix Market file next to
// the test binary (name embeds the case tag and seed) so the exact
// instance can be replayed offline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"
#include "sparse/mmio.hpp"

namespace msptrsv {
namespace {

struct MatrixCase {
  std::string tag;
  std::uint64_t seed;
  sparse::CscMatrix lower;
};

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> out;
  for (std::uint64_t seed : {7u, 19u}) {
    out.push_back({"layered", seed,
                   sparse::gen_layered_dag(300, 24, 1600, 0.5, seed)});
    out.push_back({"chain_heavy", seed,
                   sparse::gen_chain_heavy(5, 20, 10, 2, seed)});
    out.push_back({"random", seed, sparse::gen_random_lower(250, 3.0, seed)});
    out.push_back({"banded", seed, sparse::gen_banded(220, 5, 0.7, seed)});
  }
  return out;
}

struct Config {
  const char* backend;
  int threads;
  std::string label() const {
    return std::string(backend) + "/t" + std::to_string(threads);
  }
};

std::vector<Config> configs() {
  std::vector<Config> out;
  for (const char* b : {"serial", "cpu-levelset"}) {
    for (int t : {1, 4}) out.push_back({b, t});
  }
  return out;
}

core::SolveOptions options_of(const Config& c) {
  core::SolveOptions o = core::registry::options_for(c.backend).value();
  o.cpu_threads = c.threads;
  return o;
}

/// Batch widths of the solve_batch op: with the single solve they hit
/// every column-major register block (1-4 rhs) and a two-pass batch.
constexpr index_t kBatchWidths[] = {2, 3, 5};
constexpr index_t kMaxBatchRhs = 5;

/// The results one configuration produces from one matrix. The update op
/// runs LAST on its plan, so every other op sees original values.
struct Results {
  std::vector<value_t> solve;
  /// One per kBatchWidths entry.
  std::vector<std::vector<value_t>> batches;
  /// The widest batch's columns solved one at a time, concatenated.
  std::vector<value_t> looped;
  /// The plan saved, restored, then solve + widest batch.
  std::vector<value_t> loaded_solve;
  std::vector<value_t> loaded_batch;
  /// The restored plan re-saved gives the bytes it was restored from.
  bool resaved_same_bytes = false;
  /// The restored plan refreshed to the scaled values, then solve.
  std::vector<value_t> loaded_updated;
  /// Lower factors: the blob loaded borrowing the scaled matrix, then
  /// solve (upper plans refuse borrowed loads).
  std::vector<value_t> borrowed_scaled;
  std::vector<value_t> updated;
};

/// The first `width` columns of a column-major batch.
std::span<const value_t> first_columns(const std::vector<value_t>& batch,
                                       index_t n, index_t width) {
  return std::span<const value_t>(batch).first(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(width));
}

Results run_all_ops(const sparse::CscMatrix& factor, bool upper,
                    const core::SolveOptions& opt,
                    const std::vector<value_t>& b,
                    const std::vector<value_t>& batch,
                    const sparse::CscMatrix& scaled) {
  auto plan = upper ? core::SolverPlan::analyze_upper(
                          sparse::CscMatrix(factor), opt)
                    : core::SolverPlan::analyze(sparse::CscMatrix(factor),
                                                opt);
  EXPECT_TRUE(plan.ok()) << plan.message();
  Results r;
  const auto rs = plan->solve(b);
  EXPECT_TRUE(rs.ok()) << rs.message();
  r.solve = rs.value().x;
  for (const index_t width : kBatchWidths) {
    const auto rb =
        plan->solve_batch(first_columns(batch, factor.rows, width), width);
    EXPECT_TRUE(rb.ok()) << rb.message();
    r.batches.push_back(rb.value().x);
  }
  const std::size_t n = static_cast<std::size_t>(factor.rows);
  for (index_t j = 0; j < kMaxBatchRhs; ++j) {
    const auto rj =
        plan->solve(first_columns(batch, factor.rows, j + 1).last(n));
    EXPECT_TRUE(rj.ok()) << rj.message();
    r.looped.insert(r.looped.end(), rj.value().x.begin(), rj.value().x.end());
  }
  const auto blob = plan->serialize();
  EXPECT_TRUE(blob.ok()) << blob.message();
  auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
  EXPECT_TRUE(loaded.ok()) << loaded.message();
  r.loaded_solve = loaded->solve(b).value().x;
  r.loaded_batch = loaded->solve_batch(batch, kMaxBatchRhs).value().x;
  r.resaved_same_bytes = loaded->serialize().value() == blob.value();
  EXPECT_TRUE(loaded->update_values(scaled).ok());
  r.loaded_updated = loaded->solve(b).value().x;
  if (!upper) {
    const std::string path =
        ::testing::TempDir() + "differential_borrowed.plan";
    EXPECT_TRUE(support::write_file(path, blob.value()));
    const auto borrowed = core::SolverPlan::load_borrowed(path, scaled, opt);
    EXPECT_TRUE(borrowed.ok()) << borrowed.message();
    r.borrowed_scaled = borrowed->solve(b).value().x;
    std::remove(path.c_str());
  }
  const auto up = plan->update_values(scaled);
  EXPECT_TRUE(up.ok()) << up.message();
  const auto ru = plan->solve(b);
  EXPECT_TRUE(ru.ok()) << ru.message();
  r.updated = ru.value().x;
  return r;
}

/// On mismatch, persists the failing instance as Matrix Market and
/// returns the artifact path for the failure message.
std::string dump_artifact(const MatrixCase& m, bool upper,
                          const sparse::CscMatrix& factor) {
  const std::string path = "differential_" + m.tag + "_seed" +
                           std::to_string(m.seed) +
                           (upper ? "_upper" : "_lower") + ".mtx";
  sparse::write_matrix_market_file(path, factor);
  return path;
}

void expect_close(const std::vector<value_t>& got,
                  const std::vector<value_t>& want, const char* op,
                  const std::string& label, const MatrixCase& m, bool upper,
                  const sparse::CscMatrix& factor) {
  ASSERT_EQ(got.size(), want.size());
  if (core::max_relative_difference(got, want) >= 1e-10) {
    FAIL() << label << " " << op << " diverges from the serial reference on "
           << m.tag << " seed " << m.seed
           << "; instance dumped to " << dump_artifact(m, upper, factor);
  }
}

void expect_bits(const std::vector<value_t>& got,
                 const std::vector<value_t>& want, const char* op,
                 const std::string& label, const MatrixCase& m, bool upper,
                 const sparse::CscMatrix& factor) {
  if (got != want) {
    FAIL() << label << " " << op
           << " is not bit-identical to cpu-levelset/t1 on "
           << m.tag << " seed " << m.seed
           << "; instance dumped to " << dump_artifact(m, upper, factor);
  }
}

TEST(Differential, HostBackendsAgreeAcrossEveryConfiguration) {
  const std::vector<Config> sweep = configs();
  for (const MatrixCase& m : matrix_cases()) {
    for (const bool upper : {false, true}) {
      const sparse::CscMatrix factor =
          upper ? sparse::transpose(m.lower) : sparse::CscMatrix(m.lower);
      const index_t n = factor.rows;
      SCOPED_TRACE(m.tag + " seed " + std::to_string(m.seed) +
                   (upper ? " upper" : " lower"));

      const std::vector<value_t> b = sparse::gen_rhs_for_solution(
          factor, sparse::gen_solution(n, m.seed + 1));
      std::vector<value_t> batch;
      for (index_t j = 0; j < kMaxBatchRhs; ++j) {
        const std::vector<value_t> bj = sparse::gen_rhs_for_solution(
            factor, sparse::gen_solution(n, m.seed + 10 + j));
        batch.insert(batch.end(), bj.begin(), bj.end());
      }
      // Value refresh under the same sparsity: scale off-diagonals so the
      // update actually changes every solve.
      sparse::CscMatrix scaled = factor;
      for (value_t& v : scaled.val) v *= 1.0 + 1.0 / 64.0;

      // Tolerance reference: serial. Bitwise reference: the narrowest
      // parallel configuration.
      Config serial_ref{"serial", 1};
      Config bits_ref{"cpu-levelset", 1};
      const Results ref =
          run_all_ops(factor, upper, options_of(serial_ref), b, batch, scaled);
      const Results gold =
          run_all_ops(factor, upper, options_of(bits_ref), b, batch, scaled);
      if (upper) {
        // Host upper plans solve in the caller's numbering; their bits
        // must be those of the analyzed reversed lower form solved in its
        // own numbering around a vector reversal.
        const auto mirror = core::SolverPlan::analyze(
            core::reverse_upper_to_lower(factor), options_of(bits_ref));
        ASSERT_TRUE(mirror.ok()) << mirror.message();
        expect_bits(core::reversed(mirror->solve(core::reversed(b)).value().x),
                    gold.solve, "solve (reversed lower form)",
                    bits_ref.label(), m, upper, factor);
      }

      for (const Config& c : sweep) {
        const std::string label = c.label();
        SCOPED_TRACE(label);
        const Results r =
            run_all_ops(factor, upper, options_of(c), b, batch, scaled);
        expect_close(r.solve, ref.solve, "solve", label, m, upper, factor);
        expect_close(r.updated, ref.updated, "update+solve", label, m, upper,
                     factor);
        expect_bits(r.solve, gold.solve, "solve", label, m, upper, factor);
        for (std::size_t w = 0; w < r.batches.size(); ++w) {
          const std::string op =
              "solve_batch/" + std::to_string(kBatchWidths[w]);
          expect_close(r.batches[w], ref.batches[w], op.c_str(), label, m,
                       upper, factor);
          expect_bits(r.batches[w], gold.batches[w], op.c_str(), label, m,
                      upper, factor);
        }
        // Fused equals looped: the widest batch, one column at a time.
        expect_bits(r.looped, gold.batches.back(), "looped solves", label, m,
                    upper, factor);
        // A restored plan rebuilds its row form in execution order and
        // must solve exactly like the plan it was saved from.
        expect_bits(r.loaded_solve, gold.solve, "load+solve", label, m,
                    upper, factor);
        expect_bits(r.loaded_batch, gold.batches.back(), "load+solve_batch",
                    label, m, upper, factor);
        EXPECT_TRUE(r.resaved_same_bytes) << label << " load+save";
        expect_bits(r.loaded_updated, gold.updated, "load+update+solve",
                    label, m, upper, factor);
        if (!upper) {
          expect_bits(r.borrowed_scaled, gold.updated,
                      "borrowed load of scaled values+solve", label, m, upper,
                      factor);
        }
        expect_bits(r.updated, gold.updated, "update+solve", label, m, upper,
                    factor);
      }
    }
  }
}

}  // namespace
}  // namespace msptrsv
