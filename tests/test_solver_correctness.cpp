// The central property suite: EVERY backend, on EVERY matrix family, for
// EVERY machine configuration, must reproduce the serial reference solution
// (the backends differ only in summation order, so agreement is tight).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

struct MatrixCase {
  std::string name;
  sparse::CscMatrix lower;
};

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  cases.push_back({"diagonal", sparse::gen_diagonal(257)});
  cases.push_back({"chain", sparse::gen_chain(400)});
  cases.push_back({"banded", sparse::gen_banded(600, 8, 0.5, 11)});
  cases.push_back({"random", sparse::gen_random_lower(800, 5.0, 13)});
  cases.push_back({"layered", sparse::gen_layered_dag(1000, 25, 6000, 0.5, 17)});
  cases.push_back({"grid2d", sparse::gen_grid2d_lower(24, 24)});
  cases.push_back({"grid3d", sparse::gen_grid3d_lower(8, 8, 8)});
  cases.push_back({"rmat", sparse::gen_rmat_lower(9, 2500, 19)});
  return cases;
}

struct BackendConfig {
  std::string label;
  core::SolveOptions options;
};

std::vector<BackendConfig> backend_configs() {
  using core::Backend;
  std::vector<BackendConfig> configs;

  auto add = [&](std::string label, Backend b, sim::Machine m,
                 int tasks_per_gpu = 8) {
    core::SolveOptions o;
    o.backend = b;
    o.machine = std::move(m);
    o.tasks_per_gpu = tasks_per_gpu;
    configs.push_back({std::move(label), std::move(o)});
  };

  add("serial", Backend::kSerial, sim::Machine::dgx1(1));
  add("cpu-levelset", Backend::kCpuLevelSet, sim::Machine::dgx1(1));
  add("gpu-levelset", Backend::kGpuLevelSet, sim::Machine::dgx1(1));
  add("unified-dgx1x2", Backend::kMgUnified, sim::Machine::dgx1(2));
  add("unified-dgx1x4", Backend::kMgUnified, sim::Machine::dgx1(4));
  add("unified-dgx1x8", Backend::kMgUnified, sim::Machine::dgx1(8));
  add("unified+task-dgx1x4", Backend::kMgUnifiedTask, sim::Machine::dgx1(4));
  add("shmem-dgx1x4", Backend::kMgShmem, sim::Machine::dgx1(4));
  add("zerocopy-dgx1x1", Backend::kMgZeroCopy, sim::Machine::dgx1(1));
  add("zerocopy-dgx1x3", Backend::kMgZeroCopy, sim::Machine::dgx1(3));
  add("zerocopy-dgx1x4", Backend::kMgZeroCopy, sim::Machine::dgx1(4));
  add("zerocopy-dgx2x8", Backend::kMgZeroCopy, sim::Machine::dgx2(8));
  add("zerocopy-dgx2x16", Backend::kMgZeroCopy, sim::Machine::dgx2(16));
  add("zerocopy-32task", Backend::kMgZeroCopy, sim::Machine::dgx1(4), 32);

  // Ablations must stay correct too.
  core::SolveOptions naive;
  naive.backend = Backend::kMgShmem;
  naive.machine = sim::Machine::dgx1(4);
  naive.nvshmem.naive_get_update_put = true;
  configs.push_back({"shmem-naive-ablation", naive});

  core::SolveOptions all_pes;
  all_pes.backend = Backend::kMgZeroCopy;
  all_pes.machine = sim::Machine::dgx1(4);
  all_pes.nvshmem.gather_from_all_pes = true;
  configs.push_back({"zerocopy-gather-all", all_pes});

  return configs;
}

class SolverCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SolverCorrectness, MatchesSerialReference) {
  static const std::vector<MatrixCase> matrices = matrix_cases();
  static const std::vector<BackendConfig> backends = backend_configs();
  const MatrixCase& m = matrices[std::get<0>(GetParam())];
  const BackendConfig& cfg = backends[std::get<1>(GetParam())];

  const std::vector<value_t> x_ref = sparse::gen_solution(m.lower.rows, 101);
  const std::vector<value_t> b = sparse::gen_rhs_for_solution(m.lower, x_ref);
  const std::vector<value_t> gold = core::solve_lower_serial(m.lower, b);

  const core::SolveResult r = core::solve(m.lower, b, cfg.options);
  ASSERT_EQ(r.x.size(), gold.size()) << cfg.label << " on " << m.name;
  EXPECT_LT(core::max_relative_difference(r.x, gold), 1e-10)
      << cfg.label << " on " << m.name;
  EXPECT_LT(core::relative_residual(m.lower, r.x, b), 1e-10)
      << cfg.label << " on " << m.name;

  if (core::is_simulated(cfg.options.backend)) {
    EXPECT_GT(r.report.solve_us, 0.0) << cfg.label << " on " << m.name;
    EXPECT_TRUE(std::isfinite(r.report.solve_us));
  }
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, std::size_t>>&
        info) {
  static const std::vector<MatrixCase> matrices = matrix_cases();
  static const std::vector<BackendConfig> backends = backend_configs();
  std::string name = matrices[std::get<0>(info.param)].name + "_" +
                     backends[std::get<1>(info.param)].label;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllMatrices, SolverCorrectness,
    ::testing::Combine(::testing::Range<std::size_t>(0, 8),
                       ::testing::Range<std::size_t>(0, 16)),
    case_name);

TEST(SolverDeterminism, SimulatedRunsAreBitIdentical) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(2000, 40, 12000, 0.4, 5);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 2));
  core::SolveOptions o;
  o.backend = core::Backend::kMgZeroCopy;
  o.machine = sim::Machine::dgx1(4);
  const core::SolveResult a = core::solve(l, b, o);
  const core::SolveResult c = core::solve(l, b, o);
  EXPECT_EQ(a.x, c.x);
  EXPECT_EQ(a.report.solve_us, c.report.solve_us);
  EXPECT_EQ(a.report.page_faults, c.report.page_faults);
  EXPECT_EQ(a.report.nvshmem_gets, c.report.nvshmem_gets);
}

TEST(SolverUpper, BackwardThroughMultiGpuBackend) {
  const sparse::CscMatrix lower = sparse::gen_layered_dag(900, 30, 5000, 0.5, 23);
  const sparse::CscMatrix upper = sparse::mirror_to_upper(lower);
  const std::vector<value_t> x_ref = sparse::gen_solution(upper.rows, 31);
  const std::vector<value_t> b = sparse::multiply(upper, x_ref);

  core::SolveOptions o;
  o.backend = core::Backend::kMgZeroCopy;
  o.machine = sim::Machine::dgx1(4);
  const core::SolveResult r = core::solve_upper(upper, b, o);
  EXPECT_LT(core::max_relative_difference(r.x, x_ref), 1e-9);
}

}  // namespace
}  // namespace msptrsv
