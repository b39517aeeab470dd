// Multi-GPU engine semantics: dispatch-order slot admission, kernel launch
// serialization, communication accounting, report invariants, the numeric
// replay of the engine's solve order through a row form, and golden bits
// for every simulated design.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "core/comm_nvshmem.hpp"
#include "core/comm_unified.hpp"
#include "core/cpu_parallel.hpp"
#include "core/mg_engine.hpp"
#include "core/plan.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "core/residual.hpp"
#include "core/row_form.hpp"
#include "golden_hash.hpp"
#include "sparse/csc.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"
#include "support/contracts.hpp"

namespace msptrsv::core {
namespace {

EngineResult run_nvshmem(const sparse::CscMatrix& l,
                         const sparse::Partition& p, const sim::Machine& m,
                         NvshmemCommOptions options = {}) {
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, p.num_gpus(), l.rows, options);
  return run_mg_engine(l, p, m, net, comm);
}

EngineResult run_unified(const sparse::CscMatrix& l,
                         const sparse::Partition& p, const sim::Machine& m) {
  sim::Interconnect net(m.topology, m.cost);
  UnifiedComm comm(net, m.cost, p.num_gpus(), l.rows);
  return run_mg_engine(l, p, m, net, comm);
}

/// The engine's schedule as a plan replays it: rows and entries in its
/// solve order.
RowForm replay_form(const sparse::CscMatrix& l, const EngineResult& r) {
  return build_row_form(l, r.order, /*mirrored=*/false,
                        EntryOrder::kSolveOrder);
}

/// The one-rhs solution of the engine's schedule, replayed.
std::vector<value_t> replay(const sparse::CscMatrix& l, const EngineResult& r,
                            const std::vector<value_t>& b) {
  std::vector<value_t> x(b.size());
  EXPECT_TRUE(solve_lower_serial_pull(replay_form(l, r), b, 1, x));
  return x;
}

TEST(MgEngine, ChainMakespanReflectsSequentialVisibility) {
  // A pure chain on one GPU: makespan >= n * (solve + local visibility).
  const index_t n = 2000;
  const sparse::CscMatrix l = sparse::gen_chain(n);
  const std::vector<value_t> b(static_cast<std::size_t>(n), 1.0);
  const sim::Machine m = sim::Machine::dgx1(1);
  const EngineResult r = run_nvshmem(l, sparse::Partition::block(n, 1), m);
  const double per_hop = m.cost.solve_base_us + m.cost.local_visibility_us;
  EXPECT_GE(r.report.solve_us, 0.9 * n * per_hop);
  EXPECT_LT(max_relative_difference(replay(l, r, b), solve_lower_serial(l, b)),
            1e-12);
}

TEST(MgEngine, DiagonalMatrixIsThroughputBound) {
  // No dependencies: time ~ n / (gpus * warp_slots) waves.
  const index_t n = 60000;
  const sparse::CscMatrix l = sparse::gen_diagonal(n);
  const sim::Machine m = sim::Machine::dgx1(4);
  const EngineResult r = run_nvshmem(l, sparse::Partition::block(n, 4), m);
  const double waves =
      static_cast<double>(n) / (4.0 * m.cost.warp_slots_per_gpu);
  EXPECT_GE(r.report.solve_us, waves * m.cost.solve_base_us);
  EXPECT_EQ(r.report.remote_updates, 0u);
}

TEST(MgEngine, KernelLaunchOverheadScalesWithTaskCount) {
  const index_t n = 4000;
  const sparse::CscMatrix l = sparse::gen_diagonal(n);
  const sim::Machine m = sim::Machine::dgx1(2);
  const EngineResult few =
      run_nvshmem(l, sparse::Partition::round_robin_tasks(n, 2, 2), m);
  const EngineResult many =
      run_nvshmem(l, sparse::Partition::round_robin_tasks(n, 2, 256), m);
  EXPECT_EQ(few.report.kernel_launches, 4u);
  EXPECT_EQ(many.report.kernel_launches, 512u);
  // 256 serialized launches delay the last task by ~256 * launch_us.
  EXPECT_GT(many.report.solve_us,
            few.report.solve_us + 200.0 * m.cost.kernel_launch_us);
}

TEST(MgEngine, BlockPartitionShowsUnidirectionalWaiting) {
  // With block distribution the last GPU's busy time starts late; the task
  // pool spreads early work to every GPU. Compare idle skew.
  const sparse::CscMatrix l = sparse::gen_layered_dag(24000, 60, 120000, 0.2, 9);
  const sim::Machine m = sim::Machine::dgx1(4);
  const EngineResult block =
      run_nvshmem(l, sparse::Partition::block(l.rows, 4), m);
  const EngineResult tasks =
      run_nvshmem(l, sparse::Partition::round_robin_tasks(l.rows, 4, 8), m);
  EXPECT_LT(tasks.report.solve_us, block.report.solve_us);
  EXPECT_LE(tasks.report.load_imbalance(), block.report.load_imbalance());
}

TEST(MgEngine, RemoteUpdateCountMatchesPartitionPrediction) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(6000, 30, 30000, 0.4, 5);
  const sparse::Partition p = sparse::Partition::block(l.rows, 4);
  const EngineResult r = run_nvshmem(l, p, sim::Machine::dgx1(4));
  EXPECT_EQ(r.report.remote_updates,
            static_cast<std::uint64_t>(p.count_remote_updates(l)));
  EXPECT_EQ(r.report.local_updates + r.report.remote_updates,
            static_cast<std::uint64_t>(l.nnz() - l.rows));
}

TEST(MgEngine, AnalysisPhaseChargedWhenRequested) {
  const sparse::CscMatrix l = sparse::gen_banded(3000, 6, 0.5, 3);
  const sparse::Partition p = sparse::Partition::block(l.rows, 2);
  const sim::Machine m = sim::Machine::dgx1(2);

  sim::Interconnect net1(m.topology, m.cost);
  NvshmemComm c1(net1, m.cost, 2, l.rows);
  EngineOptions with;
  const EngineResult a = run_mg_engine(l, p, m, net1, c1, with);

  sim::Interconnect net2(m.topology, m.cost);
  NvshmemComm c2(net2, m.cost, 2, l.rows);
  EngineOptions without;
  without.include_analysis = false;
  const EngineResult c = run_mg_engine(l, p, m, net2, c2, without);

  EXPECT_GT(a.report.analysis_us, 0.0);
  EXPECT_DOUBLE_EQ(c.report.analysis_us, 0.0);
  EXPECT_DOUBLE_EQ(a.report.solve_us, c.report.solve_us);
}

TEST(MgEngine, UnifiedCommBooksFaultsNvshmemBooksGets) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(8000, 40, 40000, 0.2, 7);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 4));
  const sparse::Partition p = sparse::Partition::block(l.rows, 4);
  const sim::Machine m = sim::Machine::dgx1(4);
  const EngineResult u = run_unified(l, p, m);
  const EngineResult s = run_nvshmem(l, p, m);
  EXPECT_GT(u.report.page_faults, 0u);
  EXPECT_EQ(u.report.nvshmem_gets, 0u);
  EXPECT_GT(s.report.nvshmem_gets, 0u);
  EXPECT_EQ(s.report.page_faults, 0u);
  // Both compute the right answer.
  const std::vector<value_t> gold = solve_lower_serial(l, b);
  EXPECT_LT(max_relative_difference(replay(l, u, b), gold), 1e-10);
  EXPECT_LT(max_relative_difference(replay(l, s, b), gold), 1e-10);
}

TEST(MgEngine, SolveOrderIsATopologicalOrderAndReplaysBatchesPerColumn) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(3000, 20, 15000, 0.3, 11);
  const sparse::Partition p = sparse::Partition::round_robin_tasks(l.rows, 4, 8);
  const EngineResult r = run_unified(l, p, sim::Machine::dgx1(4));
  // A topological order is the level schedule of one row per level.
  std::vector<offset_t> one_row_levels(r.order.size() + 1);
  std::iota(one_row_levels.begin(), one_row_levels.end(), offset_t{0});
  EXPECT_TRUE(is_level_schedule(l, r.order, one_row_levels));

  // A fused replay gives every column the bits of its own replay.
  const std::size_t n = static_cast<std::size_t>(l.rows);
  std::vector<value_t> batch;
  std::vector<value_t> looped;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<value_t> b =
        sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, seed));
    batch.insert(batch.end(), b.begin(), b.end());
    const std::vector<value_t> x = replay(l, r, b);
    looped.insert(looped.end(), x.begin(), x.end());
  }
  std::vector<value_t> fused(3 * n);
  ASSERT_TRUE(solve_lower_serial_pull(replay_form(l, r), batch, 3, fused));
  EXPECT_EQ(fused, looped);
}

TEST(MgEngine, SymmetricHeapSizeMatchesTwoArraysPerPe) {
  const index_t n = 5000;
  const sim::Machine m = sim::Machine::dgx1(4);
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, 4, n);
  EXPECT_DOUBLE_EQ(comm.symmetric_heap_bytes(),
                   n * (sizeof(value_t) + sizeof(index_t)));
}

TEST(MgEngine, RejectsMismatchedPartition) {
  const sparse::CscMatrix l = sparse::gen_chain(100);
  const sparse::Partition p = sparse::Partition::block(99, 2);
  const sim::Machine m = sim::Machine::dgx1(2);
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, 2, 100);
  EXPECT_THROW(run_mg_engine(l, p, m, net, comm),
               support::PreconditionError);
}

TEST(MgEngine, RejectsPartitionWiderThanMachine) {
  const sparse::CscMatrix l = sparse::gen_chain(100);
  const sparse::Partition p = sparse::Partition::block(100, 4);
  const sim::Machine m = sim::Machine::dgx1(2);
  sim::Interconnect net(m.topology, m.cost);
  NvshmemComm comm(net, m.cost, 4, 100);
  EXPECT_THROW(run_mg_engine(l, p, m, net, comm),
               support::PreconditionError);
}

TEST(MgEngine, ReplayRejectsAShortOrder) {
  const sparse::CscMatrix l = sparse::gen_chain(100);
  const std::vector<index_t> order(99, 0);
  EXPECT_THROW(build_row_form(l, order, false, EntryOrder::kSolveOrder),
               support::PreconditionError);
}

// ---- golden simulated numbers ----------------------------------------------
// Every bit of x and of the simulated report, for the four multi-GPU designs
// on two machines, both orientations, one solve and one fused batch. The
// constants were computed through public SolverPlan calls only, so they pin
// what a caller sees whatever the engine and the plan do inside; a change
// that moves one of them changes the simulator's answers.

using golden::hex;
using golden::solve_hash;

struct GoldenMachine {
  const char* name;
  sim::Machine machine;
  int tasks_per_gpu;
};

constexpr const char* kGoldenDesigns[] = {"mg-unified", "mg-unified-task",
                                          "mg-shmem", "mg-zerocopy"};
constexpr index_t kGoldenBatch = 3;

/// One hash per case, in loop order: Fig. 10 matrix (fig10_matrix_names,
/// 1000 rows) x orientation (lower, upper) x machine (DGX-1x4 at 8
/// tasks/GPU, DGX-2x8 at 4) x design (kGoldenDesigns) x call (solve,
/// solve_batch k = 3). The belgium_osm and delaunay_n20 analogs are
/// diagonal at 1000 rows, so their upper hashes repeat their lower ones.
constexpr std::uint64_t kGolden[] = {
    // belgium_osm
    0xc61058d987a25321ull, 0xab665469f514d168ull,
    0xdbbd7d831d5e1e64ull, 0x2d77684764d28b39ull,
    0xb62cdd55aa8c2f7dull, 0x98d342a3a929f860ull,
    0xb1da66319f74eb38ull, 0x5b68f4931b9244a1ull,
    0x7aea853c0d6c2c29ull, 0x188c14b454c8cd00ull,
    0x965c5ad6572f2f3aull, 0x61cc2aa4069bb2bfull,
    0x255b27b2522de44dull, 0xcb125de02eb31e30ull,
    0xa402049a24a6aa1dull, 0x3c86a33ab37b1580ull,
    0xc61058d987a25321ull, 0xab665469f514d168ull,
    0xdbbd7d831d5e1e64ull, 0x2d77684764d28b39ull,
    0xb62cdd55aa8c2f7dull, 0x98d342a3a929f860ull,
    0xb1da66319f74eb38ull, 0x5b68f4931b9244a1ull,
    0x7aea853c0d6c2c29ull, 0x188c14b454c8cd00ull,
    0x965c5ad6572f2f3aull, 0x61cc2aa4069bb2bfull,
    0x255b27b2522de44dull, 0xcb125de02eb31e30ull,
    0xa402049a24a6aa1dull, 0x3c86a33ab37b1580ull,
    // delaunay_n20
    0x91e6bbc5be403d12ull, 0xf914d45d59433787ull,
    0xd847ed27957ebb8bull, 0x2b747a6f428773a2ull,
    0x93c09a1dd82574eaull, 0x4c404cef89a11cb3ull,
    0x47ed1acc2da8719bull, 0x9c42996618099c66ull,
    0xac871c7fbbd5ce56ull, 0xcb381aad7909fbdbull,
    0x49a2c0bf514b6359ull, 0xe5b159f52549f018ull,
    0x6e8b0f06dbb47beaull, 0x4f7f1872771861bbull,
    0xb32dc2be8ec3db12ull, 0xebc4f5f4aaf636f3ull,
    0x91e6bbc5be403d12ull, 0xf914d45d59433787ull,
    0xd847ed27957ebb8bull, 0x2b747a6f428773a2ull,
    0x93c09a1dd82574eaull, 0x4c404cef89a11cb3ull,
    0x47ed1acc2da8719bull, 0x9c42996618099c66ull,
    0xac871c7fbbd5ce56ull, 0xcb381aad7909fbdbull,
    0x49a2c0bf514b6359ull, 0xe5b159f52549f018ull,
    0x6e8b0f06dbb47beaull, 0x4f7f1872771861bbull,
    0xb32dc2be8ec3db12ull, 0xebc4f5f4aaf636f3ull,
    // nlpkkt160
    0xddf338f6e1c15af5ull, 0xa07e5f05b00508f6ull,
    0xb767c672ca6b4fc4ull, 0xe1606218f339ed11ull,
    0x2f01bcc11afd0f32ull, 0xe9ab30a218b69478ull,
    0x3e6d261ecdc947fdull, 0xc6120d38a392e54cull,
    0x38dd830383f974b2ull, 0xda9fcd9902600473ull,
    0x1c53facfddd1579dull, 0x23c6dfa2379f0b18ull,
    0x61574378618de007ull, 0x27a686e33dc3f4a1ull,
    0xb64242aa9e00c64full, 0x7854b0ef8b4dbec3ull,
    0x9b29ce06b4655aefull, 0x60d98a1fbc057d0bull,
    0xc44f9503f5d2fe50ull, 0xf6c7c93d7acd9b9aull,
    0x9f0b264d458fd69aull, 0xc866454a2fb268b6ull,
    0x4e886fb811e1ab15ull, 0x1d153ab6c9549204ull,
    0x05db547838669846ull, 0x34f2dab6984d29f9ull,
    0x16fe7d08604170aaull, 0x488557e85f56cfc7ull,
    0x1cde99922762b49aull, 0x079116bb4e8539f0ull,
    0x394ef1df29df9144ull, 0x09f6d6defc47968cull,
    // powersim
    0x80f98ff291ec9e9cull, 0xf2e6c6e2bf0c3b51ull,
    0x92a74da2059e7b66ull, 0x0ad61d1b694a8535ull,
    0x7337ef100fd36985ull, 0x322c0b10d61bd42dull,
    0x95126996eead9657ull, 0xbbe4f59e4fd58cd1ull,
    0xde67071cf98d5134ull, 0x1a069d8b51b899eeull,
    0x9573fdcd0305319dull, 0xa6f3d3d205bd6b2cull,
    0x7ef5d228c742f9cfull, 0x2cfa0a2063ab4a15ull,
    0xe6d0b82c78914791ull, 0x7db9a6124ad35bb9ull,
    0x524b170df2b3b23aull, 0x14ffe3404b84911dull,
    0x3eebbd21b91f233eull, 0x97340779a598ade9ull,
    0x4f693b7b36f54db6ull, 0x6c30c0153652b0eeull,
    0xc30a2e884791cd3eull, 0xafa957c6770e4b14ull,
    0x02e3c09e88060c5bull, 0xb6d5b77896a6c7a6ull,
    0x990157504c720fceull, 0x0fbd5e22f6ea83bcull,
    0x68748cb8775e0310ull, 0x82727a81c9562af8ull,
    0xb41e527c9bbf3b9bull, 0x29d14cd52645d095ull,
    // Wordnet3
    0x23c56911cf443cdfull, 0x386b5866512a0bccull,
    0xd5be8d587ad937d9ull, 0x1dc4eaf4638dc7d9ull,
    0xb67b40ef4190a1fbull, 0x11bc523f4f496310ull,
    0xa35eca145d78746cull, 0x80fbb5b5e081a280ull,
    0x41a02028bc142d9aull, 0x3d8787e3d3946ce6ull,
    0x2ab0aa430b8c75f7ull, 0x0b022bf7926a25a5ull,
    0x3301c5a3e778beb7ull, 0x4a6405291d3ebe75ull,
    0xf89e52b7078390dcull, 0x46908890c0e0aad9ull,
    0x807d55323b1f3af9ull, 0xaade91974b427c2bull,
    0x37bed592060ef1a7ull, 0x790a8fe435348b9dull,
    0x455ce6f6842ff9b9ull, 0xf67428bcb20f109full,
    0x6030fb1b4b165690ull, 0xe7c7ee785c14c83dull,
    0x13b49ffea6b5c998ull, 0x9a01fe445aa4cac4ull,
    0xd18a24a542d0294dull, 0xe861622f74da2914ull,
    0x5ea34118e803fa1full, 0xb433eec3298b2de8ull,
    0xd68e42bf1eddaf38ull, 0x125434e962f77b4dull,
};

TEST(MgEngineGolden, SimulatedSolvesKeepEveryBit) {
  const std::vector<sparse::SuiteMatrix> suite =
      sparse::generate_suite(1000, sparse::fig10_matrix_names());
  const GoldenMachine machines[] = {{"dgx1x4", sim::Machine::dgx1(4), 8},
                                    {"dgx2x8", sim::Machine::dgx2(8), 4}};
  std::size_t c = 0;
  for (const sparse::SuiteMatrix& m : suite) {
    const index_t n = m.lower.rows;
    const std::vector<value_t> b0 = sparse::gen_solution(n, 1);
    const std::vector<value_t> b1 = sparse::gen_solution(n, 2);
    const std::vector<value_t> batch = golden::golden_batch(n, kGoldenBatch);
    for (const bool upper : {false, true}) {
      const sparse::CscMatrix factor =
          upper ? sparse::transpose(m.lower) : m.lower;
      sparse::CscMatrix revalued = factor;
      for (value_t& v : revalued.val) v *= 1.5;
      for (const GoldenMachine& gm : machines) {
        for (const char* design : kGoldenDesigns) {
          SolveOptions opt = registry::options_for(design).value();
          opt.machine = gm.machine;
          opt.tasks_per_gpu = gm.tasks_per_gpu;
          const std::string label = m.entry.name + (upper ? "/upper/" : "/lower/") +
                                    gm.name + "/" + design;
          auto analyze = [&](const sparse::CscMatrix& f) {
            Expected<SolverPlan> p = upper ? SolverPlan::analyze_upper(f, opt)
                                           : SolverPlan::analyze(f, opt);
            EXPECT_TRUE(p.ok()) << label << ": " << p.message();
            return std::move(p).value();
          };
          SolverPlan plan = analyze(factor);
          const std::uint64_t one = solve_hash(plan.solve(b0).value());
          const std::uint64_t fused =
              solve_hash(plan.solve_batch(batch, kGoldenBatch).value());
          ASSERT_LT(c + 1, std::size(kGolden)) << label;
          EXPECT_EQ(one, kGolden[c]) << label << "/solve: " << hex(one);
          EXPECT_EQ(fused, kGolden[c + 1])
              << label << "/solve_batch: " << hex(fused);
          c += 2;

          // Same plan, later solves: a new b, then new values, give every
          // bit a freshly analyzed plan gives on its first solve.
          EXPECT_EQ(solve_hash(plan.solve(b1).value()),
                    solve_hash(analyze(factor).solve(b1).value()))
              << label << ": second solve";
          ASSERT_TRUE(plan.update_values(revalued.val).ok()) << label;
          const SolverPlan fresh = analyze(revalued);
          EXPECT_EQ(solve_hash(plan.solve(b0).value()),
                    solve_hash(fresh.solve(b0).value()))
              << label << ": solve after update_values";
          EXPECT_EQ(solve_hash(plan.solve_batch(batch, kGoldenBatch).value()),
                    solve_hash(fresh.solve_batch(batch, kGoldenBatch).value()))
              << label << ": batch after update_values";
        }
      }
    }
  }
  EXPECT_EQ(c, std::size(kGolden));
}

}  // namespace
}  // namespace msptrsv::core
