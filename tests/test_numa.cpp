// The NUMA placement knobs are PURE performance features: placement
// (worker pinning, row-form page interleaving) moves bytes between nodes,
// never operations, so any NumaPolicy must reproduce kNone's bits
// exactly, and every primitive degrades to a harmless no-op where the
// machine or the container refuses it.
#include <gtest/gtest.h>

#include <vector>

#include "core/msptrsv.hpp"
#include "support/numa.hpp"

namespace msptrsv {
namespace {

sparse::CscMatrix layered() {
  return sparse::gen_layered_dag(1200, 30, 8400, 0.4, 91);
}

std::vector<value_t> batch_for(const sparse::CscMatrix& l, index_t k,
                               std::uint64_t seed) {
  std::vector<value_t> out;
  for (index_t j = 0; j < k; ++j) {
    const std::vector<value_t> b = sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(l.rows, seed + static_cast<std::uint64_t>(j)));
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

TEST(Numa, TopologyAlwaysHasAtLeastOneNodeWithCpus) {
  const support::NumaTopology& topo = support::numa_topology();
  ASSERT_GE(topo.num_nodes(), 1);
  for (const auto& cpus : topo.node_cpus) EXPECT_FALSE(cpus.empty());
}

TEST(Numa, WorkerPlacementPolicies) {
  using support::NumaPolicy;
  // kNone never pins.
  EXPECT_EQ(support::numa_cpu_for_worker(NumaPolicy::kNone, 0), -1);
  EXPECT_EQ(support::numa_cpu_for_worker(NumaPolicy::kNone, 7), -1);
  // Real policies return a CPU from the topology for in-range workers and
  // -1 (stay schedulable everywhere) once the pool oversubscribes.
  const support::NumaTopology& topo = support::numa_topology();
  int total_cpus = 0;
  for (const auto& cpus : topo.node_cpus) {
    total_cpus += static_cast<int>(cpus.size());
  }
  for (const NumaPolicy policy : {NumaPolicy::kCompact, NumaPolicy::kSpread}) {
    for (int w = 0; w < total_cpus; ++w) {
      const int cpu = support::numa_cpu_for_worker(policy, w);
      bool found = false;
      for (const auto& cpus : topo.node_cpus) {
        for (const int c : cpus) found |= (c == cpu);
      }
      EXPECT_TRUE(found) << "worker " << w;
    }
    EXPECT_EQ(support::numa_cpu_for_worker(policy, total_cpus), -1);
  }
}

TEST(Numa, PinRefusalIsAHintNotAnError) {
  EXPECT_FALSE(support::pin_current_thread(-1));
  EXPECT_FALSE(support::pin_current_thread(1 << 20));  // no such CPU
}

TEST(Numa, InterleaveHintNeverBreaksTheBuffer) {
  std::vector<double> buf(16384, 1.5);
  // Single-node machines and refused mbinds return false; either way the
  // bytes are untouched.
  (void)support::interleave_pages(buf.data(), buf.size() * sizeof(double));
  for (const double v : buf) ASSERT_EQ(v, 1.5);
}

TEST(Numa, PlacementPoliciesReproduceTheBitsExactly) {
  const sparse::CscMatrix l = layered();
  const index_t k = 8;
  const std::vector<value_t> batch = batch_for(l, k, 1500);
  for (const char* key : {"cpu-levelset", "cpu-syncfree"}) {
    SCOPED_TRACE(key);
    core::SolveOptions none = core::registry::options_for(key).value();
    none.cpu_threads = 2;
    const std::vector<value_t> expect =
        core::SolverPlan::analyze(l, none)->solve_batch(batch, k).value().x;
    for (const support::NumaPolicy policy :
         {support::NumaPolicy::kCompact, support::NumaPolicy::kSpread}) {
      core::SolveOptions o = none;
      o.numa_policy = policy;
      const auto plan = core::SolverPlan::analyze(l, o);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(plan->solve_batch(batch, k).value().x, expect);
      // Placement survives value refreshes (the row form is re-hinted).
      EXPECT_TRUE(plan->solve(std::span<const value_t>(batch).first(
                                  static_cast<std::size_t>(l.rows)))
                      .ok());
    }
  }
}

}  // namespace
}  // namespace msptrsv
