// Multi-threaded stress of the shared-plan contract: N caller threads
// hammering one SolverPlan's solve()/solve_batch() concurrently must be
// safe on every backend (concurrent host callers lease disjoint
// workspaces; a simulated plan simulates its one-rhs schedule and builds
// its replay form once, at its first solve, and every solve replays it)
// and, with the
// floating-point order pinned (cpu_threads = 1), must produce bit-for-bit
// the results the same plan computes single-threaded. Runs under the
// ASan/UBSan and ThreadSanitizer CI configurations.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

constexpr int kCallers = 6;
constexpr int kItersPerCaller = 4;
constexpr index_t kBatchRhs = 3;

sparse::CscMatrix stress_matrix() {
  return sparse::gen_layered_dag(600, 18, 3600, 0.5, 123);
}

struct Expectations {
  std::vector<std::vector<value_t>> singles;  // one x per rhs
  std::vector<value_t> batch_x;               // fused batch result
};

/// Drives one backend: computes the expected bits single-threaded, then
/// lets kCallers threads race mixed single/batch solves on the SAME plan.
void stress_backend(const core::SolveOptions& opt) {
  const sparse::CscMatrix l = stress_matrix();

  std::vector<std::vector<value_t>> rhs;
  std::vector<value_t> batch;
  for (index_t j = 0; j < kBatchRhs; ++j) {
    rhs.push_back(sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(l.rows, 10 + static_cast<std::uint64_t>(j))));
    batch.insert(batch.end(), rhs.back().begin(), rhs.back().end());
  }

  const auto plan = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(plan.ok()) << core::backend_name(opt.backend) << ": "
                         << plan.message();

  Expectations want;
  for (const std::vector<value_t>& b : rhs) {
    want.singles.push_back(plan->solve(b).value().x);
  }
  want.batch_x = plan->solve_batch(batch, kBatchRhs).value().x;

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int it = 0; it < kItersPerCaller; ++it) {
        // Interleave the shapes so batch and single solves overlap.
        if ((c + it) % 2 == 0) {
          const std::size_t j = static_cast<std::size_t>((c + it) % kBatchRhs);
          const auto r = plan->solve(rhs[j]);
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (r.value().x != want.singles[j]) {
            mismatches.fetch_add(1);
          }
        } else {
          const auto r = plan->solve_batch(batch, kBatchRhs);
          if (!r.ok()) {
            failures.fetch_add(1);
          } else if (r.value().x != want.batch_x) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0) << core::backend_name(opt.backend);
  EXPECT_EQ(mismatches.load(), 0)
      << core::backend_name(opt.backend)
      << ": concurrent solves diverged from the single-threaded bits";
  // Concurrency may have grown the host workspace pool, but never beyond
  // the caller count (+1 for the warm-up thread's workspace).
  EXPECT_LE(plan->workspace_count(), static_cast<std::size_t>(kCallers + 1))
      << core::backend_name(opt.backend);

  // The expected values stay reproducible after the storm.
  const std::span<const value_t> b0 = rhs[0];
  EXPECT_EQ(plan->solve(b0).value().x, want.singles[0])
      << core::backend_name(opt.backend);
}

TEST(ConcurrentPlan, SharedPlanIsSafeOnEveryBackend) {
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    core::SolveOptions opt = core::registry::default_options(e.backend);
    // Pin the kernel-internal thread count so every solve is bit-exact;
    // the concurrency under test is across CALLERS, not inside a kernel.
    opt.cpu_threads = 1;
    stress_backend(opt);
  }
}

/// Bit equality of x and of every numeric report field.
bool same_bits(const core::SolveResult& a, const core::SolveResult& b) {
  auto fields = [](const sim::RunReport& r) {
    return std::tie(r.num_rhs, r.solve_us, r.max_solve_us, r.busy_us_per_gpu,
                    r.local_updates, r.remote_updates, r.page_faults,
                    r.page_migrations, r.page_migrated_bytes,
                    r.page_faults_per_gpu, r.page_pins,
                    r.direct_remote_accesses, r.nvshmem_gets, r.nvshmem_puts,
                    r.nvshmem_fences, r.gather_reductions, r.nvshmem_bytes,
                    r.link_bytes, r.link_messages, r.kernel_launches);
  };
  return a.x == b.x && fields(a.report) == fields(b.report);
}

TEST(ConcurrentPlan, FirstSolvesOfAFreshSimulatedPlanRace) {
  // Callers released together into a simulated plan nobody has solved all
  // race for its first solve, the one that simulates the schedule and
  // builds the replay form; every one of them must get the bits of a
  // separately analyzed plan.
  const sparse::CscMatrix l = stress_matrix();
  const sparse::CscMatrix u = sparse::transpose(l);
  std::vector<std::vector<value_t>> rhs;
  std::vector<value_t> batch;
  for (index_t j = 0; j < kBatchRhs; ++j) {
    rhs.push_back(sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(l.rows, 20 + static_cast<std::uint64_t>(j))));
    batch.insert(batch.end(), rhs.back().begin(), rhs.back().end());
  }
  const struct {
    const char* key;
    bool upper;
  } cases[] = {{"mg-unified-task", false},
               {"mg-zerocopy", false},
               {"mg-zerocopy", true},
               {"gpu-levelset", false}};
  for (const auto& [key, upper] : cases) {
    const core::SolveOptions opt = core::registry::options_for(key).value();
    auto analyze = [&] {
      return upper ? core::SolverPlan::analyze_upper(u, opt)
                   : core::SolverPlan::analyze(l, opt);
    };
    const auto reference = analyze();
    ASSERT_TRUE(reference.ok()) << key << ": " << reference.message();
    std::vector<core::SolveResult> want_single;
    for (const std::vector<value_t>& b : rhs) {
      want_single.push_back(reference->solve(b).value());
    }
    const core::SolveResult want_batch =
        reference->solve_batch(batch, kBatchRhs).value();

    const auto plan = analyze();
    ASSERT_TRUE(plan.ok()) << key << ": " << plan.message();
    std::latch start(kCallers);
    std::atomic<int> bad{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        const std::size_t j = static_cast<std::size_t>(c / 2 % kBatchRhs);
        start.arrive_and_wait();
        const bool single = c % 2 == 0;
        const auto r = single ? plan->solve(rhs[j])
                              : plan->solve_batch(batch, kBatchRhs);
        if (!r.ok() ||
            !same_bits(r.value(), single ? want_single[j] : want_batch)) {
          bad.fetch_add(1);
        }
      });
    }
    for (std::thread& t : callers) t.join();
    EXPECT_EQ(bad.load(), 0)
        << key << (upper ? " upper" : "")
        << ": racing first solves diverged from a fresh plan's bits";
  }
}

TEST(ConcurrentPlan, MultiThreadedKernelsUnderConcurrentCallers) {
  // Host backends with real intra-solve parallelism on top of concurrent
  // callers. The pull-based gather makes the per-rhs summation order the
  // ascending-column row order regardless of thread count, so even these
  // racy-scheduled solves must reproduce the 1-thread bits exactly --
  // asserting that guards the determinism guarantee in cpu_parallel.hpp
  // while ASan/UBSan watch the races themselves.
  const sparse::CscMatrix l = stress_matrix();
  const std::vector<value_t> b = sparse::gen_rhs_for_solution(
      l, sparse::gen_solution(l.rows, 42));
  for (const char* key : {"cpu-levelset"}) {
    core::SolveOptions serial_opt = core::registry::options_for(key).value();
    serial_opt.cpu_threads = 1;
    const auto baseline = core::SolverPlan::analyze(l, serial_opt);
    ASSERT_TRUE(baseline.ok());
    const std::vector<value_t> want = baseline->solve(b).value().x;

    core::SolveOptions opt = core::registry::options_for(key).value();
    opt.cpu_threads = 2;
    const auto plan = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(plan.ok());
    std::atomic<int> bad{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
      callers.emplace_back([&] {
        for (int it = 0; it < 3; ++it) {
          const auto r = plan->solve(b);
          if (!r.ok() || r.value().x != want) bad.fetch_add(1);
        }
      });
    }
    for (std::thread& t : callers) t.join();
    EXPECT_EQ(bad.load(), 0)
        << key << ": multi-threaded solves diverged from the 1-thread bits";
  }
}

}  // namespace
}  // namespace msptrsv
