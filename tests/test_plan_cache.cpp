// The content-addressed PlanCache: hits share symbolic state, the key
// covers matrix content AND configuration, eviction is LRU and bounded,
// the disk directory serves cross-process warm starts, and the whole
// thing is safe under concurrent access.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "support/failpoint.hpp"

namespace msptrsv {
namespace {

sparse::CscMatrix matrix_seeded(std::uint64_t seed) {
  return sparse::gen_layered_dag(600, 15, 3600, 0.5, seed);
}

core::SolveOptions opts(const char* key) {
  core::SolveOptions o = core::registry::options_for(key).value();
  o.cpu_threads = 1;
  return o;
}

TEST(PlanCache, RepeatedAnalyzeIsAHit) {
  core::PlanCache cache(8);
  const sparse::CscMatrix l = matrix_seeded(1);
  const auto p1 = cache.get_or_analyze(l, opts("mg-zerocopy"));
  ASSERT_TRUE(p1.ok());
  const auto p2 = cache.get_or_analyze(l, opts("mg-zerocopy"));
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A hit is a shallow copy: same symbolic state, so identical reports.
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 2));
  EXPECT_EQ(p1->solve(b).value().x, p2->solve(b).value().x);
  EXPECT_EQ(p1->analysis_us(), p2->analysis_us());
}

TEST(PlanCache, KeyCoversContentAndConfiguration) {
  core::PlanCache cache(8);
  const sparse::CscMatrix a = matrix_seeded(1);
  ASSERT_TRUE(cache.get_or_analyze(a, opts("mg-zerocopy")).ok());

  // Different structure: miss.
  ASSERT_TRUE(cache.get_or_analyze(matrix_seeded(2), opts("mg-zerocopy")).ok());
  // Same structure, different values: miss (the values hash is in the key).
  sparse::CscMatrix scaled = a;
  for (value_t& v : scaled.val) v *= 2.0;
  ASSERT_TRUE(cache.get_or_analyze(scaled, opts("mg-zerocopy")).ok());
  // Same content, different backend: miss.
  ASSERT_TRUE(cache.get_or_analyze(a, opts("cpu-levelset")).ok());
  // Same content, different machine size: miss.
  core::SolveOptions two_gpus = opts("mg-zerocopy");
  two_gpus.machine = sim::Machine::dgx1(2);
  ASSERT_TRUE(cache.get_or_analyze(a, two_gpus).ok());
  // Same content, autotuned instead of an explicit cpu-levelset: miss
  // (the tuner may pick another backend).
  ASSERT_TRUE(cache.get_or_analyze(a, opts("auto")).ok());

  EXPECT_EQ(cache.stats().misses, 6u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 6u);
}

TEST(PlanCache, LruEvictionIsBoundedAndOrdered) {
  core::PlanCache cache(2);
  const sparse::CscMatrix a = matrix_seeded(1);
  const sparse::CscMatrix b = matrix_seeded(2);
  const sparse::CscMatrix c = matrix_seeded(3);
  const core::SolveOptions o = opts("serial");

  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());
  ASSERT_TRUE(cache.get_or_analyze(b, o).ok());
  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());  // refresh a's recency
  ASSERT_TRUE(cache.get_or_analyze(c, o).ok());  // evicts b (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());  // still resident
  EXPECT_EQ(cache.stats().hits, 2u);
  ASSERT_TRUE(cache.get_or_analyze(b, o).ok());  // was evicted: re-analyzed
  EXPECT_EQ(cache.stats().misses, 4u);

  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCache, ErrorsAreNotCached) {
  core::PlanCache cache(4);
  sparse::CscMatrix singular = matrix_seeded(1);
  singular.val[0] = 0.0;  // kill the first diagonal
  const auto r = cache.get_or_analyze(singular, opts("serial"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kSingularDiagonal);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, CachedPlanOutlivesCallerMatrix) {
  core::PlanCache cache(4);
  core::SolveOptions o = opts("cpu-levelset");
  std::vector<value_t> b;
  core::Expected<core::SolverPlan> plan(core::SolveStatus::kInternalError, "");
  {
    const sparse::CscMatrix l = matrix_seeded(7);
    b = sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 8));
    plan = cache.get_or_analyze(l, o);
  }  // caller's matrix is gone; the cached plan owns its copy
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->solve(b).ok());
}

TEST(PlanCache, DiskDirectoryServesCrossProcessWarmStart) {
  const std::string dir =
      ::testing::TempDir() + "plan_cache_disk_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  std::filesystem::create_directories(dir);

  const sparse::CscMatrix l = matrix_seeded(4);
  const core::SolveOptions o = opts("mg-zerocopy");
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 5));
  std::vector<value_t> x_first;
  {
    core::PlanCache first(4);
    first.set_disk_directory(dir);
    const auto p = first.get_or_analyze(l, o);
    ASSERT_TRUE(p.ok());
    x_first = p->solve(b).value().x;
    EXPECT_EQ(first.stats().disk_stores, 1u);
    // The blob landed under the content-addressed name.
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + core::PlanCache::key_of(l, o) + ".plan"));
  }
  {
    // A "new process": fresh cache, same directory -> disk hit, no
    // re-analysis, identical solve bits.
    core::PlanCache second(4);
    second.set_disk_directory(dir);
    const auto p = second.get_or_analyze(l, o);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(second.stats().disk_hits, 1u);
    EXPECT_EQ(p->analysis_us(), 0.0);
    EXPECT_GT(p->load_us(), 0.0);
    EXPECT_EQ(p->solve(b).value().x, x_first);
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanCache, AMisnamedDiskBlobIsAMissAndIsOverwritten) {
  // A blob is served only for the factor it recorded: A's blob filed
  // under B's key must not answer for B (same row count, so a solve
  // would run and silently give A's answers). The lookup is a miss, the
  // cache re-analyzes B and overwrites the file, fsck then calls it
  // valid, and it solves to a fresh analysis's bits.
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "plan_cache_misnamed_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  fs::create_directories(dir);
  const sparse::CscMatrix a = matrix_seeded(7);
  const sparse::CscMatrix b = matrix_seeded(8);
  ASSERT_EQ(a.rows, b.rows);
  const std::vector<value_t> rhs =
      sparse::gen_rhs_for_solution(b, sparse::gen_solution(b.rows, 4));
  for (const char* key : {"cpu-levelset", "serial", "mg-zerocopy"}) {
    SCOPED_TRACE(key);
    const core::SolveOptions o = opts(key);
    const std::string path =
        dir + "/" + core::PlanCache::key_of(b, o) + ".plan";
    ASSERT_TRUE(core::SolverPlan::analyze(a, o)->save(path).ok());

    core::PlanCache cache(4);
    cache.set_disk_directory(dir);
    EXPECT_EQ(cache.fsck(/*repair=*/false).mismatched, 1);
    const auto p = cache.get_or_analyze(b, o);
    ASSERT_TRUE(p.ok()) << p.message();
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    EXPECT_EQ(cache.stats().disk_stores, 1u);
    const core::SolverPlan fresh = core::SolverPlan::analyze(b, o).value();
    EXPECT_EQ(p->solve(rhs).value().x, fresh.solve(rhs).value().x);
    const core::PlanCache::FsckReport report = cache.fsck(/*repair=*/false);
    EXPECT_EQ(report.scanned, 1);
    EXPECT_EQ(report.valid, 1);

    core::PlanCache cold(4);
    cold.set_disk_directory(dir);
    const auto warm = cold.get_or_analyze(b, o);
    ASSERT_TRUE(warm.ok()) << warm.message();
    EXPECT_EQ(cold.stats().disk_hits, 1u);
    EXPECT_EQ(warm->solve(rhs).value().x, fresh.solve(rhs).value().x);
    fs::remove(path);
  }
  fs::remove_all(dir);
}

TEST(PlanCache, ConcurrentGetOrAnalyzeIsSafe) {
  core::PlanCache cache(8);
  const sparse::CscMatrix l = matrix_seeded(9);
  const core::SolveOptions o = opts("serial");
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 3));

  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const auto p = cache.get_or_analyze(l, o);
        if (!p.ok() || !p->solve(b).ok()) ++failures[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 100u);
}

TEST(PlanCache, ByteBudgetEvictsByResidentFootprint) {
  const sparse::CscMatrix a = matrix_seeded(1);
  const sparse::CscMatrix b = matrix_seeded(2);
  const core::SolveOptions o = opts("cpu-levelset");

  // Size the budget from a real plan: room for one resident plan of this
  // matrix family but not two.
  const auto probe = core::SolverPlan::analyze(sparse::CscMatrix(a), o);
  ASSERT_TRUE(probe.ok());
  const std::size_t one = probe->resident_bytes();
  EXPECT_GT(one, 0u);

  core::PlanCache cache(core::CacheOptions{/*capacity=*/8,
                                           /*max_bytes=*/one + one / 2});
  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());

  ASSERT_TRUE(cache.get_or_analyze(b, o).ok());  // busts the byte budget
  EXPECT_EQ(cache.size(), 1u) << "count capacity had room; bytes did not";
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().byte_evictions, 1u);

  // The survivor is the most recently used entry (b), so a is a miss.
  ASSERT_TRUE(cache.get_or_analyze(b, o).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());
  EXPECT_EQ(cache.stats().misses, 3u);

  // Shrinking the budget below one plan empties the cache: the budget is
  // honest -- oversized entries are served but never stay resident.
  cache.set_max_bytes(one / 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());
  EXPECT_EQ(cache.size(), 0u);

  // Lifting the bound (0) restores plain count-LRU behavior.
  cache.set_max_bytes(0);
  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, FsckValidatesAndPrunesTheBlobDirectory) {
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "plan_cache_fsck_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  fs::create_directories(dir);

  core::PlanCache cache(8);
  cache.set_disk_directory(dir);
  const core::SolveOptions o = opts("mg-zerocopy");
  const sparse::CscMatrix a = matrix_seeded(4);
  const sparse::CscMatrix b = matrix_seeded(5);
  ASSERT_TRUE(cache.get_or_analyze(a, o).ok());
  ASSERT_TRUE(cache.get_or_analyze(b, o).ok());
  ASSERT_EQ(cache.stats().disk_stores, 2u);

  // A clean directory fscks clean.
  core::PlanCache::FsckReport clean = cache.fsck(/*repair=*/false);
  EXPECT_EQ(clean.scanned, 2);
  EXPECT_EQ(clean.valid, 2);
  EXPECT_EQ(clean.corrupt, 0);
  EXPECT_EQ(clean.mismatched, 0);

  // Corrupt one blob (flip a payload byte: the CRC must catch it), plant
  // a stale blob under a wrong key (valid bits, wrong name), and drop a
  // truncated file and a non-blob bystander.
  const std::string key_a = core::PlanCache::key_of(a, o);
  {
    std::fstream f(dir + "/" + key_a + ".plan",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(64);
    const char flipped = static_cast<char>(f.get() ^ 0xFF);
    f.seekp(64);
    f.put(flipped);
  }
  const std::string key_b = core::PlanCache::key_of(b, o);
  fs::copy_file(dir + "/" + key_b + ".plan",
                dir + "/" + std::string(16, '0') + "-" +
                    std::string(16, '0') + "-stale.plan");
  { std::ofstream f(dir + "/truncated.plan"); f << "MS"; }
  { std::ofstream f(dir + "/README.txt"); f << "not a blob"; }

  core::PlanCache::FsckReport report = cache.fsck(/*repair=*/true);
  EXPECT_EQ(report.scanned, 4);  // README.txt ignored
  EXPECT_EQ(report.valid, 1);    // only b's genuine blob survives
  EXPECT_EQ(report.corrupt, 2);  // bit-flip + truncation
  EXPECT_EQ(report.mismatched, 1);
  EXPECT_EQ(report.pruned, 3);
  EXPECT_GT(report.bytes_freed, 0u);
  EXPECT_EQ(report.problems.size(), 3u);

  EXPECT_FALSE(fs::exists(dir + "/" + key_a + ".plan"));
  EXPECT_TRUE(fs::exists(dir + "/" + key_b + ".plan"));
  EXPECT_TRUE(fs::exists(dir + "/README.txt"));

  // After the sweep, a's lookup is a plain re-analysis (and re-store).
  core::PlanCache fresh(8);
  fresh.set_disk_directory(dir);
  ASSERT_TRUE(fresh.get_or_analyze(a, o).ok());
  EXPECT_EQ(fresh.stats().disk_hits, 0u);
  EXPECT_EQ(fresh.stats().disk_stores, 1u);

  // A cache without a directory reports all zeroes.
  core::PlanCache no_dir(2);
  EXPECT_EQ(no_dir.fsck().scanned, 0);

  fs::remove_all(dir);
}

TEST(PlanCache, FsckRacesAConcurrentWriterDeterministically) {
  // fsck's sweep must coexist with a LIVE writer: the torn blob a dying
  // writer left behind is prunable while a healthy writer of the same key
  // is frozen mid-store, and the healthy writer's atomic rename then
  // publishes a valid blob that the next sweep certifies. The writer is
  // frozen at the disk seam by a failpoint and PROVEN parked via its hit
  // counter -- no sleep anywhere decides the interleaving.
  if (!support::failpoints_compiled()) GTEST_SKIP();
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "plan_cache_fsck_race_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  fs::create_directories(dir);
  const core::SolveOptions o = opts("mg-zerocopy");
  const sparse::CscMatrix a = matrix_seeded(6);
  const std::string blob_path =
      dir + "/" + core::PlanCache::key_of(a, o) + ".plan";

  // Act 1 -- a dying writer: partial(64) publishes 64 truncated bytes at
  // the FINAL path (the pre-atomic-rename crash fsck exists for). Hit
  // counters are cumulative across clear_all, so the park proofs below
  // count from this baseline.
  const std::uint64_t base = support::failpoint_hits("cache.disk.write");
  core::PlanCache torn_cache(4);
  torn_cache.set_disk_directory(dir);
  ASSERT_TRUE(support::failpoint_set("cache.disk.write", "partial(64)*1"));
  ASSERT_TRUE(torn_cache.get_or_analyze(a, o).ok());  // analysis ok, store torn
  EXPECT_EQ(torn_cache.stats().disk_stores, 0u);
  ASSERT_TRUE(fs::exists(blob_path));

  // Act 2 -- a healthy writer of the SAME key, frozen at the disk seam.
  core::PlanCache writer_cache(4);
  writer_cache.set_disk_directory(dir);
  ASSERT_TRUE(support::failpoint_set("cache.disk.write", "pause"));
  std::thread writer(
      [&] { ASSERT_TRUE(writer_cache.get_or_analyze(a, o).ok()); });
  ASSERT_TRUE(support::failpoint_wait_hits("cache.disk.write", base + 2, 20000));

  // Act 3 -- fsck races the parked writer: the torn blob is pruned, and
  // the sweep completes without waiting on (or tripping over) the store
  // in flight.
  core::PlanCache::FsckReport mid = writer_cache.fsck(/*repair=*/true);
  EXPECT_EQ(mid.scanned, 1);
  EXPECT_EQ(mid.corrupt, 1);
  EXPECT_EQ(mid.pruned, 1);
  EXPECT_FALSE(fs::exists(blob_path));

  // Act 4 -- release the writer: its tmp+rename publishes a blob fsck
  // never saw half-written.
  support::failpoint_clear("cache.disk.write");
  writer.join();
  EXPECT_EQ(writer_cache.stats().disk_stores, 1u);
  core::PlanCache::FsckReport after = writer_cache.fsck(/*repair=*/false);
  EXPECT_EQ(after.scanned, 1);
  EXPECT_EQ(after.valid, 1);
  EXPECT_EQ(after.corrupt, 0);

  // The published blob is genuinely loadable: a cold cache disk-hits it.
  core::PlanCache fresh(4);
  fresh.set_disk_directory(dir);
  ASSERT_TRUE(fresh.get_or_analyze(a, o).ok());
  EXPECT_EQ(fresh.stats().disk_hits, 1u);

  support::failpoint_clear_all();
  fs::remove_all(dir);
}

TEST(PlanCacheRegistry, AnalyzeCachedUsesTheProcessWideInstance) {
  core::PlanCache::instance().clear();
  const sparse::CscMatrix l = matrix_seeded(11);
  const auto before = core::PlanCache::instance().stats();
  const auto p1 = core::registry::analyze_cached(l, "mg-zerocopy");
  const auto p2 = core::registry::analyze_cached(l, "mg-zerocopy");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(core::PlanCache::instance().stats().misses, before.misses + 1);
  EXPECT_EQ(core::PlanCache::instance().stats().hits, before.hits + 1);

  const auto bad = core::registry::analyze_cached(l, "no-such-backend");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), core::SolveStatus::kUnknownBackend);
  core::PlanCache::instance().clear();
}

}  // namespace
}  // namespace msptrsv
