// Plan persistence: save -> load must reproduce the freshly analyzed
// plan's solves BIT-FOR-BIT on every backend (lower and upper, single and
// fused-batch), report analysis_us == 0 with a real load_us, and every
// way a blob can be wrong -- truncated, corrupted, wrong version, wrong
// backend, wrong structural hash -- must come back as
// SolveStatus::kBadSnapshot, never a crash or a silent misload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

sparse::CscMatrix test_matrix() {
  return sparse::gen_layered_dag(900, 25, 5400, 0.4, 77);
}

sparse::CscMatrix test_upper() { return sparse::transpose(test_matrix()); }

std::vector<core::SolveOptions> all_backend_options() {
  std::vector<core::SolveOptions> out;
  for (const core::registry::BackendEntry& e : core::registry::backends()) {
    core::SolveOptions o = core::registry::default_options(e.backend);
    o.cpu_threads = 1;  // deterministic summation order for exact compares
    out.push_back(o);
  }
  return out;
}

std::string temp_plan_path(const std::string& tag) {
  return ::testing::TempDir() + "plan_io_" + tag + ".plan";
}

TEST(PlanIo, SaveLoadRoundTripsBitForBitOnEveryBackend) {
  const sparse::CscMatrix l = test_matrix();
  const index_t n = l.rows;
  std::vector<value_t> batch;
  for (index_t j = 0; j < 3; ++j) {
    const std::vector<value_t> bj = sparse::gen_rhs_for_solution(
        l, sparse::gen_solution(n, 30 + static_cast<std::uint64_t>(j)));
    batch.insert(batch.end(), bj.begin(), bj.end());
  }

  for (const core::SolveOptions& opt : all_backend_options()) {
    SCOPED_TRACE(core::backend_name(opt.backend));
    const auto fresh = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(fresh.ok()) << fresh.message();

    const std::string path =
        temp_plan_path(core::registry::entry_of(opt.backend).key);
    ASSERT_TRUE(fresh->save(path).ok());
    const auto loaded = core::SolverPlan::load(path, opt);
    ASSERT_TRUE(loaded.ok()) << loaded.message();

    // The loaded plan never paid analysis; the restore cost is separate.
    EXPECT_EQ(loaded->analysis_us(), 0.0);
    EXPECT_GT(loaded->load_us(), 0.0);
    EXPECT_EQ(fresh->load_us(), 0.0);
    EXPECT_EQ(loaded->rows(), n);
    EXPECT_FALSE(loaded->is_upper());

    // Single solve and fused batch: identical bits and identical simulated
    // timing (the schedule is a pure function of the restored state).
    const std::vector<value_t> b = batch;
    const auto rf = fresh->solve(std::span<const value_t>(b).first(n));
    const auto rl = loaded->solve(std::span<const value_t>(b).first(n));
    ASSERT_TRUE(rf.ok());
    ASSERT_TRUE(rl.ok());
    EXPECT_EQ(rf.value().x, rl.value().x);
    EXPECT_EQ(rf.value().report.solve_us, rl.value().report.solve_us);
    EXPECT_EQ(rl.value().report.analysis_us, 0.0);

    const auto bf = fresh->solve_batch(batch, 3);
    const auto bl = loaded->solve_batch(batch, 3);
    ASSERT_TRUE(bf.ok());
    ASSERT_TRUE(bl.ok());
    EXPECT_EQ(bf.value().x, bl.value().x);
    EXPECT_EQ(bf.value().report.solve_us, bl.value().report.solve_us);
    std::remove(path.c_str());
  }
}

TEST(PlanIo, UpperPlansRoundTripOnEveryBackend) {
  const sparse::CscMatrix u = test_upper();
  const index_t n = u.rows;
  std::vector<value_t> batch;
  for (index_t j = 0; j < 2; ++j) {
    const std::vector<value_t> bj = sparse::gen_rhs_for_solution(
        u, sparse::gen_solution(n, 60 + static_cast<std::uint64_t>(j)));
    batch.insert(batch.end(), bj.begin(), bj.end());
  }

  for (const core::SolveOptions& opt : all_backend_options()) {
    SCOPED_TRACE(core::backend_name(opt.backend));
    const auto fresh = core::SolverPlan::analyze_upper(u, opt);
    ASSERT_TRUE(fresh.ok()) << fresh.message();

    const std::string path = temp_plan_path(
        std::string("upper_") + core::registry::entry_of(opt.backend).key);
    ASSERT_TRUE(fresh->save(path).ok());
    const auto loaded = core::SolverPlan::load(path, opt);
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    EXPECT_TRUE(loaded->is_upper());
    EXPECT_EQ(loaded->analysis_us(), 0.0);

    const auto bf = fresh->solve_batch(batch, 2);
    const auto bl = loaded->solve_batch(batch, 2);
    ASSERT_TRUE(bf.ok());
    ASSERT_TRUE(bl.ok());
    EXPECT_EQ(bf.value().x, bl.value().x);
    std::remove(path.c_str());
  }
}

TEST(PlanIo, SerializeDeserializeRoundTripsInMemory) {
  const sparse::CscMatrix l = test_matrix();
  const core::SolveOptions opt =
      core::registry::options_for("mg-zerocopy").value();
  const auto fresh = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(fresh.ok());
  const auto blob = fresh->serialize();
  ASSERT_TRUE(blob.ok());
  const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 5));
  EXPECT_EQ(fresh->solve(b).value().x, loaded->solve(b).value().x);
  // The restored partition/footprint machinery works without re-analysis.
  EXPECT_EQ(loaded->partition().num_gpus(), fresh->partition().num_gpus());
  EXPECT_EQ(loaded->footprint().total_bytes, fresh->footprint().total_bytes);
}

TEST(PlanIo, AutotunedDecisionRoundTripsThroughTheBlob) {
  // The "auto" preset picks a backend at analyze time; the v3 blob must
  // carry that decision so a fresh process (here: deserialize into a new
  // plan, the same reader load() uses) reports the SAME backend /
  // schedule / gang choice instead of re-tuning, and the task graph
  // rebuilt from the pinned coarsening thresholds solves identically.
  // Injected cheap-sync host costs and a 4-thread budget make the
  // decision a parallel one, the same wherever this runs; the load below
  // happens under different (default, measured) costs, as a fresh
  // process would.
  const sparse::CscMatrix l = sparse::gen_chain_heavy(4, 120, 8192, 2, 11);
  core::SolveOptions opt = core::registry::options_for("auto").value();
  opt.cpu_threads = 4;
  sparse::HostCosts cheap_sync;
  cheap_sync.serial_ns_per_nnz = 1.0;
  cheap_sync.gather_ns_per_nnz = 1.0;
  cheap_sync.level_sync_ns = {0.0, 0.0, 100.0, 110.0, 120.0};
  std::optional<core::ScopedHostCosts> costs(std::in_place, cheap_sync);
  const auto fresh = core::SolverPlan::analyze(l, opt);
  costs.reset();
  ASSERT_TRUE(fresh.ok()) << fresh.message();

  const core::TunedDecision* td = fresh->tuned();
  ASSERT_NE(td, nullptr);
  EXPECT_TRUE(td->autotuned);
  // Chain-heavy structure: the tuner must land on the coarsened schedule.
  EXPECT_EQ(td->backend, core::Backend::kCpuTaskGraph);
  EXPECT_EQ(td->schedule, 1);
  EXPECT_GT(td->gang_width, 0);
  EXPECT_GT(td->coarsen.narrow_width, 0);
  EXPECT_GT(td->coarsen.block_rows, 0);
  ASSERT_NE(fresh->task_graph(), nullptr);

  const auto blob = fresh->serialize();
  ASSERT_TRUE(blob.ok());
  const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
  ASSERT_TRUE(loaded.ok()) << loaded.message();

  const core::TunedDecision* ld = loaded->tuned();
  ASSERT_NE(ld, nullptr);
  EXPECT_EQ(ld->autotuned, td->autotuned);
  EXPECT_EQ(ld->backend, td->backend);
  EXPECT_EQ(ld->schedule, td->schedule);
  EXPECT_EQ(ld->gang_width, td->gang_width);
  // The coarsening thresholds are PINNED in the blob (the sync-cost
  // measurement on the loading machine may differ); the rebuilt graph
  // must therefore coarsen identically.
  EXPECT_EQ(ld->coarsen.narrow_width, td->coarsen.narrow_width);
  EXPECT_EQ(ld->coarsen.block_rows, td->coarsen.block_rows);
  ASSERT_NE(loaded->task_graph(), nullptr);
  EXPECT_EQ(loaded->task_graph()->num_tasks, fresh->task_graph()->num_tasks);
  EXPECT_EQ(loaded->task_graph()->levels_fused,
            fresh->task_graph()->levels_fused);

  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 9));
  EXPECT_EQ(fresh->solve(b).value().x, loaded->solve(b).value().x);
}

TEST(PlanIo, AutotunedSerialPickRoundTrips) {
  // The other side of the decision space: a tiny factor must tune to
  // serial, and that choice must survive the blob too.
  const sparse::CscMatrix l = sparse::gen_chain(64);
  const core::SolveOptions opt = core::registry::options_for("auto").value();
  const auto fresh = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(fresh.ok()) << fresh.message();
  ASSERT_NE(fresh->tuned(), nullptr);
  EXPECT_EQ(fresh->tuned()->backend, core::Backend::kSerial);

  const auto blob = fresh->serialize();
  ASSERT_TRUE(blob.ok());
  const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  ASSERT_NE(loaded->tuned(), nullptr);
  EXPECT_EQ(loaded->tuned()->backend, core::Backend::kSerial);
  EXPECT_EQ(loaded->tuned()->gang_width, fresh->tuned()->gang_width);

  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 3));
  EXPECT_EQ(fresh->solve(b).value().x, loaded->solve(b).value().x);
}

TEST(PlanIo, EmptyPlanRoundTrips) {
  const sparse::CscMatrix empty;  // 0x0: vacuously solvable
  const core::SolveOptions opt = core::registry::options_for("serial").value();
  const auto fresh = core::SolverPlan::analyze(empty, opt);
  ASSERT_TRUE(fresh.ok());
  const auto blob = fresh->serialize();
  ASSERT_TRUE(blob.ok());
  const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(loaded->rows(), 0);
  EXPECT_TRUE(loaded->solve({}).ok());
}

// ---- v2 layout byte + lean/v1 format compatibility -------------------------

TEST(PlanIoLayout, BlobsCarryNoRowFormAndLoadBitForBit) {
  // No format version stores the row form any more (it duplicates every
  // factor value, and its execution order follows from the levels): every
  // version's image parses without one, and the load path rebuilds it in
  // execution order to solve exactly like the fresh plan, lower and upper.
  const sparse::CscMatrix l = test_matrix();
  for (const char* key :
       {"serial", "cpu-levelset", "cpu-syncfree", "cpu-taskgraph"}) {
    for (const bool upper : {false, true}) {
      SCOPED_TRACE(std::string(key) + (upper ? " upper" : " lower"));
      core::SolveOptions opt = core::registry::options_for(key).value();
      opt.cpu_threads = 1;
      const auto fresh =
          upper ? core::SolverPlan::analyze_upper(sparse::transpose(l), opt)
                : core::SolverPlan::analyze(l, opt);
      ASSERT_TRUE(fresh.ok()) << fresh.message();
      ASSERT_NE(fresh->row_form(), nullptr);
      const std::vector<value_t> b =
          sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 21));
      const std::vector<value_t> expect = fresh->solve(b).value().x;

      for (const std::uint16_t version : {1, 2, 3}) {
        SCOPED_TRACE(version);
        core::SnapshotWriteOptions w;
        w.format_version = version;
        const auto blob = fresh->serialize(w);
        ASSERT_TRUE(blob.ok());
        core::SnapshotBlob parsed;
        ASSERT_EQ(core::deserialize_snapshot(blob.value(), parsed), "");
        EXPECT_FALSE(parsed.snapshot.row_form.has_value());

        const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
        ASSERT_TRUE(loaded.ok()) << loaded.message();
        ASSERT_NE(loaded->row_form(), nullptr);
        EXPECT_EQ(loaded->row_form()->row_of, fresh->row_form()->row_of);
        EXPECT_EQ(loaded->solve(b).value().x, expect);
      }
    }
  }
}

TEST(PlanIoLayout, V1FormatBlobsStillLoad) {
  // A cache written by the previous binary must outlive the upgrade: the
  // v1 stream (no layout byte) loads and solves bit-for-bit.
  const sparse::CscMatrix l = test_matrix();
  for (const char* key : {"cpu-levelset", "cpu-syncfree", "serial"}) {
    SCOPED_TRACE(key);
    core::SolveOptions opt = core::registry::options_for(key).value();
    opt.cpu_threads = 1;
    const auto fresh = core::SolverPlan::analyze(l, opt);
    ASSERT_TRUE(fresh.ok());

    core::SnapshotWriteOptions v1;
    v1.format_version = 1;
    const auto blob = fresh->serialize(v1);
    ASSERT_TRUE(blob.ok());
    // Header bytes 4..5 carry the stored version, little-endian.
    ASSERT_EQ(blob.value()[4], 1);
    ASSERT_EQ(blob.value()[5], 0);

    const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    const std::vector<value_t> b =
        sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 22));
    EXPECT_EQ(loaded->solve(b).value().x, fresh->solve(b).value().x);
  }
}

TEST(PlanIoLayout, UnknownLayoutByteIsBadSnapshot) {
  // The layout byte sits right after the 8-byte blob header, the backend
  // key string (u64 length + bytes), tasks (i32), gpus (i32), and the
  // upper byte. Writers store 1 (column-major); readers accept 0..2 and
  // must refuse anything else as a corrupt blob, even under a valid CRC.
  const sparse::CscMatrix l = test_matrix();
  core::SolveOptions opt = core::registry::options_for("serial").value();
  const auto fresh = core::SolverPlan::analyze(l, opt);
  ASSERT_TRUE(fresh.ok());
  std::vector<std::uint8_t> blob = fresh->serialize().value();
  const std::size_t at = 8 + 8 + std::string("serial").size() + 4 + 4 + 1;
  ASSERT_EQ(blob[at], 1);
  blob[at] = 250;
  // Re-seal: the CRC-32C trailer covers the payload after the header and
  // is stored in host byte order, as the writer stores it.
  const std::uint32_t crc = support::crc32(
      std::span<const std::uint8_t>(blob).subspan(8, blob.size() - 12));
  std::memcpy(blob.data() + blob.size() - 4, &crc, sizeof(crc));
  const auto r = core::SolverPlan::deserialize(blob, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(r.message().find("layout"), std::string::npos) << r.message();
}

// ---- error paths -----------------------------------------------------------

TEST(PlanIo, MissingFileIsBadSnapshot) {
  const auto r = core::SolverPlan::load(
      temp_plan_path("definitely_missing"),
      core::registry::options_for("serial").value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
}

TEST(PlanIo, TruncatedBlobIsBadSnapshot) {
  const sparse::CscMatrix l = test_matrix();
  const core::SolveOptions opt = core::registry::options_for("serial").value();
  const auto blob = core::SolverPlan::analyze(l, opt)->serialize().value();
  // Every truncation point must be detected (CRC trailer or bounds check),
  // including mid-header.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{40}, blob.size() / 2,
        blob.size() - 1}) {
    const auto r = core::SolverPlan::deserialize(
        std::span<const std::uint8_t>(blob).first(keep), opt);
    ASSERT_FALSE(r.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  }
}

TEST(PlanIo, CorruptedByteIsBadSnapshot) {
  const sparse::CscMatrix l = test_matrix();
  const core::SolveOptions opt = core::registry::options_for("serial").value();
  auto blob = core::SolverPlan::analyze(l, opt)->serialize().value();
  // Flip one payload byte deep in the value array: only the CRC can see it.
  blob[blob.size() / 2] ^= 0x40;
  const auto r = core::SolverPlan::deserialize(blob, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(r.message().find("CRC"), std::string::npos) << r.message();
}

TEST(PlanIo, WrongVersionIsBadSnapshot) {
  const sparse::CscMatrix l = test_matrix();
  const core::SolveOptions opt = core::registry::options_for("serial").value();
  auto blob = core::SolverPlan::analyze(l, opt)->serialize().value();
  blob[4] = 0x7F;  // version field lives at header bytes 4..5
  const auto r = core::SolverPlan::deserialize(blob, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(r.message().find("version"), std::string::npos) << r.message();
}

TEST(PlanIo, BackendMismatchIsBadSnapshot) {
  const sparse::CscMatrix l = test_matrix();
  const auto blob =
      core::SolverPlan::analyze(
          l, core::registry::options_for("mg-zerocopy").value())
          ->serialize()
          .value();
  const auto r = core::SolverPlan::deserialize(
      blob, core::registry::options_for("cpu-levelset").value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
}

TEST(PlanIo, GpuCountMismatchIsBadSnapshot) {
  const sparse::CscMatrix l = test_matrix();
  core::SolveOptions opt = core::registry::options_for("mg-zerocopy").value();
  const auto blob = core::SolverPlan::analyze(l, opt)->serialize().value();
  opt.machine = sim::Machine::dgx1(2);
  const auto r = core::SolverPlan::deserialize(blob, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(r.message().find("GPU"), std::string::npos) << r.message();
}

TEST(PlanIo, BorrowedLoadChecksStructuralHash) {
  const sparse::CscMatrix l = test_matrix();
  const core::SolveOptions opt =
      core::registry::options_for("cpu-syncfree").value();
  const std::string path = temp_plan_path("borrowed");
  ASSERT_TRUE(core::SolverPlan::analyze(l, opt)->save(path).ok());

  // Same pattern, same values: borrows and solves identically.
  const auto ok_load = core::SolverPlan::load_borrowed(path, l, opt);
  ASSERT_TRUE(ok_load.ok()) << ok_load.message();
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 9));
  EXPECT_EQ(ok_load->solve(b).value().x,
            core::SolverPlan::analyze(l, opt)->solve(b).value().x);

  // Same pattern, refreshed values: accepted, and solves match a FRESH
  // analysis of the refreshed matrix (the cached row form re-syncs).
  sparse::CscMatrix scaled = l;
  for (value_t& v : scaled.val) v *= 1.5;
  const auto scaled_load = core::SolverPlan::load_borrowed(path, scaled, opt);
  ASSERT_TRUE(scaled_load.ok()) << scaled_load.message();
  const std::vector<value_t> b2 =
      sparse::gen_rhs_for_solution(scaled, sparse::gen_solution(l.rows, 10));
  EXPECT_EQ(scaled_load->solve(b2).value().x,
            core::SolverPlan::analyze(scaled, opt)->solve(b2).value().x);

  // Refreshed values with a zero diagonal: the saved plan's singularity
  // guarantee no longer covers them, so the load re-checks and rejects.
  sparse::CscMatrix singular = scaled;
  singular.val[static_cast<std::size_t>(singular.col_ptr[1])] = 0.0;
  EXPECT_EQ(core::SolverPlan::load_borrowed(path, singular, opt).status(),
            core::SolveStatus::kSingularDiagonal);

  // Different pattern: rejected by the hash check.
  const sparse::CscMatrix other = sparse::gen_layered_dag(900, 25, 5500, 0.4, 78);
  const auto bad = core::SolverPlan::load_borrowed(path, other, opt);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(bad.message().find("hash"), std::string::npos) << bad.message();
  std::remove(path.c_str());
}

TEST(PlanIo, InDegreeDriftIsRejectedNotHung) {
  // A CRC-valid blob whose in-degrees disagree with its factor would make
  // the sync-free kernel spin forever on its delivery counters; the load
  // must reject it, not hand the hang to the first solve.
  const sparse::CscMatrix l = test_matrix();
  core::SolveOptions opt = core::registry::options_for("cpu-syncfree").value();
  opt.cpu_threads = 1;

  core::PlanSnapshot snap;
  snap.backend = core::Backend::kCpuSyncFree;
  snap.tasks_per_gpu = opt.tasks_per_gpu;
  snap.num_gpus = opt.machine.num_gpus();
  snap.in_degrees = sparse::compute_in_degrees(l);
  snap.in_degrees[0] += 1;  // one undeliverable dependency
  const std::vector<std::uint8_t> blob = core::serialize_snapshot(snap, l);

  const auto r = core::SolverPlan::deserialize(blob, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(r.message().find("in-degree"), std::string::npos) << r.message();
}

TEST(PlanIo, NonTopologicalOrUnsolvableStateIsRejectedNotHung) {
  // Host plans execute the stored level order: the sync-free gang claims
  // its positions front to back, so a CRC-valid blob whose order puts a
  // row before one of its dependencies would spin forever. The load must
  // reject it -- and a level-less (older) blob whose factor is not a
  // solvable lower factor -- instead of handing either to a solve.
  const sparse::CscMatrix l = test_matrix();
  core::SolveOptions opt = core::registry::options_for("cpu-syncfree").value();
  opt.cpu_threads = 2;

  core::PlanSnapshot snap;
  snap.backend = core::Backend::kCpuSyncFree;
  snap.tasks_per_gpu = opt.tasks_per_gpu;
  snap.num_gpus = opt.machine.num_gpus();
  snap.in_degrees = sparse::compute_in_degrees(l);
  snap.levels = sparse::analyze_levels(l);
  std::reverse(snap.levels->order.begin(), snap.levels->order.end());
  const auto r =
      core::SolverPlan::deserialize(core::serialize_snapshot(snap, l), opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(r.message().find("topological"), std::string::npos)
      << r.message();

  // No levels, and column 1 lacks its diagonal.
  sparse::CscMatrix broken = l;
  broken.row_idx[static_cast<std::size_t>(broken.col_ptr[1])] = 0;
  core::PlanSnapshot serial;
  serial.backend = core::Backend::kSerial;
  serial.tasks_per_gpu = opt.tasks_per_gpu;
  serial.num_gpus = opt.machine.num_gpus();
  const auto s = core::SolverPlan::deserialize(
      core::serialize_snapshot(serial, broken),
      core::registry::options_for("serial").value());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(s.message().find("solvable"), std::string::npos) << s.message();
}

TEST(PlanIo, BorrowedLoadOfUpperPlanIsRejected) {
  const sparse::CscMatrix u = test_upper();
  const core::SolveOptions opt = core::registry::options_for("serial").value();
  const std::string path = temp_plan_path("borrowed_upper");
  ASSERT_TRUE(core::SolverPlan::analyze_upper(u, opt)->save(path).ok());
  const auto r = core::SolverPlan::load_borrowed(path, u, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  std::remove(path.c_str());
}

// ---- update_values(CscMatrix) sparsity-checked overload --------------------

TEST(PlanUpdateValuesMatrix, AcceptsSamePatternAndRefreshesSolves) {
  const sparse::CscMatrix l = test_matrix();
  core::SolveOptions opt = core::registry::options_for("cpu-levelset").value();
  opt.cpu_threads = 1;
  auto plan = core::SolverPlan::analyze(l, opt).value();

  sparse::CscMatrix scaled = l;
  for (value_t& v : scaled.val) v *= 2.0;
  ASSERT_TRUE(plan.update_values(scaled).ok());

  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(scaled, sparse::gen_solution(l.rows, 4));
  EXPECT_EQ(plan.solve(b).value().x,
            core::SolverPlan::analyze(scaled, opt)->solve(b).value().x);
}

TEST(PlanUpdateValuesMatrix, RejectsDifferentPattern) {
  const sparse::CscMatrix l = test_matrix();
  auto plan = core::SolverPlan::analyze(
                  l, core::registry::options_for("serial").value())
                  .value();
  const sparse::CscMatrix other =
      sparse::gen_layered_dag(900, 25, 5500, 0.4, 78);
  const auto r = plan.update_values(other);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kShapeMismatch);

  const sparse::CscMatrix smaller = sparse::gen_layered_dag(400, 10, 2000, 0.4, 1);
  EXPECT_EQ(plan.update_values(smaller).status(),
            core::SolveStatus::kShapeMismatch);
}

TEST(PlanUpdateValuesMatrix, UpperPlanChecksMirroredPattern) {
  const sparse::CscMatrix u = test_upper();
  const core::SolveOptions opt = core::registry::options_for("serial").value();
  auto plan = core::SolverPlan::analyze_upper(u, opt).value();

  sparse::CscMatrix scaled = u;
  for (value_t& v : scaled.val) v *= 3.0;
  ASSERT_TRUE(plan.update_values(scaled).ok());
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(scaled, sparse::gen_solution(u.rows, 6));
  EXPECT_EQ(plan.solve(b).value().x,
            core::SolverPlan::analyze_upper(scaled, opt)->solve(b).value().x);

  // A lower matrix has the wrong (mirrored) pattern for an upper plan.
  EXPECT_EQ(plan.update_values(test_matrix()).status(),
            core::SolveStatus::kShapeMismatch);
}

}  // namespace
}  // namespace msptrsv
