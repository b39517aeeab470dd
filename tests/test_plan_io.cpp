// Plan persistence: save -> load must reproduce the freshly analyzed
// plan's solves BIT-FOR-BIT on every backend (lower and upper, single and
// fused-batch), report analysis_us == 0 with a real load_us, and every
// way a blob can be wrong -- truncated, corrupted, wrong version, wrong
// backend, wrong structural hash, a stored row form no analysis could
// have built -- must come back as SolveStatus::kBadSnapshot, never a
// crash or a silent misload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
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
  // plan, the same reader load() uses) reports the SAME backend and gang
  // width instead of re-tuning, and solves identically. Injected
  // cheap-sync host costs and a 4-thread budget make the decision a
  // parallel one, the same wherever this runs; the load below happens
  // under different (default, measured) costs, as a fresh process would.
  const sparse::CscMatrix l =
      sparse::gen_layered_dag(40000, 40, 200000, 0.5, 5);
  core::SolveOptions opt = core::registry::options_for("auto").value();
  opt.cpu_threads = 4;
  core::HostCosts cheap_sync;
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
  // Wide levels under cheap sync: the tuner must land on the gang.
  EXPECT_EQ(td->backend, core::Backend::kCpuLevelSet);
  EXPECT_GE(td->gang_width, 2);

  const auto blob = fresh->serialize();
  ASSERT_TRUE(blob.ok());
  const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
  ASSERT_TRUE(loaded.ok()) << loaded.message();

  const core::TunedDecision* ld = loaded->tuned();
  ASSERT_NE(ld, nullptr);
  EXPECT_EQ(ld->autotuned, td->autotuned);
  EXPECT_EQ(ld->backend, td->backend);
  EXPECT_EQ(ld->gang_width, td->gang_width);
  EXPECT_EQ(loaded->options().backend, td->backend);
  EXPECT_EQ(loaded->options().cpu_threads, td->gang_width);

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

// ---- the v4 host blob: the row form itself ----------------------------------

TEST(PlanIoLayout, HostBlobsCarryTheRowFormAndLoadBitForBit) {
  // A host plan's row form is its only copy of the factor: the blob
  // stores it, in execution order, with cpu-levelset's level boundaries,
  // and the load path proves it instead of rebuilding it. The loaded plan
  // holds the very same form and solves exactly like the fresh plan,
  // lower and upper.
  const sparse::CscMatrix l = test_matrix();
  for (const char* key : {"serial", "cpu-levelset"}) {
    for (const bool upper : {false, true}) {
      SCOPED_TRACE(std::string(key) + (upper ? " upper" : " lower"));
      core::SolveOptions opt = core::registry::options_for(key).value();
      opt.cpu_threads = 1;
      const auto fresh =
          upper ? core::SolverPlan::analyze_upper(sparse::transpose(l), opt)
                : core::SolverPlan::analyze(l, opt);
      ASSERT_TRUE(fresh.ok()) << fresh.message();
      ASSERT_NE(fresh->row_form(), nullptr);
      const core::RowForm& want = *fresh->row_form();
      const std::vector<value_t> b =
          sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 21));

      const auto blob = fresh->serialize();
      ASSERT_TRUE(blob.ok());
      EXPECT_EQ(blob.value()[4], core::kPlanBlobVersion);
      core::SnapshotBlob parsed;
      ASSERT_EQ(core::deserialize_snapshot(blob.value(), parsed), "");
      ASSERT_TRUE(parsed.snapshot.row_form.has_value());
      EXPECT_EQ(parsed.snapshot.row_form->row_ptr, want.row_ptr);
      EXPECT_EQ(parsed.snapshot.row_form->col_idx, want.col_idx);
      EXPECT_EQ(parsed.snapshot.row_form->val, want.val);
      EXPECT_EQ(parsed.snapshot.row_form->row_of, want.row_of);
      EXPECT_EQ(parsed.snapshot.level_ptr.empty(),
                opt.backend == core::Backend::kSerial);
      EXPECT_FALSE(parsed.snapshot.levels.has_value());
      EXPECT_EQ(parsed.factor_hash, sparse::hash_csc(fresh->factor()));

      const auto loaded = core::SolverPlan::deserialize(blob.value(), opt);
      ASSERT_TRUE(loaded.ok()) << loaded.message();
      ASSERT_NE(loaded->row_form(), nullptr);
      EXPECT_EQ(loaded->row_form()->row_of, want.row_of);
      EXPECT_EQ(loaded->solve(b).value().x, fresh->solve(b).value().x);
      // factor() is the analyzed lower form, rebuilt from the row form.
      EXPECT_TRUE(sparse::identical(loaded->factor(), fresh->factor()));
      EXPECT_TRUE(sparse::identical(
          fresh->factor(),
          upper ? core::reverse_upper_to_lower(sparse::transpose(l)) : l));
    }
  }
}

TEST(PlanIoLayout, OlderFormatVersionsAreRefusedNamingTheVersion) {
  // v1-v3 blobs stored the factor's CSC and levels; the reader accepts
  // v4 only and names the version it refuses (the CRC trailer does not
  // cover the header, so only the version differs).
  const sparse::CscMatrix l = test_matrix();
  for (const char* key : {"serial", "mg-zerocopy"}) {
    SCOPED_TRACE(key);
    const core::SolveOptions opt = core::registry::options_for(key).value();
    std::vector<std::uint8_t> blob =
        core::SolverPlan::analyze(l, opt)->serialize().value();
    for (const std::uint8_t version : {1, 2, 3}) {
      blob[4] = version;
      blob[5] = 0;
      const auto r = core::SolverPlan::deserialize(blob, opt);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
      EXPECT_NE(r.message().find("version " + std::to_string(version)),
                std::string::npos)
          << r.message();
    }
  }
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
      core::registry::options_for("cpu-levelset").value();
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
  // The multi-GPU engine counts each component's in-degree down to zero:
  // a CRC-valid blob whose in-degrees disagree with its factor would
  // leave components unsolved and deadlock the engine at the first
  // solve. The load must reject it instead.
  const sparse::CscMatrix l = test_matrix();
  const core::SolveOptions opt =
      core::registry::options_for("mg-zerocopy").value();

  core::PlanSnapshot snap;
  snap.backend = core::Backend::kMgZeroCopy;
  snap.tasks_per_gpu = opt.tasks_per_gpu;
  snap.num_gpus = opt.machine.num_gpus();
  snap.in_degrees = sparse::compute_in_degrees(l);
  const sparse::StructuralHash hash = sparse::hash_csc(l);
  ASSERT_TRUE(core::SolverPlan::deserialize(
                  core::serialize_snapshot(snap, hash, l), opt)
                  .ok());
  for (index_t& d : snap.in_degrees) d += 1;  // undeliverable dependencies
  const auto r = core::SolverPlan::deserialize(
      core::serialize_snapshot(snap, hash, l), opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
  EXPECT_NE(r.message().find("in-degree"), std::string::npos) << r.message();
}

TEST(PlanIo, NonTopologicalLevelsAreRejectedNotHung) {
  // A gpu-levelset plan's stored levels drive its level-cost loop, which
  // assumes the rows of a level are independent. A CRC-valid blob whose
  // levels put a row beside or before one of its dependencies must be
  // rejected instead of handed to a solve. (Host blobs store no levels:
  // PlanIoHostile covers their row forms.)
  const sparse::CscMatrix l = test_matrix();
  const index_t n = l.rows;
  const sparse::StructuralHash hash = sparse::hash_csc(l);
  const core::SolveOptions opt =
      core::registry::options_for("gpu-levelset").value();
  const auto rejected = [&](auto mangle) {
    core::PlanSnapshot snap;
    snap.backend = opt.backend;
    snap.tasks_per_gpu = opt.tasks_per_gpu;
    snap.num_gpus = opt.machine.num_gpus();
    snap.levels = sparse::analyze_levels(l);
    ASSERT_TRUE(core::SolverPlan::deserialize(
                    core::serialize_snapshot(snap, hash, l), opt)
                    .ok());
    mangle(*snap.levels);
    const auto r = core::SolverPlan::deserialize(
        core::serialize_snapshot(snap, hash, l), opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot);
    EXPECT_NE(r.message().find("level schedule"), std::string::npos)
        << r.message();
  };
  rejected([](sparse::LevelAnalysis& a) {
    std::reverse(a.order.begin(), a.order.end());
  });
  // One level: the order is still topological, but every row would be
  // costed as independent.
  rejected([n](sparse::LevelAnalysis& a) {
    a.num_levels = 1;
    a.level_ptr = {0, n};
  });
  // Every position names the same row: the level count and boundaries
  // stay in bounds, so only the schedule check can refuse it.
  rejected([n](sparse::LevelAnalysis& a) {
    std::fill(a.order.begin(), a.order.end(), n - 1);
  });
}

TEST(PlanIo, HostPlansChargeNoCscAndReadTheSameAfterALoad) {
  // A host plan holds its factor once, as its row form (plus the gang's
  // level boundaries): resident_bytes charges no CSC copy and no level
  // analysis, and a loaded plan holds exactly what the analyzed one did.
  const sparse::CscMatrix l = test_matrix();
  for (const char* key : {"serial", "cpu-levelset"}) {
    for (const bool upper : {false, true}) {
      SCOPED_TRACE(std::string(key) + (upper ? " upper" : " lower"));
      const core::SolveOptions opt = core::registry::options_for(key).value();
      const auto fresh =
          upper ? core::SolverPlan::analyze_upper(sparse::transpose(l), opt)
                : core::SolverPlan::analyze(l, opt);
      ASSERT_TRUE(fresh.ok()) << fresh.message();
      const core::RowForm& rf = *fresh->row_form();
      const std::size_t form_bytes =
          rf.row_ptr.size() * sizeof(offset_t) +
          rf.col_idx.size() * sizeof(index_t) +
          rf.val.size() * sizeof(value_t) + rf.row_of.size() * sizeof(index_t);
      // The form, a few hundred bytes of level boundaries and the plan's
      // fixed state; a CSC copy alone would add 12 B per nonzero.
      EXPECT_GE(fresh->resident_bytes(), form_bytes);
      EXPECT_LT(fresh->resident_bytes(), form_bytes + 4096);
      const auto loaded =
          core::SolverPlan::deserialize(fresh->serialize().value(), opt);
      ASSERT_TRUE(loaded.ok()) << loaded.message();
      EXPECT_EQ(loaded->resident_bytes(), fresh->resident_bytes());
    }
  }
}

// ---- hostile v4 host blobs -------------------------------------------------

/// `rf` with its rows moved: position p of the result holds position
/// from[p] of `rf`.
core::RowForm permuted(const core::RowForm& rf,
                       const std::vector<std::size_t>& from) {
  core::RowForm out;
  out.row_ptr.push_back(0);
  for (const std::size_t q : from) {
    out.row_of.push_back(rf.row_of[q]);
    for (offset_t e = rf.row_ptr[q]; e < rf.row_ptr[q + 1]; ++e) {
      out.col_idx.push_back(rf.col_idx[static_cast<std::size_t>(e)]);
      out.val.push_back(rf.val[static_cast<std::size_t>(e)]);
    }
    out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
  }
  return out;
}

TEST(PlanIoHostile, EveryBrokenClauseOfTheRowFormProofIsBadSnapshot) {
  // A CRC only proves a blob's bytes are the ones written: a resealed
  // blob can carry any row form. Each case breaks one clause of the load
  // proof (is_row_schedule) in an otherwise genuine, CRC-valid v4 blob,
  // and must come back kBadSnapshot -- never an abort, a hang or an
  // out-of-bounds read (the sanitizer build runs this).
  const sparse::CscMatrix l = test_matrix();
  using Mangle = std::function<void(core::PlanSnapshot&)>;
  for (const char* key : {"serial", "cpu-levelset"}) {
    for (const bool upper : {false, true}) {
      SCOPED_TRACE(std::string(key) + (upper ? " upper" : " lower"));
      core::SolveOptions opt = core::registry::options_for(key).value();
      opt.cpu_threads = 2;
      const auto fresh =
          upper ? core::SolverPlan::analyze_upper(sparse::transpose(l), opt)
                : core::SolverPlan::analyze(l, opt);
      ASSERT_TRUE(fresh.ok()) << fresh.message();
      core::SnapshotBlob genuine;
      ASSERT_EQ(core::deserialize_snapshot(fresh->serialize().value(),
                                           genuine),
                "");
      const core::RowForm& rf = *genuine.snapshot.row_form;
      const std::size_t n = rf.row_of.size();
      const offset_t nnz = rf.nnz();
      // A row with at least two off-diagonals, and where its entries sit.
      std::size_t wide = 0;
      while (rf.row_ptr[wide + 1] - rf.row_ptr[wide] < 3) ++wide;
      const auto first = static_cast<std::size_t>(rf.row_ptr[wide]);
      const auto diag = static_cast<std::size_t>(rf.row_ptr[wide + 1]) - 1;
      const auto swap_entries = [](core::RowForm& f, std::size_t a,
                                   std::size_t b) {
        std::swap(f.col_idx[a], f.col_idx[b]);
        std::swap(f.val[a], f.val[b]);
      };
      std::vector<std::size_t> reversed(n);
      for (std::size_t p = 0; p < n; ++p) reversed[p] = n - 1 - p;

      std::vector<std::pair<std::string, Mangle>> cases = {
          {"row_of repeats a row",
           [](core::PlanSnapshot& s) {
             s.row_form->row_of[1] = s.row_form->row_of[0];
           }},
          {"row_of names a missing row",
           [n](core::PlanSnapshot& s) {
             s.row_form->row_of[0] = static_cast<index_t>(n);
           }},
          {"row_of names a negative row",
           [](core::PlanSnapshot& s) { s.row_form->row_of[0] = -1; }},
          {"row_ptr decreases",
           [n](core::PlanSnapshot& s) {
             std::vector<offset_t>& p = s.row_form->row_ptr;
             p[n / 2] = p[n / 2 + 1] + 1;
           }},
          {"row_ptr does not start at 0",
           [](core::PlanSnapshot& s) { s.row_form->row_ptr[0] = 1; }},
          {"row_ptr overruns nnz",
           [n, nnz](core::PlanSnapshot& s) {
             s.row_form->row_ptr[n / 2] = nnz + 1000;
           }},
          {"a row does not end with its diagonal",
           [&](core::PlanSnapshot& s) {
             swap_entries(*s.row_form, diag - 1, diag);
           }},
          {"a diagonal is zero",
           [diag](core::PlanSnapshot& s) { s.row_form->val[diag] = 0.0; }},
          {"off-diagonals do not ascend",
           [&](core::PlanSnapshot& s) {
             swap_entries(*s.row_form, first, first + 1);
           }},
          {"an off-diagonal sits at a later position",
           [&](core::PlanSnapshot& s) {
             s.row_form = permuted(*s.row_form, reversed);
           }},
      };
      if (opt.backend == core::Backend::kCpuLevelSet) {
        cases.push_back({"an off-diagonal sits in the same level",
                         [](core::PlanSnapshot& s) {
                           s.level_ptr.erase(s.level_ptr.begin() + 1);
                         }});
        cases.push_back({"level_ptr does not start at 0",
                         [](core::PlanSnapshot& s) { s.level_ptr[0] = 1; }});
        cases.push_back({"level_ptr stops short of n",
                         [](core::PlanSnapshot& s) { s.level_ptr.back() -= 1; }});
        cases.push_back({"level_ptr decreases", [](core::PlanSnapshot& s) {
                           std::swap(s.level_ptr[1], s.level_ptr[2]);
                         }});
        cases.push_back({"no level boundaries",
                         [](core::PlanSnapshot& s) { s.level_ptr.clear(); }});
      } else {
        cases.push_back({"serial with level boundaries",
                         [n](core::PlanSnapshot& s) {
                           s.level_ptr = {0, static_cast<offset_t>(n)};
                         }});
      }
      // The genuine snapshot, resealed the same way, loads.
      ASSERT_TRUE(core::SolverPlan::deserialize(
                      core::serialize_snapshot(genuine.snapshot,
                                               genuine.factor_hash),
                      opt)
                      .ok());
      for (const auto& [what, mangle] : cases) {
        SCOPED_TRACE(what);
        core::PlanSnapshot snap = genuine.snapshot;
        mangle(snap);
        const auto r = core::SolverPlan::deserialize(
            core::serialize_snapshot(snap, genuine.factor_hash), opt);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status(), core::SolveStatus::kBadSnapshot) << r.message();
      }
    }
  }
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
