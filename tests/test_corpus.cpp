// Fuzz regression corpus replay.
//
// tests/corpus/ holds byte-level inputs for the two hardened decoders --
// the wire-frame parser (net::peek_frame + type decoders) and the plan
// blob reader (core::deserialize_snapshot, i.e. support::BlobReader) --
// and this suite replays EVERY file there on every run. The contract is
// fail-stop: each input must produce either a clean decode or a typed
// error; never a crash, a hang, or an unchecked allocation.
//
// The file name carries the expectation:
//   reject_*    -- hostile: both decoders must return a typed error;
//   frame_ok_*  -- must fully decode through the frame path;
//   blob_ok_*   -- must deserialize as a plan snapshot.
//
// The canonical seed files are regenerated (deterministically,
// byte-identical) by the first test, so the corpus is self-healing and
// reviewable; test_net's mutation fuzzer appends surviving mutants as
// frame_ok_fuzz_*.bin, which land in the same replay. reject_legacy_*
// files are NEVER regenerated: they are plans saved by earlier releases
// in formats v2 and v3, which the v4 reader refuses and PlanCache
// re-analyzes once.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"
#include "net/protocol.hpp"
#include "support/blob.hpp"

#ifndef MSPTRSV_CORPUS_DIR
#error "MSPTRSV_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace msptrsv {
namespace {

namespace fs = std::filesystem;

std::string corpus_dir() { return MSPTRSV_CORPUS_DIR; }

void write_corpus(const std::string& name,
                  const std::vector<std::uint8_t>& bytes) {
  ASSERT_TRUE(support::write_file(corpus_dir() + "/" + name, bytes)) << name;
}

std::vector<std::uint8_t> blob_of(const std::vector<std::uint8_t>& wire) {
  return {wire.begin() + 4, wire.end()};
}

std::vector<std::uint8_t> valid_hello_blob() {
  net::HelloFrame f;
  f.request_id = 7;
  f.client_name = "corpus-seed";
  return blob_of(net::encode_hello(f));
}

/// Full frame decode: peek, then the type-specific decoder. True only
/// when every byte was consumed and validated.
bool frame_decodes(const std::vector<std::uint8_t>& bytes,
                   std::string* why = nullptr) {
  auto head = net::peek_frame(bytes);
  if (!head.ok()) {
    if (why != nullptr) *why = head.message();
    return false;
  }
  net::FrameHead& h = head.value();
  const auto report = [&](const auto& r) {
    if (!r.ok() && why != nullptr) *why = r.message();
    return r.ok();
  };
  switch (h.type) {
    case net::FrameType::kHello: return report(net::decode_hello(h));
    case net::FrameType::kHelloOk: return report(net::decode_hello_ok(h));
    case net::FrameType::kOpenPlan: return report(net::decode_open_plan(h));
    case net::FrameType::kOpenOk: return report(net::decode_open_ok(h));
    case net::FrameType::kSolve: return report(net::decode_solve(h));
    case net::FrameType::kSolveOk: return report(net::decode_solve_ok(h));
    case net::FrameType::kError: return report(net::decode_error(h));
    case net::FrameType::kStats: return report(net::decode_stats(h));
    case net::FrameType::kStatsOk: return report(net::decode_stats_ok(h));
    case net::FrameType::kDrain: return report(net::decode_drain(h));
    case net::FrameType::kDrainOk: return report(net::decode_drain_ok(h));
    case net::FrameType::kPing: return report(net::decode_ping(h));
    case net::FrameType::kPong: return report(net::decode_pong(h));
    case net::FrameType::kFailpoint: return report(net::decode_failpoint(h));
    case net::FrameType::kFailpointOk:
      return report(net::decode_failpoint_ok(h));
    case net::FrameType::kTraceDump: return report(net::decode_trace_dump(h));
    case net::FrameType::kTraceDumpOk:
      return report(net::decode_trace_dump_ok(h));
  }
  if (why != nullptr) *why = "unknown frame type escaped peek_frame";
  return false;
}

/// Plan-blob decode through core::deserialize_snapshot (BlobReader
/// underneath). Empty string = success.
std::string snapshot_decodes(const std::vector<std::uint8_t>& bytes) {
  core::SnapshotBlob out;
  return core::deserialize_snapshot(bytes, out);
}

TEST(FuzzCorpus, SeedCorpusIsRegeneratedDeterministically) {
  fs::create_directories(corpus_dir());

  // ---- byte-level hostility against the frame decoder ----
  write_corpus("reject_empty.bin", {});
  write_corpus("reject_short_magic.bin", {'M', 'S'});

  const std::vector<std::uint8_t> hello = valid_hello_blob();
  ASSERT_GE(hello.size(), 16u);

  std::vector<std::uint8_t> bad_magic = hello;
  bad_magic[0] ^= 0xFF;
  write_corpus("reject_bad_magic.bin", bad_magic);

  std::vector<std::uint8_t> bad_version = hello;
  bad_version[4] ^= 0x07;  // version field (CRC breaks too; still typed)
  write_corpus("reject_bad_version.bin", bad_version);

  std::vector<std::uint8_t> bad_crc = hello;
  bad_crc[hello.size() - 1] ^= 0x01;
  write_corpus("reject_bad_crc.bin", bad_crc);

  std::vector<std::uint8_t> truncated(hello.begin(), hello.end() - 5);
  write_corpus("reject_truncated.bin", truncated);

  // Unknown frame type with an otherwise pristine blob envelope.
  {
    support::BlobWriter w(net::kProtocolVersion);
    w.write_u8(0xEE);
    w.write_u64(1);
    write_corpus("reject_unknown_type.bin", std::move(w).finish());
  }
  // A hello whose client-name length claims ~1TB: the reader must refuse
  // before allocating, not after.
  {
    support::BlobWriter w(net::kProtocolVersion);
    w.write_u8(static_cast<std::uint8_t>(net::FrameType::kHello));
    w.write_u64(2);
    w.write_u16(1);
    w.write_u16(1);
    w.write_u64(0xFFFFFFFFFFull);  // string length with no bytes behind it
    write_corpus("reject_overlong_string.bin", std::move(w).finish());
  }
  // A ping with trailing payload: decoders must treat leftovers as a
  // violation, not ignore them.
  {
    support::BlobWriter w(net::kProtocolVersion);
    w.write_u8(static_cast<std::uint8_t>(net::FrameType::kPing));
    w.write_u64(3);
    w.write_u32(0xDEADBEEF);
    write_corpus("reject_trailing_payload.bin", std::move(w).finish());
  }

  // ---- plan-blob seeds (BlobReader path) ----
  const auto serial_plan = core::SolverPlan::analyze(
      sparse::gen_chain(8), core::registry::default_options(
                                core::Backend::kSerial));
  ASSERT_TRUE(serial_plan.ok());
  const auto serial_bytes = serial_plan->serialize();
  ASSERT_TRUE(serial_bytes.ok());
  write_corpus("blob_ok_snapshot_serial_v4.bin", serial_bytes.value());

  // An autotuned plan: its blob carries the tuned section, so the
  // replay exercises the newest reader path forever. Injected host costs
  // and an explicit thread budget pin the decision -- a two-wide gang --
  // and so the bytes.
  {
    core::HostCosts cheap_sync;
    cheap_sync.serial_ns_per_nnz = 1.0;
    cheap_sync.gather_ns_per_nnz = 1.0;
    cheap_sync.level_sync_ns = {0.0, 0.0, 1.0};
    const core::ScopedHostCosts costs(cheap_sync);
    core::SolveOptions tuned = core::registry::options_for("auto").value();
    tuned.cpu_threads = 2;
    const auto auto_plan = core::SolverPlan::analyze(
        sparse::gen_layered_dag(64, 4, 200, 0.5, 3), tuned);
    ASSERT_TRUE(auto_plan.ok()) << auto_plan.message();
    ASSERT_EQ(auto_plan->options().backend, core::Backend::kCpuLevelSet);
    const auto auto_bytes = auto_plan->serialize();
    ASSERT_TRUE(auto_bytes.ok());
    write_corpus("blob_ok_snapshot_auto_v4.bin", auto_bytes.value());
  }

  // The hostile snapshot seeds derive from the serial seed.
  const std::vector<std::uint8_t>& seed = serial_bytes.value();
  std::vector<std::uint8_t> snap_truncated(seed.begin(), seed.end() - 7);
  write_corpus("reject_snapshot_truncated.bin", snap_truncated);

  std::vector<std::uint8_t> snap_v99 = seed;
  snap_v99[4] = 0x63;  // claim version 99
  write_corpus("reject_snapshot_version99.bin", snap_v99);

  // ---- healthy frame seeds ----
  write_corpus("frame_ok_hello.bin", hello);
  {
    net::PingFrame p;
    p.request_id = 12;
    write_corpus("frame_ok_ping.bin", blob_of(net::encode_ping(p)));
  }
}

TEST(FuzzCorpus, EveryCorpusFileFailStopsOrDecodesAsNamed) {
  std::size_t replayed = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(corpus_dir())) {
    if (!e.is_regular_file() || e.path().extension() != ".bin") continue;
    const std::string name = e.path().filename().string();
    SCOPED_TRACE(name);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(support::read_file(e.path().string(), bytes));
    ++replayed;

    // Both decoders must survive EVERY input (fail-stop, no crash); the
    // prefix pins which outcome is the regression contract.
    std::string frame_why;
    const bool frame_ok = frame_decodes(bytes, &frame_why);
    const std::string snap_err = snapshot_decodes(bytes);

    if (name.rfind("reject_", 0) == 0) {
      EXPECT_FALSE(frame_ok) << "hostile input now decodes as a frame";
      EXPECT_FALSE(snap_err.empty())
          << "hostile input now loads as a plan snapshot";
    } else if (name.rfind("frame_ok_", 0) == 0) {
      EXPECT_TRUE(frame_ok) << frame_why;
    } else if (name.rfind("blob_ok_", 0) == 0) {
      EXPECT_TRUE(snap_err.empty()) << snap_err;
    } else {
      ADD_FAILURE() << "corpus file with unknown expectation prefix";
    }
  }
  // The seed corpus alone is this large; mutants only add to it.
  EXPECT_GE(replayed, 15u);
}

TEST(FuzzCorpus, LegacyPlanBlobsAreRefusedAndReanalyzedOnce) {
  // Plans saved by earlier releases: serial plans that asked for the
  // interleaved layout or were upper, an autotuned cpu-taskgraph plan, a
  // fat v2 cpu-levelset upper plan carrying a natural-order CSR copy, a
  // cpu-syncfree plan, and explicit cpu-taskgraph lower and upper plans.
  // Format v4 stores a host plan's row form instead of its CSC, so each
  // is refused by version. Planted in a cache directory under a factor's
  // key, it is a miss: the cache re-analyzes once and overwrites it with
  // a v4 blob that fsck calls valid and that serves the next cold cache
  // the fresh analysis's bits.
  struct Legacy {
    const char* file;
    const char* preset;
    int version;
  };
  const sparse::CscMatrix l = sparse::gen_layered_dag(300, 12, 1500, 0.5, 7);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, 60));
  const std::string dir = ::testing::TempDir() + "corpus_legacy_" +
                          std::to_string(static_cast<unsigned>(::getpid()));
  for (const Legacy& c :
       {Legacy{"reject_legacy_serial_interleaved_v3.bin", "serial", 3},
        Legacy{"reject_legacy_serial_upper_v3.bin", "serial", 3},
        Legacy{"reject_legacy_auto_taskgraph_v3.bin", "auto", 3},
        Legacy{"reject_legacy_fat_levelset_upper_v2.bin", "cpu-levelset", 2},
        Legacy{"reject_legacy_syncfree_v3.bin", "cpu-syncfree", 3},
        Legacy{"reject_legacy_taskgraph_v3.bin", "cpu-taskgraph", 3},
        Legacy{"reject_legacy_taskgraph_upper_v3.bin", "cpu-taskgraph", 3}}) {
    SCOPED_TRACE(c.file);
    const core::SolveOptions opt =
        core::registry::options_for(c.preset).value();
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(support::read_file(corpus_dir() + "/" + c.file, bytes));
    const auto refused = core::SolverPlan::deserialize(bytes, opt);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status(), core::SolveStatus::kBadSnapshot);
    EXPECT_NE(refused.message().find("version " + std::to_string(c.version)),
              std::string::npos)
        << refused.message();

    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path =
        dir + "/" + core::PlanCache::key_of(l, opt) + ".plan";
    ASSERT_TRUE(support::write_file(path, bytes));
    core::PlanCache cache(4);
    cache.set_disk_directory(dir);
    ASSERT_TRUE(cache.get_or_analyze(l, opt).ok());
    EXPECT_EQ(cache.stats().disk_hits, 0u);
    EXPECT_EQ(cache.stats().disk_stores, 1u);
    const core::PlanCache::FsckReport report = cache.fsck(/*repair=*/false);
    EXPECT_EQ(report.scanned, 1);
    EXPECT_EQ(report.valid, 1);

    core::PlanCache cold(4);
    cold.set_disk_directory(dir);
    const auto loaded = cold.get_or_analyze(l, opt);
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    EXPECT_EQ(cold.stats().disk_hits, 1u);
    EXPECT_EQ(loaded->solve(b).value().x,
              core::SolverPlan::analyze(l, opt)->solve(b).value().x);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace msptrsv
