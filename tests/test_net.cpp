// The network tier's contract, tested at three layers:
//
//  * FRAMES: every frame type round-trips encode -> peek -> decode; a
//    corrupt CRC, truncated image, trailing garbage, unknown type, or
//    out-of-range field is a typed kProtocolError -- never a crash, never
//    a partially-trusted value;
//  * LOOPBACK: a real SolveServer on 127.0.0.1 answers solves BIT-FOR-BIT
//    equal to direct plan.solve_batch; plan opens deduplicate by content
//    across connections; all three open modes (matrix upload, plan blob,
//    hash reference against the shared blob directory) resolve; hostile
//    byte streams fail-stop one connection while the next is served
//    normally; injected kOverloaded drives the client's deterministic
//    retry/backoff tier, and non-retryable statuses come back on the
//    FIRST attempt;
//  * FLEET: a plan-hash Router over two live server processes gives every
//    factor a home shard, both shards take traffic on a mixed workload,
//    and fleet stats merge (counters add, histograms merge).
//
// Everything runs under the same ASan/UBSan CI config as the rest of the
// suite -- the fuzz cases double as memory-safety tests of the frame
// decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "net/client.hpp"
#include "net/metrics.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "service/latency_histogram.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace msptrsv {
namespace {

using core::SolveStatus;
using net::FrameHead;
using net::FrameType;
using net::SolveClient;
using net::SolveServer;
using net::WireStats;
using service::LatencyHistogram;

sparse::CscMatrix net_matrix(std::uint64_t seed, index_t n = 400) {
  return sparse::gen_layered_dag(n, 14, 6 * n, 0.5, seed);
}

std::vector<value_t> rhs_for(const sparse::CscMatrix& l, std::uint64_t seed) {
  return sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, seed));
}

/// The blob image of an encoded frame (the wire bytes minus the u32
/// length prefix) -- what peek_frame consumes.
std::vector<std::uint8_t> blob_of(const std::vector<std::uint8_t>& wire) {
  return {wire.begin() + 4, wire.end()};
}

/// A raw reply decoded the way SolveClient::submit_batch does it.
core::Expected<std::vector<value_t>> decode_solve_reply_or_error(
    SolveClient::RawReply raw) {
  if (!raw.ok()) return core::Expected<std::vector<value_t>>(raw.error());
  return net::decode_solve_reply(std::move(raw.value()));
}

// ---- frame layer -----------------------------------------------------------

TEST(NetProtocol, HelloRoundTrip) {
  net::HelloFrame f;
  f.request_id = 42;
  f.min_version = 1;
  f.max_version = 3;
  f.client_name = "round-trip";
  const auto blob = blob_of(net::encode_hello(f));

  auto head = net::peek_frame(blob);
  ASSERT_TRUE(head.ok()) << head.message();
  EXPECT_EQ(head.value().type, FrameType::kHello);
  EXPECT_EQ(head.value().request_id, 42u);
  const auto back = net::decode_hello(head.value());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().min_version, 1);
  EXPECT_EQ(back.value().max_version, 3);
  EXPECT_EQ(back.value().client_name, "round-trip");
}

TEST(NetProtocol, OpenPlanMatrixRoundTrip) {
  net::OpenPlanFrame f;
  f.request_id = 7;
  f.mode = net::OpenMode::kMatrix;
  f.backend_key = "cpu-levelset";
  f.matrix = net_matrix(3);
  const auto blob = blob_of(net::encode_open_plan(f));

  auto head = net::peek_frame(blob);
  ASSERT_TRUE(head.ok());
  const auto back = net::decode_open_plan(head.value());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().mode, net::OpenMode::kMatrix);
  EXPECT_EQ(back.value().backend_key, "cpu-levelset");
  EXPECT_EQ(back.value().matrix.col_ptr, f.matrix.col_ptr);
  EXPECT_EQ(back.value().matrix.row_idx, f.matrix.row_idx);
  EXPECT_EQ(back.value().matrix.val, f.matrix.val);
}

TEST(NetProtocol, SolveRoundTripKeepsPriorityDeadlineAndBits) {
  net::SolveFrame f;
  f.request_id = 9;
  f.plan_id = 5;
  f.num_rhs = 2;
  f.priority = service::Priority::kHigh;
  f.deadline_us = 50000;
  f.rhs = {1.5, -2.25, 3.0, 0.0625};
  const auto blob = blob_of(net::encode_solve(f));

  auto head = net::peek_frame(blob);
  ASSERT_TRUE(head.ok());
  const auto back = net::decode_solve(head.value());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().plan_id, 5u);
  EXPECT_EQ(back.value().num_rhs, 2);
  EXPECT_EQ(back.value().priority, service::Priority::kHigh);
  EXPECT_EQ(back.value().deadline_us, 50000u);
  EXPECT_EQ(back.value().rhs, f.rhs);  // bit-for-bit through the wire
}

TEST(NetProtocol, ErrorRoundTripCarriesTypedStatus) {
  net::ErrorFrame f;
  f.request_id = 11;
  f.status = SolveStatus::kOverloaded;
  f.message = "queue full";
  const auto blob = blob_of(net::encode_error(f));

  auto head = net::peek_frame(blob);
  ASSERT_TRUE(head.ok());
  const auto back = net::decode_error(head.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().status, SolveStatus::kOverloaded);
  EXPECT_EQ(back.value().message, "queue full");
}

TEST(NetProtocol, StatsOkBinaryRoundTripMergesHistograms) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<double>(i));

  net::StatsOkFrame f;
  f.request_id = 13;
  f.format = net::StatsFormat::kBinary;
  f.stats.submitted = 1000;
  f.stats.completed = 990;
  f.stats.shed = 10;
  f.stats.peak_queue_depth = 77;
  f.stats.latency = hist.snapshot();
  f.stats.per_class[0].completed = 500;
  f.stats.per_class[0].latency = hist.snapshot();
  const auto blob = blob_of(net::encode_stats_ok(f));

  auto head = net::peek_frame(blob);
  ASSERT_TRUE(head.ok());
  const auto back = net::decode_stats_ok(head.value());
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().stats.completed, 990u);
  EXPECT_EQ(back.value().stats.latency.count, 1000u);
  EXPECT_EQ(back.value().stats.latency.counts, f.stats.latency.counts);
  EXPECT_EQ(back.value().stats.per_class[0].latency.count, 1000u);
  EXPECT_DOUBLE_EQ(back.value().stats.latency.quantile(0.5),
                   f.stats.latency.quantile(0.5));
}

TEST(NetProtocol, GoldenFramesPinTheWireBytes) {
  // Length and CRC-32C of the complete wire bytes -- length prefix, blob
  // header, payload, trailer -- of fixed frames. Any change to the bytes a
  // peer sees (field order, 8-byte padding, optional tails, the prefix)
  // moves these constants; only a new kProtocolVersion may.
  if (support::host_endian_tag() != 1) {
    GTEST_SKIP() << "the constants are little-endian wire images";
  }
  sparse::CscMatrix l;  // 4x4 lower factor, diagonal plus two entries
  l.rows = l.cols = 4;
  l.col_ptr = {0, 2, 4, 5, 6};
  l.row_idx = {0, 2, 1, 3, 2, 3};
  l.val = {2.0, -0.5, 4.0, 0.25, 1.5, 8.0};

  support::trace::TraceId trace{};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i] = static_cast<std::uint8_t>(i + 1);
  }
  const auto solve = [&](index_t num_rhs, bool traced) {
    net::SolveFrame f;
    f.request_id = 3;
    f.plan_id = 7;
    f.num_rhs = num_rhs;
    f.priority = service::Priority::kHigh;
    f.deadline_us = 1500;
    for (index_t i = 0; i < 4 * num_rhs; ++i) f.rhs.push_back(0.5 * i - 1.25);
    if (traced) f.trace_id = trace;
    return net::encode_solve(f);
  };

  net::HelloFrame hello{1, 1, 1, "golden-client"};
  net::OpenPlanFrame open;
  open.request_id = 2;
  open.mode = net::OpenMode::kMatrix;
  open.backend_key = "serial";
  open.matrix = l;
  net::SolveOkFrame reply;
  reply.request_id = 3;
  reply.server_us = 12.5;
  reply.x = {1.0, -2.0, 0.125, 1e-3};
  reply.has_phases = true;
  reply.phases = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};

  struct Golden {
    const char* name;
    std::vector<std::uint8_t> wire;
    std::size_t size;
    std::uint32_t crc;
  };
  const Golden frames[] = {
      {"hello", net::encode_hello(hello), 50, 0xFA7BD78Bu},
      {"open-plan", net::encode_open_plan(open), 184, 0x14A36883u},
      {"solve k=1", solve(1, false), 88, 0xE40F9274u},
      {"solve k=3", solve(3, false), 152, 0x2C2BF3C9u},
      {"solve k=1 traced", solve(1, true), 104, 0xFE3EA679u},
      {"solve k=3 traced", solve(3, true), 168, 0x9823C272u},
      {"solve-ok with phases", net::encode_solve_ok(reply), 136, 0xF5BC2F3Cu},
  };
  for (const Golden& g : frames) {
    EXPECT_EQ(g.wire.size(), g.size) << g.name;
    EXPECT_EQ(support::crc32(g.wire), g.crc)
        << g.name << ": 0x" << std::hex << support::crc32(g.wire);
  }
}

TEST(NetProtocol, InPlaceSolveFramesMatchTheEncodersAndAlignTheirArrays) {
  // The solve frames the client and server build in reused buffers are
  // the encode_* bytes, whatever the buffer held before; their arrays sit
  // 8-aligned, and a solve read by read_frame decodes in place.
  net::FrameBytes buf;
  for (const std::size_t n : {40u, 3u, 0u, 17u}) {
    net::SolveFrame f;
    f.request_id = 11 + n;
    f.plan_id = 4;
    f.num_rhs = 1;
    f.deadline_us = 250;
    for (std::size_t i = 0; i < n; ++i) f.rhs.push_back(0.75 * i - 3.0);
    if (n % 2 == 1) f.trace_id[3] = 9;
    const std::span<const std::uint8_t> wire =
        net::encode_solve_into(buf, f, f.rhs);
    const std::vector<std::uint8_t> want = net::encode_solve(f);
    EXPECT_TRUE(std::equal(wire.begin(), wire.end(), want.begin(), want.end()))
        << n << " rhs";
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wire.data() + 4) % 8, 0u);

    // Received the way read_frame stores it: the blob at the start of a
    // FrameBytes. The in-place decode views the frame's own bytes.
    net::FrameBytes rx(wire.begin() + 4, wire.end());
    auto head = net::peek_frame(rx);
    ASSERT_TRUE(head.ok());
    std::span<const value_t> rhs;
    const auto view = net::decode_solve_in_place(head.value(), rhs);
    ASSERT_TRUE(view.ok()) << view.message();
    EXPECT_TRUE(view.value().rhs.empty());
    EXPECT_EQ(view.value().trace_id, f.trace_id);
    EXPECT_TRUE(std::equal(rhs.begin(), rhs.end(), f.rhs.begin(), f.rhs.end()));
    if (n > 0) {
      EXPECT_GE(reinterpret_cast<const std::uint8_t*>(rhs.data()), rx.data());
      EXPECT_LT(reinterpret_cast<const std::uint8_t*>(rhs.data()),
                rx.data() + rx.size());
    }

    net::SolveOkFrame ok;
    ok.request_id = f.request_id;
    ok.server_us = 3.5 * n;
    ok.x = f.rhs;
    ok.has_phases = n != 3;
    ok.phases = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
    net::SolveOkWriter reply(buf, ok.request_id, n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reply.x().data()) % 8, 0u);
    std::copy(ok.x.begin(), ok.x.end(), reply.x().begin());
    const std::span<const std::uint8_t> reply_wire =
        reply.finish(ok.server_us, ok.has_phases ? &ok.phases : nullptr);
    const std::vector<std::uint8_t> reply_want = net::encode_solve_ok(ok);
    EXPECT_TRUE(std::equal(reply_wire.begin(), reply_wire.end(),
                           reply_want.begin(), reply_want.end()))
        << n << " x";
  }
  // A blob that does not start 8-aligned cannot be read in place: the
  // reader fails the frame rather than hand out misaligned doubles.
  net::SolveFrame f;
  f.rhs = {1.0, 2.0};
  const std::vector<std::uint8_t> wire = net::encode_solve(f);
  std::vector<std::uint8_t> shifted(wire.size() + 1);
  std::copy(wire.begin(), wire.end(), shifted.begin() + 1);
  auto head = net::peek_frame(
      std::span<const std::uint8_t>(shifted).subspan(1 + 4));
  ASSERT_TRUE(head.ok());
  std::span<const value_t> rhs;
  const auto misaligned = net::decode_solve_in_place(head.value(), rhs);
  EXPECT_FALSE(misaligned.ok());
  EXPECT_EQ(misaligned.status(), SolveStatus::kProtocolError);
}

TEST(NetProtocol, CorruptCrcIsProtocolError) {
  auto blob = blob_of(net::encode_drain({21}));
  blob.back() ^= 0xFF;  // CRC trailer
  const auto head = net::peek_frame(blob);
  ASSERT_FALSE(head.ok());
  EXPECT_EQ(head.status(), SolveStatus::kProtocolError);
}

TEST(NetProtocol, TruncatedBlobIsProtocolError) {
  const auto blob = blob_of(net::encode_hello({1, 1, 1, "x"}));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const auto head = net::peek_frame(
        std::span<const std::uint8_t>(blob.data(), len));
    EXPECT_FALSE(head.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(NetProtocol, TrailingGarbageIsProtocolError) {
  // A drain-ok image handed to the drain decoder leaves its u64 payload
  // unconsumed -- the decoder must treat leftover bytes as a violation.
  const auto blob = blob_of(net::encode_drain_ok({3, 12345}));
  auto head = net::peek_frame(blob);
  ASSERT_TRUE(head.ok());
  const auto back = net::decode_drain(head.value());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status(), SolveStatus::kProtocolError);
  EXPECT_FALSE(head.value().reader.ok());  // latched: connection fail-stops
}

TEST(NetProtocol, UnknownFrameTypeIsProtocolError) {
  support::BlobWriter w(net::kProtocolVersion);
  w.write_u8(99);  // not a FrameType
  w.write_u64(1);
  const auto blob = std::move(w).finish();
  const auto head = net::peek_frame(blob);
  ASSERT_FALSE(head.ok());
  EXPECT_EQ(head.status(), SolveStatus::kProtocolError);
}

TEST(NetProtocol, OutOfRangePriorityIsProtocolError) {
  support::BlobWriter w(net::kProtocolVersion);
  w.write_u8(static_cast<std::uint8_t>(FrameType::kSolve));
  w.write_u64(1);
  w.write_u64(1);  // plan_id
  w.write_i32(1);  // num_rhs
  w.write_u8(7);   // priority: out of range
  w.write_u64(0);  // deadline
  w.write_span<value_t>(std::vector<value_t>{1.0});
  const auto blob = std::move(w).finish();
  auto head = net::peek_frame(blob);
  ASSERT_TRUE(head.ok());
  const auto back = net::decode_solve(head.value());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status(), SolveStatus::kProtocolError);
}

TEST(NetProtocol, DeterministicMutationFuzzPersistsSurvivors) {
  // Seeded mutation fuzz over the frame decoder: flip a few bytes of
  // valid frames and require a fail-stop outcome -- a typed protocol
  // error or a clean decode (a mutation can land in a don't-care byte or
  // produce another valid value), never a crash or unchecked allocation.
  //
  // Mutants that SURVIVE full decoding despite the mutation are the
  // interesting ones: they exercised a path the hand-written corpus seeds
  // do not pin down, so they are persisted (deterministically named by
  // content hash) into tests/corpus/ where test_corpus replays them on
  // every future run.
  const auto decodes = [](std::span<const std::uint8_t> bytes) {
    auto head = net::peek_frame(bytes);
    if (!head.ok()) return false;
    FrameHead& h = head.value();
    switch (h.type) {
      case FrameType::kHello: return net::decode_hello(h).ok();
      case FrameType::kHelloOk: return net::decode_hello_ok(h).ok();
      case FrameType::kOpenPlan: return net::decode_open_plan(h).ok();
      case FrameType::kOpenOk: return net::decode_open_ok(h).ok();
      case FrameType::kSolve: return net::decode_solve(h).ok();
      case FrameType::kSolveOk: return net::decode_solve_ok(h).ok();
      case FrameType::kError: return net::decode_error(h).ok();
      case FrameType::kStats: return net::decode_stats(h).ok();
      case FrameType::kStatsOk: return net::decode_stats_ok(h).ok();
      case FrameType::kDrain: return net::decode_drain(h).ok();
      case FrameType::kDrainOk: return net::decode_drain_ok(h).ok();
      case FrameType::kPing: return net::decode_ping(h).ok();
      case FrameType::kPong: return net::decode_pong(h).ok();
      case FrameType::kFailpoint: return net::decode_failpoint(h).ok();
      case FrameType::kFailpointOk: return net::decode_failpoint_ok(h).ok();
      case FrameType::kTraceDump: return net::decode_trace_dump(h).ok();
      case FrameType::kTraceDumpOk: return net::decode_trace_dump_ok(h).ok();
    }
    return false;
  };

  std::vector<std::vector<std::uint8_t>> seeds;
  {
    net::HelloFrame hello;
    hello.request_id = 1;
    hello.client_name = "fuzz";
    seeds.push_back(blob_of(net::encode_hello(hello)));
    net::SolveFrame solve;
    solve.request_id = 2;
    solve.plan_id = 1;
    solve.num_rhs = 2;
    solve.rhs = {1.0, 2.0, 3.0, 4.0};
    seeds.push_back(blob_of(net::encode_solve(solve)));
    net::OpenPlanFrame open;
    open.request_id = 3;
    open.mode = net::OpenMode::kMatrix;
    open.backend_key = "serial";
    open.matrix = sparse::gen_chain(6);
    seeds.push_back(blob_of(net::encode_open_plan(open)));
    net::ErrorFrame err;
    err.request_id = 4;
    err.status = SolveStatus::kOverloaded;
    err.message = "fuzz";
    seeds.push_back(blob_of(net::encode_error(err)));
    net::PingFrame ping;
    ping.request_id = 5;
    seeds.push_back(blob_of(net::encode_ping(ping)));
  }

  std::filesystem::create_directories(MSPTRSV_CORPUS_DIR);

  // Fixed generator seed: the mutant set -- and therefore the persisted
  // survivor set -- is identical on every run and every machine.
  //
  // Mutations land in the PAYLOAD (bytes 8..size-4) and the CRC trailer
  // is resealed afterwards: an unsealed flip is always caught by the CRC
  // check (its own corpus seeds pin that), while a resealed one reaches
  // the type decoders -- the validation layer this fuzz targets.
  std::mt19937_64 rng(0x5EEDC0DE);
  std::size_t survivors = 0, rejected = 0;
  for (const std::vector<std::uint8_t>& seed : seeds) {
    const std::size_t payload = seed.size() - 8 - 4;
    ASSERT_GT(payload, 0u);
    // Persist a bounded, deterministic sample per seed (the first few in
    // generation order): enough to pin the surviving shapes in the replay
    // corpus without drowning it in near-duplicate mutants.
    int persisted = 0;
    for (int iter = 0; iter < 400; ++iter) {
      std::vector<std::uint8_t> m = seed;
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int f = 0; f < flips; ++f) {
        m[8 + rng() % payload] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      }
      if (m == seed) continue;
      const std::uint32_t crc = support::crc32(
          std::span<const std::uint8_t>(m).subspan(8, payload));
      std::memcpy(m.data() + m.size() - 4, &crc, sizeof(crc));
      if (!decodes(m)) {
        ++rejected;
        continue;
      }
      ++survivors;
      if (persisted >= 4) continue;
      ++persisted;
      // FNV-1a content hash for a stable, collision-resistant-enough name.
      std::uint64_t h = 1469598103934665603ull;
      for (std::uint8_t byte : m) h = (h ^ byte) * 1099511628211ull;
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(h));
      const std::string path =
          std::string(MSPTRSV_CORPUS_DIR) + "/frame_ok_fuzz_" + hex + ".bin";
      ASSERT_TRUE(support::write_file(path, m)) << path;
    }
  }
  // The decoder must be doing real validation (most mutants die), and the
  // sweep must be reaching the survivor-persistence path.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(survivors, 0u);
}

TEST(NetProtocol, WireStatsMergeAddsCountersAndHistograms) {
  LatencyHistogram ha, hb;
  ha.record(100);
  ha.record(200);
  hb.record(400);

  WireStats a, b;
  a.completed = 2;
  a.queue_depth = 3;
  a.peak_queue_depth = 9;
  a.latency = ha.snapshot();
  b.completed = 1;
  b.queue_depth = 4;
  b.peak_queue_depth = 5;
  b.latency = hb.snapshot();

  a.merge(b);
  EXPECT_EQ(a.completed, 3u);
  EXPECT_EQ(a.queue_depth, 7u);       // gauges of disjoint shards: sum
  EXPECT_EQ(a.peak_queue_depth, 9u);  // peaks do not add: max
  EXPECT_EQ(a.latency.count, 3u);
  EXPECT_EQ(a.latency.sum_us, 700u);
}

// ---- latency histogram -----------------------------------------------------

TEST(LatencyHistogram, BucketsAreContiguousAndMonotonic) {
  // Every integer edge maps into a bucket whose [floor, ceil] contains it,
  // and bucket indexes never decrease as values grow.
  std::size_t prev = 0;
  for (std::uint64_t us : {0ull, 1ull, 31ull, 32ull, 63ull, 64ull, 65ull,
                           1000ull, 4096ull, 1000000ull, 1ull << 40}) {
    const std::size_t idx = LatencyHistogram::index_of(us);
    EXPECT_GE(idx, prev);
    EXPECT_LE(LatencyHistogram::bucket_floor(idx), us);
    EXPECT_GE(LatencyHistogram::bucket_ceil(idx), us);
    prev = idx;
  }
}

TEST(LatencyHistogram, QuantileHasBoundedRelativeError) {
  LatencyHistogram hist;
  for (int i = 1; i <= 100000; ++i) hist.record(static_cast<double>(i));
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 100000u);
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double want = q * 100000.0;
    const double got = snap.quantile(q);
    // The bucket edge is within one sub-bucket (1/32 ~ 3.2%) of the truth.
    EXPECT_NEAR(got, want, want * 0.04) << "q=" << q;
  }
  EXPECT_NEAR(snap.mean_us(), 50000.5, 100.0);
}

TEST(LatencyHistogram, MergeEqualsCombinedRecording) {
  LatencyHistogram a, b, both;
  for (int i = 1; i <= 500; ++i) {
    a.record(static_cast<double>(i));
    both.record(static_cast<double>(i));
  }
  for (int i = 1000; i <= 2000; ++i) {
    b.record(static_cast<double>(i));
    both.record(static_cast<double>(i));
  }
  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  const auto want = both.snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum_us, want.sum_us);
  EXPECT_EQ(merged.counts, want.counts);
}

// ---- loopback server -------------------------------------------------------

TEST(NetLoopback, ServedSolveIsBitForBitEqualToDirect) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());

  const sparse::CscMatrix l = net_matrix(17);
  const std::vector<value_t> b = rhs_for(l, 1);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();
  EXPECT_EQ(handle.value().rows, l.rows);

  const auto direct = server.service().plan_for(l, "cpu-levelset");
  ASSERT_TRUE(direct.ok());
  const std::vector<value_t> want = direct->solve(b).value().x;

  const auto x = client.solve(handle.value(), b);
  ASSERT_TRUE(x.ok()) << x.message();
  EXPECT_EQ(x.value(), want);

  // Batch path: 3 rhs fused, still bit-for-bit.
  std::vector<value_t> rhs;
  for (std::uint64_t s : {2u, 3u, 4u}) {
    const auto col = rhs_for(l, s);
    rhs.insert(rhs.end(), col.begin(), col.end());
  }
  const std::vector<value_t> want_batch =
      direct->solve_batch(rhs, 3).value().x;
  const auto xb = client.solve_batch(handle.value(), rhs, 3);
  ASSERT_TRUE(xb.ok()) << xb.message();
  EXPECT_EQ(xb.value(), want_batch);

  server.stop();
}

TEST(NetLoopback, OpensDeduplicateByContentAcrossConnections) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(23);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient a(copt), b(copt);
  const auto first = a.open(l, "cpu-levelset");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().source, "cache");  // analyzed on first use
  const auto second = b.open(l, "cpu-levelset");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().source, "open");  // deduped against a's open
  EXPECT_EQ(server.wire_stats().plans_open, 1u);
  server.stop();
}

TEST(NetLoopback, PlanBlobUploadSkipsServerAnalysis) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(29);

  const auto options = core::registry::service_options("cpu-levelset");
  ASSERT_TRUE(options.ok());
  const auto plan = core::SolverPlan::analyze(l, options.value());
  ASSERT_TRUE(plan.ok());
  auto blob = plan.value().serialize();
  ASSERT_TRUE(blob.ok());

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle =
      client.open_plan_blob(std::move(blob.value()), "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();
  EXPECT_EQ(handle.value().source, "deserialized");

  const std::vector<value_t> b = rhs_for(l, 1);
  const std::vector<value_t> want = plan.value().solve(b).value().x;
  const auto x = client.solve(handle.value(), b);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.value(), want);

  // A blob recording another factor's hash is refused: keyed by that
  // hash, it would answer other clients' opens of the other factor.
  core::SnapshotBlob parsed;
  ASSERT_EQ(core::deserialize_snapshot(plan.value().serialize().value(),
                                       parsed),
            "");
  const auto forged = client.open_plan_blob(
      core::serialize_snapshot(parsed.snapshot,
                               sparse::hash_csc(net_matrix(30))),
      "cpu-levelset");
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status(), SolveStatus::kBadSnapshot);
  server.stop();
}

TEST(NetLoopback, HashRefResolvesAgainstSharedBlobDirectory) {
  const std::string dir =
      ::testing::TempDir() + "net_warm_tier_" +
      std::to_string(
          std::chrono::steady_clock::now().time_since_epoch().count());
  std::filesystem::create_directories(dir);
  const sparse::CscMatrix l = net_matrix(31);
  const sparse::StructuralHash hash = sparse::hash_csc(l);

  // Server A analyzes the factor; its cache_dir persists the plan blob.
  {
    net::ServerOptions sopt;
    sopt.service.cache_dir = dir;
    SolveServer a(sopt);
    ASSERT_TRUE(a.start().ok());
    net::ClientOptions copt;
    copt.port = a.port();
    SolveClient client(copt);
    ASSERT_TRUE(client.open(l, "cpu-levelset").ok());
    a.stop();
  }

  // Server B never saw the matrix: a hash-ref open is a DISK hit against
  // the shared directory -- the fleet-wide warm tier.
  net::ServerOptions sopt;
  sopt.service.cache_dir = dir;
  SolveServer bsrv(sopt);
  ASSERT_TRUE(bsrv.start().ok());
  net::ClientOptions copt;
  copt.port = bsrv.port();
  SolveClient client(copt);
  const auto handle = client.open_by_hash(hash, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();
  EXPECT_EQ(handle.value().source, "disk");

  const std::vector<value_t> b = rhs_for(l, 1);
  const auto direct = bsrv.service().plan_for(l, "cpu-levelset");
  const auto x = client.solve(handle.value(), b);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.value(), direct->solve(b).value().x);

  // An unknown hash is a typed kBadSnapshot, not a protocol error.
  sparse::StructuralHash unknown = hash;
  unknown.pattern ^= 0xDEADBEEF;
  const auto miss = client.open_by_hash(unknown, "cpu-levelset");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status(), SolveStatus::kBadSnapshot);

  // Another factor's blob filed under the requested key is refused, not
  // served as the requested factor's plan (same row count: its solves
  // would run and answer for the wrong matrix).
  const auto sopts = core::registry::service_options("cpu-levelset");
  ASSERT_TRUE(sopts.ok());
  const sparse::StructuralHash wanted = sparse::hash_csc(net_matrix(41));
  ASSERT_TRUE(core::SolverPlan::analyze(net_matrix(37), sopts.value())
                  ->save(dir + "/" +
                         core::PlanCache::key_of(wanted, sopts.value()) +
                         ".plan")
                  .ok());
  const auto misfiled = client.open_by_hash(wanted, "cpu-levelset");
  ASSERT_FALSE(misfiled.ok());
  EXPECT_EQ(misfiled.status(), SolveStatus::kBadSnapshot);

  bsrv.stop();
  std::filesystem::remove_all(dir);
}

/// Sends raw bytes to the server, then verifies the server (a) closed
/// THIS connection and (b) still serves a fresh well-formed client.
void expect_fail_stop(SolveServer& server,
                      const std::vector<std::uint8_t>& raw) {
  const std::uint64_t errors_before = server.wire_stats().protocol_errors;
  auto sock = net::tcp_connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock.value().send_all(raw).ok());
  // The server answers with a best-effort error frame and/or closes; the
  // read side observing EOF (or an error reply) is the fail-stop signal.
  std::vector<std::uint8_t> sink(4096);
  bool eof = false;
  while (true) {
    const auto got = sock.value().recv_exact(
        std::span<std::uint8_t>(sink.data(), 1), &eof);
    if (!got.ok() || eof) break;
  }
  EXPECT_GT(server.wire_stats().protocol_errors, errors_before);

  // The process shrugged it off: a well-formed client still gets served.
  const sparse::CscMatrix l = net_matrix(37, 200);
  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();
  const std::vector<value_t> b = rhs_for(l, 1);
  EXPECT_TRUE(client.solve(handle.value(), b).ok());
}

TEST(NetLoopback, MalformedFramesFailStopTheConnectionNotTheProcess) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());

  const auto with_prefix = [](const std::vector<std::uint8_t>& blob) {
    const std::uint32_t len = static_cast<std::uint32_t>(blob.size());
    std::vector<std::uint8_t> wire(4 + blob.size());
    for (std::size_t i = 0; i < 4; ++i) {
      wire[i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
    std::copy(blob.begin(), blob.end(), wire.begin() + 4);
    return wire;
  };

  // Garbage bytes where a blob image should be.
  expect_fail_stop(server, with_prefix(std::vector<std::uint8_t>(64, 0xAB)));
  // Length prefix larger than the frame bound: rejected BEFORE allocation.
  expect_fail_stop(server, {0xFF, 0xFF, 0xFF, 0xFF});
  // Length prefix smaller than any valid frame.
  expect_fail_stop(server, {0x04, 0x00, 0x00, 0x00, 1, 2, 3, 4});
  // Valid frame with its CRC trailer flipped.
  {
    auto wire = net::encode_drain({1});
    wire.back() ^= 0xFF;
    expect_fail_stop(server, wire);
  }
  // Unknown frame type inside a valid blob.
  {
    support::BlobWriter w(net::kProtocolVersion);
    w.write_u8(200);
    w.write_u64(1);
    expect_fail_stop(server, with_prefix(std::move(w).finish()));
  }
  // A REPLY frame sent to the server.
  {
    net::SolveOkFrame reply;
    reply.request_id = 1;
    reply.x = {1.0};
    expect_fail_stop(server, net::encode_solve_ok(reply));
  }
  // Out-of-range priority in an otherwise valid solve frame.
  {
    support::BlobWriter w(net::kProtocolVersion);
    w.write_u8(static_cast<std::uint8_t>(FrameType::kSolve));
    w.write_u64(1);
    w.write_u64(1);
    w.write_i32(1);
    w.write_u8(9);
    w.write_u64(0);
    w.write_span<value_t>(std::vector<value_t>{1.0});
    expect_fail_stop(server, with_prefix(std::move(w).finish()));
  }

  // Truncated body: prefix promises 1000 bytes, the peer hangs up early.
  {
    auto sock = net::tcp_connect("127.0.0.1", server.port());
    ASSERT_TRUE(sock.ok());
    std::vector<std::uint8_t> partial = {0xE8, 0x03, 0x00, 0x00, 1, 2, 3};
    ASSERT_TRUE(sock.value().send_all(partial).ok());
    sock.value().close();
  }
  // Connection-level counters saw every hostile stream.
  EXPECT_GE(server.wire_stats().protocol_errors, 7u);
  server.stop();
}

TEST(NetLoopback, CorruptReplyFailStopsTheClientConnection) {
  // The client side of fail-stop: a peer answers the hello properly, then
  // sends a solve reply whose CRC trailer is flipped. The reader checks
  // every reply before it routes it by request id, so the waiting solve
  // fails with kNetworkError and the connection goes down -- the corrupt
  // bytes never reach a caller.
  auto listener = net::ListenSocket::open(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.message();
  std::thread peer([&listener] {
    auto conn = listener.value().accept();
    if (!conn.ok()) return;
    net::Socket& sock = conn.value();
    net::FrameBytes blob;
    auto hello = net::read_frame(sock, net::kDefaultMaxFrameBytes, blob);
    if (!hello.ok() || !hello.value()) return;
    net::HelloOkFrame ok;
    ok.server_name = "corrupting-peer";
    if (!net::write_frame(sock, net::encode_hello_ok(ok)).ok()) return;
    auto solve = net::read_frame(sock, net::kDefaultMaxFrameBytes, blob);
    if (!solve.ok() || !solve.value()) return;
    auto head = net::peek_frame(blob);
    if (!head.ok()) return;
    net::SolveOkFrame reply;
    reply.request_id = head.value().request_id;
    reply.x = {1.0, 2.0};
    std::vector<std::uint8_t> wire = net::encode_solve_ok(reply);
    wire.back() ^= 0xFF;  // CRC trailer
    if (!net::write_frame(sock, wire).ok()) return;
    // Hold the socket open until the client closes its end.
    std::uint8_t byte = 0;
    bool eof = false;
    while (sock.recv_exact(std::span<std::uint8_t>(&byte, 1), &eof).ok() &&
           !eof) {
    }
  });
  [&listener] {
    net::ClientOptions copt;
    copt.port = listener.value().port();
    SolveClient client(copt);
    ASSERT_TRUE(client.connect().ok());
    const std::vector<value_t> b = {1.0, 2.0};
    const auto x = client.submit_batch(net::PlanHandle{}, b, 1).get();
    ASSERT_FALSE(x.ok());
    EXPECT_EQ(x.status(), SolveStatus::kNetworkError);
    EXPECT_NE(x.message().find("CRC"), std::string::npos) << x.message();
    EXPECT_FALSE(client.connected());
  }();  // the client is closed here, which ends the peer's read
  listener.value().shutdown();  // or its accept, had the connect failed
  peer.join();
}

TEST(NetLoopback, InjectedOverloadDrivesRetryToSuccess) {
  net::ServerOptions sopt;
  sopt.inject_status = SolveStatus::kOverloaded;
  sopt.inject_count = 3;
  SolveServer server(sopt);
  ASSERT_TRUE(server.start().ok());

  const sparse::CscMatrix l = net_matrix(41);
  net::ClientOptions copt;
  copt.port = server.port();
  copt.retry.max_attempts = 4;
  copt.retry.initial_backoff = std::chrono::microseconds(100);
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok());

  const std::vector<value_t> b = rhs_for(l, 1);
  const auto x = client.solve(handle.value(), b);
  ASSERT_TRUE(x.ok()) << x.message();  // 3 injected rejections, then served

  const net::ClientMetrics m = client.metrics_local();
  EXPECT_EQ(m.solves, 1u);
  EXPECT_EQ(m.attempts, 4u);
  EXPECT_EQ(m.retries, 3u);
  EXPECT_GT(m.backoff_us, 0u);
  server.stop();
}

TEST(NetLoopback, RetryExhaustionReturnsOverloaded) {
  net::ServerOptions sopt;
  sopt.inject_status = SolveStatus::kOverloaded;
  sopt.inject_count = 100;
  SolveServer server(sopt);
  ASSERT_TRUE(server.start().ok());

  const sparse::CscMatrix l = net_matrix(43);
  net::ClientOptions copt;
  copt.port = server.port();
  copt.retry.max_attempts = 3;
  copt.retry.initial_backoff = std::chrono::microseconds(100);
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok());

  const auto x = client.solve(handle.value(), rhs_for(l, 1));
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status(), SolveStatus::kOverloaded);
  EXPECT_EQ(client.metrics_local().attempts, 3u);
  server.stop();
}

TEST(NetLoopback, NonRetryableStatusesAreNotRetried) {
  net::ServerOptions sopt;
  sopt.inject_status = SolveStatus::kDeadlineExceeded;
  sopt.inject_count = 1;
  SolveServer server(sopt);
  ASSERT_TRUE(server.start().ok());

  const sparse::CscMatrix l = net_matrix(47);
  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok());

  // A shed deadline comes back on the FIRST attempt: re-sending the same
  // doomed deadline would only burn server time.
  const auto x = client.solve(handle.value(), rhs_for(l, 1));
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status(), SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(client.metrics_local().attempts, 1u);
  EXPECT_EQ(client.metrics_local().retries, 0u);

  // Same for a mis-shaped rhs: the server's typed kShapeMismatch comes
  // back immediately -- retrying identical bad input cannot fare better.
  const auto wrong_shape =
      client.solve(handle.value(), std::vector<value_t>(l.rows + 1, 1.0));
  ASSERT_FALSE(wrong_shape.ok());
  EXPECT_EQ(wrong_shape.status(), SolveStatus::kShapeMismatch);
  server.stop();
}

TEST(NetLoopback, DrainCompletesEverythingAdmitted) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(53);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok());

  const std::vector<value_t> b = rhs_for(l, 1);
  std::vector<std::future<core::Expected<std::vector<value_t>>>> inflight;
  for (int i = 0; i < 16; ++i) {
    inflight.push_back(client.submit_batch(handle.value(), b, 1));
  }
  const auto drained = client.drain();
  ASSERT_TRUE(drained.ok()) << drained.message();
  // The connection processes frames in order: all 16 solves were admitted
  // before the drain, so the barrier covers every one of them.
  EXPECT_EQ(drained.value(), 16u);
  for (auto& fut : inflight) {
    const auto x = fut.get();
    ASSERT_TRUE(x.ok()) << x.message();
  }
  EXPECT_EQ(server.wire_stats().completed, 16u);
  server.stop();
}

TEST(NetLoopback, PrometheusMetricsRenderTheServedTraffic) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(59);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(
      client.solve(handle.value(), rhs_for(l, 1), service::Priority::kHigh)
          .ok());

  const auto text = client.metrics();
  ASSERT_TRUE(text.ok());
  const std::string& t = text.value();
  EXPECT_NE(t.find("msptrsv_rhs_completed_total{instance=\"msptrsv\"} 1"),
            std::string::npos);
  EXPECT_NE(t.find("msptrsv_plans_open{instance=\"msptrsv\"} 1"),
            std::string::npos);
  EXPECT_NE(t.find("msptrsv_solve_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(t.find("class=\"high\""), std::string::npos);
  EXPECT_NE(t.find("# TYPE msptrsv_solve_latency_seconds histogram"),
            std::string::npos);

  // The binary stats frame agrees with the text.
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().completed, 1u);
  EXPECT_EQ(stats.value().per_class[0].completed, 1u);  // kHigh
  server.stop();
}

// ---- connection threading ---------------------------------------------------
// A solve alone on an idle connection runs on the server thread that read
// it, which hands the read side to the connection's other thread first, and
// the synchronous caller reads its own reply. Each case below fails when
// one of those hand-offs is missing or misordered.

TEST(NetThreading, PingIsAnsweredWhileAnInlineSolveStalls) {
  if (!support::failpoints_compiled()) {
    GTEST_SKIP() << "MSPTRSV_FAILPOINTS=OFF build";
  }
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(61);
  const std::vector<value_t> b = rhs_for(l, 1);
  const auto direct = server.service().plan_for(l, "cpu-levelset");
  ASSERT_TRUE(direct.ok());
  const std::vector<value_t> want = direct->solve(b).value().x;

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  // The solve is alone on an idle connection, so the server thread that
  // reads it solves it -- and stalls there for 400 ms.
  const std::uint64_t hits = support::failpoint_hits("core.solve");
  ASSERT_TRUE(support::failpoint_set("core.solve", "delay(400000)*1"));
  auto solved = std::async(std::launch::async,
                           [&] { return client.solve(handle.value(), b); });
  ASSERT_TRUE(support::failpoint_wait_hits("core.solve", hits + 1, 5000));
  // The pong does not wait for the solve: the read side went to the
  // connection's other thread before the solve started, and the caller
  // reading the socket for its own reply routes the pong on the way.
  const auto pong = client.ping(std::chrono::milliseconds(250));
  EXPECT_TRUE(pong.ok()) << pong.message();
  EXPECT_TRUE(client.connected());
  const auto x = solved.get();
  support::failpoint_clear_all();
  ASSERT_TRUE(x.ok()) << x.message();
  EXPECT_EQ(x.value(), want);
  EXPECT_EQ(client.metrics_local().retries, 0u);
  server.stop();
}

TEST(NetThreading, PipelinedSolvesDoNotQueueBehindAnInlineSolve) {
  if (!support::failpoints_compiled()) {
    GTEST_SKIP() << "MSPTRSV_FAILPOINTS=OFF build";
  }
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(67);
  const auto direct = server.service().plan_for(l, "cpu-levelset");
  ASSERT_TRUE(direct.ok());
  constexpr int kRequests = 8;
  std::vector<std::vector<value_t>> rhs, want;
  for (int i = 0; i < kRequests; ++i) {
    rhs.push_back(rhs_for(l, 100 + static_cast<std::uint64_t>(i)));
    want.push_back(direct->solve(rhs.back()).value().x);
  }

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  // Every solve call sleeps 50 ms. The first request runs inline; the
  // other seven are read while it sleeps and go through the service's
  // queue, running on the free slots or coalescing: about two delays end
  // to end. Read one at a time behind the inline solve they would take
  // eight. (The delay is long enough that scheduling noise on a loaded
  // machine stays far below the one-delay margin.)
  constexpr auto kDelay = std::chrono::milliseconds(50);
  ASSERT_TRUE(support::failpoint_set("core.solve", "delay(50000)*8"));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<SolveClient::RawReply>> replies;
  for (int i = 0; i < kRequests; ++i) {
    replies.push_back(client.submit_batch_raw(handle.value(), rhs[i], 1));
  }
  std::vector<core::Expected<std::vector<value_t>>> got;
  for (auto& reply : replies) {
    SolveClient::RawReply raw = reply.get();
    got.push_back(raw.ok() ? net::decode_solve_reply(std::move(raw.value()))
                           : core::Expected<std::vector<value_t>>(raw.error()));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  support::failpoint_clear_all();
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(got[i].ok()) << i << ": " << got[i].message();
    EXPECT_EQ(got[i].value(), want[i]) << i;
  }
  EXPECT_LT(elapsed, 3 * kDelay);
  server.stop();
}

TEST(NetThreading, SyncAndPipelinedCallersShareOneClient) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(71);
  const std::vector<value_t> b_sync = rhs_for(l, 1);
  const std::vector<value_t> b_piped = rhs_for(l, 2);
  const auto direct = server.service().plan_for(l, "cpu-levelset");
  ASSERT_TRUE(direct.ok());
  const std::vector<value_t> want_sync = direct->solve(b_sync).value().x;
  const std::vector<value_t> want_piped = direct->solve(b_piped).value().x;
  ASSERT_NE(want_sync, want_piped);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  // Whichever thread holds the socket -- the synchronous caller reading
  // its own reply, or the reader thread serving the pipelined one --
  // routes the other's reply to it.
  constexpr int kRounds = 200;
  std::atomic<int> wrong_sync{0}, wrong_piped{0};
  std::thread sync([&] {
    for (int r = 0; r < kRounds; ++r) {
      const auto x = client.solve(handle.value(), b_sync);
      if (!x.ok() || x.value() != want_sync) ++wrong_sync;
    }
  });
  std::thread piped([&] {
    for (int r = 0; r < kRounds; ++r) {
      SolveClient::RawReply raw =
          client.submit_batch_raw(handle.value(), b_piped, 1).get();
      const auto x = raw.ok()
                         ? net::decode_solve_reply(std::move(raw.value()))
                         : core::Expected<std::vector<value_t>>(raw.error());
      if (!x.ok() || x.value() != want_piped) ++wrong_piped;
    }
  });
  sync.join();
  piped.join();
  EXPECT_EQ(wrong_sync.load(), 0);
  EXPECT_EQ(wrong_piped.load(), 0);
  EXPECT_EQ(client.metrics_local().retries, 0u);
  EXPECT_EQ(server.wire_stats().completed, 2u * kRounds);
  server.stop();
}

/// Arms span recording for one scope.
struct ArmedTracing {
  ArmedTracing() {
    support::trace::trace_clear();
    support::trace::trace_set_enabled(true);
  }
  ~ArmedTracing() {
    support::trace::trace_set_enabled(false);
    support::trace::trace_clear();
  }
};

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(NetThreading, TracedInlineSolveKeepsItsSpansAndPhases) {
  namespace trace = support::trace;
  if (!trace::trace_compiled()) GTEST_SKIP() << "MSPTRSV_TRACE=OFF build";
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(73);
  const std::vector<value_t> b = rhs_for(l, 1);
  const auto direct = server.service().plan_for(l, "cpu-levelset");
  ASSERT_TRUE(direct.ok());
  const std::vector<value_t> want = direct->solve(b).value().x;

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  ArmedTracing armed;
  const service::ServiceStatsSnapshot before = server.service().stats();
  const trace::TraceId id = trace::make_trace_id();
  const auto t0 = std::chrono::steady_clock::now();
  core::Expected<std::vector<value_t>> x = [&] {
    trace::ScopedTraceContext ctx(id);
    return client.solve(handle.value(), b);
  }();
  const double round_trip_us = std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
  ASSERT_TRUE(x.ok()) << x.message();
  EXPECT_EQ(x.value(), want);

  // Asked for after the reply arrived, so it holds the reply's span too.
  const auto dump = client.trace_dump(trace::trace_id_hex(id));
  ASSERT_TRUE(dump.ok()) << dump.message();
  const service::ServiceStatsSnapshot after = server.service().stats();
  const std::string& json = dump.value().json;
  for (const char* span : {"client.solve", "net.rx", "service.queue",
                           "service.execute", "kernel.level", "net.reply"}) {
    EXPECT_NE(json.find("\"" + std::string(span) + "\""), std::string::npos)
        << span;
  }
  EXPECT_EQ(count_occurrences(json, trace::trace_id_hex(id)),
            count_occurrences(json, "\"name\":"))
      << "every filtered event carries the request's trace id";

  // One sample in each phase histogram, the reply's included, and the
  // server-side phases (coalesce is a part of queue) fit inside the round
  // trip the client saw. Each phase sum is in whole microseconds.
  double parts_us = 0.0;
  for (std::size_t p = 0; p < trace::kNumPhases; ++p) {
    EXPECT_EQ(after.phase_hist[p].count - before.phase_hist[p].count, 1u)
        << trace::kPhaseNames[p];
    if (p != 1) {
      parts_us += static_cast<double>(after.phase_hist[p].sum_us -
                                      before.phase_hist[p].sum_us);
    }
  }
  EXPECT_LE(parts_us, round_trip_us + static_cast<double>(trace::kNumPhases));
  EXPECT_LE(after.phase_hist[1].sum_us - before.phase_hist[1].sum_us,
            after.phase_hist[0].sum_us - before.phase_hist[0].sum_us);
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.coalesced_rhs, before.coalesced_rhs);
  server.stop();
}

TEST(NetThreading, TraceDumpAfterAReplyHoldsItsReplySpan) {
  namespace trace = support::trace;
  if (!trace::trace_compiled()) GTEST_SKIP() << "MSPTRSV_TRACE=OFF build";
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(79);
  const std::vector<value_t> b = rhs_for(l, 1);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  // The reply's span is recorded after its flush; the dump is read by the
  // connection's other thread and must still wait for it.
  ArmedTracing armed;
  for (int i = 0; i < 20; ++i) {
    const trace::TraceId id = trace::make_trace_id();
    {
      trace::ScopedTraceContext ctx(id);
      ASSERT_TRUE(client.solve(handle.value(), b).ok());
    }
    const auto dump = client.trace_dump(trace::trace_id_hex(id), false);
    ASSERT_TRUE(dump.ok()) << dump.message();
    EXPECT_EQ(count_occurrences(dump.value().json, "\"net.reply\""), 1u)
        << "request " << i;
  }
  server.stop();
}

TEST(NetThreading, GracefulStopAnswersAnInlineSolveAndTheSolveQueuedBehindIt) {
  if (!support::failpoints_compiled()) {
    GTEST_SKIP() << "MSPTRSV_FAILPOINTS=OFF build";
  }
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = net_matrix(89);
  const std::vector<value_t> b_inline = rhs_for(l, 1);
  const std::vector<value_t> b_queued = rhs_for(l, 2);
  const auto direct = server.service().plan_for(l, "cpu-levelset");
  ASSERT_TRUE(direct.ok());
  const std::vector<value_t> want_inline = direct->solve(b_inline).value().x;
  const std::vector<value_t> want_queued = direct->solve(b_queued).value().x;

  net::ClientOptions copt;
  copt.port = server.port();
  copt.retry.max_attempts = 1;  // a dropped reply must show, not be retried
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  // One solve stalls inline for 400 ms; a pipelined one is read by the
  // connection's other thread meanwhile and queued behind it.
  const std::uint64_t hits = support::failpoint_hits("core.solve");
  ASSERT_TRUE(support::failpoint_set("core.solve", "delay(400000)*1"));
  auto inline_solve = std::async(std::launch::async, [&] {
    return client.solve(handle.value(), b_inline);
  });
  ASSERT_TRUE(support::failpoint_wait_hits("core.solve", hits + 1, 5000));
  const std::uint64_t frames = server.wire_stats().frames_received;
  std::future<SolveClient::RawReply> queued =
      client.submit_batch_raw(handle.value(), b_queued, 1);
  for (int i = 0; i < 500 && server.wire_stats().frames_received == frames;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(server.wire_stats().frames_received, frames);

  // The drain half-closes the read side while the inline solve still
  // runs: the connection must stay up until both replies are written.
  server.stop();
  support::failpoint_clear_all();
  const auto x_inline = inline_solve.get();
  ASSERT_TRUE(x_inline.ok()) << x_inline.message();
  EXPECT_EQ(x_inline.value(), want_inline);
  SolveClient::RawReply raw = queued.get();
  ASSERT_TRUE(raw.ok()) << raw.message();
  const auto x_queued = net::decode_solve_reply(std::move(raw.value()));
  ASSERT_TRUE(x_queued.ok()) << x_queued.message();
  EXPECT_EQ(x_queued.value(), want_queued);
}

TEST(NetThreading, IdleClientReconnectsToARestartedServerOrFailsTyped) {
  auto server = std::make_unique<SolveServer>();
  ASSERT_TRUE(server->start().ok());
  const std::uint16_t port = server->port();
  const sparse::CscMatrix l = net_matrix(83);
  const std::vector<value_t> b = rhs_for(l, 1);

  net::ClientOptions copt;
  copt.port = port;
  copt.retry.max_attempts = 1;  // no retry tier: connect() alone heals
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();
  const auto first = client.solve(handle.value(), b);
  ASSERT_TRUE(first.ok()) << first.message();
  const net::ClientMetrics m0 = client.metrics_local();

  // Nobody reads an idle connection, so connected() has not seen the
  // server go away.
  server->stop();
  server.reset();
  EXPECT_TRUE(client.connected());

  // A server restarted on the same port: the next request's connect()
  // finds the old connection closed before sending on it, reconnects and
  // replays the open, and the one attempt is answered.
  net::ServerOptions sopt;
  sopt.port = port;
  server = std::make_unique<SolveServer>(sopt);
  ASSERT_TRUE(server->start().ok());
  const auto healed = client.solve(handle.value(), b);
  ASSERT_TRUE(healed.ok()) << healed.message();
  EXPECT_EQ(healed.value(), first.value());
  const net::ClientMetrics m1 = client.metrics_local();
  EXPECT_EQ(m1.attempts - m0.attempts, 1u);
  EXPECT_EQ(m1.retries - m0.retries, 0u);
  EXPECT_EQ(m1.reconnects - m0.reconnects, 1u);
  EXPECT_TRUE(client.connected());

  // The same for a ping, which the router's health probe sends.
  server->stop();
  server.reset();
  server = std::make_unique<SolveServer>(sopt);
  ASSERT_TRUE(server->start().ok());
  const auto pong = client.ping(std::chrono::milliseconds(1000));
  EXPECT_TRUE(pong.ok()) << pong.message();
  EXPECT_EQ(client.metrics_local().reconnects - m1.reconnects, 1u);

  // No server at all: a typed transport failure, never a hang.
  server->stop();
  server.reset();
  EXPECT_TRUE(client.connected());
  auto lost = std::async(std::launch::async,
                         [&] { return client.solve(handle.value(), b); });
  ASSERT_EQ(lost.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const auto x = lost.get();
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status(), SolveStatus::kNetworkError);
  EXPECT_FALSE(client.connected());
}

TEST(NetThreading, CallersSharingOneClientAllReconnectAfterARestart) {
  auto server = std::make_unique<SolveServer>();
  ASSERT_TRUE(server->start().ok());
  const std::uint16_t port = server->port();
  const sparse::CscMatrix l = net_matrix(97);
  const std::vector<value_t> b = rhs_for(l, 1);
  const auto direct = server->service().plan_for(l, "cpu-levelset");
  ASSERT_TRUE(direct.ok());
  const std::vector<value_t> want = direct->solve(b).value().x;

  net::ClientOptions copt;
  copt.port = port;
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();
  ASSERT_TRUE(client.solve(handle.value(), b).ok());

  // Each round restarts the server while the client is idle, then lets
  // every caller's first solve race to reconnect: one replaces the
  // socket and replays the open. The others must not send before that
  // replay is answered (the new server would not know the plan id yet),
  // and must return from connect() whichever thread is reading by then.
  net::ServerOptions sopt;
  sopt.port = port;
  constexpr int kRestarts = 10;
  constexpr int kCallers = 6;
  constexpr int kSolves = 3;
  for (int round = 0; round < kRestarts; ++round) {
    server->stop();
    server.reset();
    server = std::make_unique<SolveServer>(sopt);
    ASSERT_TRUE(server->start().ok());
    std::atomic<bool> go{false};
    std::vector<std::future<std::string>> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.push_back(std::async(std::launch::async, [&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kSolves; ++i) {
          const auto x = client.solve(handle.value(), b);
          if (!x.ok()) return x.message();
          if (x.value() != want) return std::string("wrong bits");
        }
        return std::string();
      }));
    }
    go.store(true, std::memory_order_release);
    bool hung = false;
    for (auto& caller : callers) {
      if (caller.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        // A caller waiting for a wake-up that never came: a pipelined
        // request wakes every waiter, so the test ends with a failure.
        hung = true;
        (void)client.submit_batch_raw(handle.value(), b, 1);
        caller.wait();
      }
    }
    EXPECT_FALSE(hung) << "round " << round;
    for (auto& caller : callers) {
      EXPECT_EQ(caller.get(), "") << "round " << round;
    }
    if (hung) break;
  }
  EXPECT_EQ(client.metrics_local().retries, 0u);
  server->stop();
}

TEST(NetThreading, PipelinedSubmitsAfterAnIdleRestartReconnectAndUseNewIds) {
  // Pipelined submits go through connect() like every other request: on
  // an idle connection whose server restarted they reconnect (replaying
  // the opens), and while another caller's replay runs they wait for it,
  // so they never send a plan id the new server has not assigned. A
  // second client opens first on the first server, so this client's ids
  // there are not the ones the restarted server assigns to the replay.
  auto server = std::make_unique<SolveServer>();
  ASSERT_TRUE(server->start().ok());
  const std::uint16_t port = server->port();
  net::ClientOptions copt;
  copt.port = port;
  {
    SolveClient other(copt);
    ASSERT_TRUE(other.open(net_matrix(71, 300), "serial").ok());
  }
  SolveClient client(copt);
  constexpr int kPlans = 4;
  std::vector<net::PlanHandle> handles;
  std::vector<std::vector<value_t>> b, want;
  for (int p = 0; p < kPlans; ++p) {
    const sparse::CscMatrix l = net_matrix(110 + p, 1500);
    const auto h = client.open(l, "cpu-levelset");
    ASSERT_TRUE(h.ok()) << h.message();
    handles.push_back(h.value());
    b.push_back(rhs_for(l, 5 + p));
    const auto x = client.solve(h.value(), b.back());
    ASSERT_TRUE(x.ok()) << x.message();
    want.push_back(x.value());
  }

  net::ServerOptions sopt;
  sopt.port = port;
  for (int round = 0; round < 4; ++round) {
    server->stop();
    server.reset();
    server = std::make_unique<SolveServer>(sopt);
    ASSERT_TRUE(server->start().ok());
    // Alone: the first pipelined submit notices the restart itself.
    {
      const auto x = decode_solve_reply_or_error(
          client.submit_batch_raw(handles[kPlans - 1], b[kPlans - 1], 1).get());
      ASSERT_TRUE(x.ok()) << "round " << round << ": " << x.message();
      EXPECT_EQ(x.value(), want[kPlans - 1]);
    }
    server->stop();
    server.reset();
    server = std::make_unique<SolveServer>(sopt);
    ASSERT_TRUE(server->start().ok());
    // Racing a synchronous caller's reconnect and replay.
    std::atomic<bool> go{false};
    auto sync = std::async(std::launch::async, [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      return client.solve(handles[0], b[0]);
    });
    std::vector<std::future<std::string>> piped;
    for (int t = 0; t < 2; ++t) {
      piped.push_back(std::async(std::launch::async, [&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < 20; ++i) {
          const int p = (t + i) % kPlans;
          const auto x = decode_solve_reply_or_error(
              client.submit_batch_raw(handles[p], b[p], 1).get());
          if (x.ok()) {
            if (x.value() != want[p]) return std::string("wrong bits");
          } else if (x.status() != SolveStatus::kNetworkError &&
                     x.status() != SolveStatus::kOverloaded) {
            return x.message();
          }
        }
        return std::string();
      }));
    }
    go.store(true, std::memory_order_release);
    const auto x = sync.get();
    ASSERT_TRUE(x.ok()) << "round " << round << ": " << x.message();
    EXPECT_EQ(x.value(), want[0]);
    for (auto& f : piped) EXPECT_EQ(f.get(), "") << "round " << round;
  }
  server->stop();
}

// ---- router / fleet --------------------------------------------------------

TEST(NetRouter, PlansGetAHomeShardAndBothShardsTakeTraffic) {
  SolveServer s0, s1;
  ASSERT_TRUE(s0.start().ok());
  ASSERT_TRUE(s1.start().ok());

  net::RouterOptions ropt;
  ropt.endpoints = {{"127.0.0.1", s0.port()}, {"127.0.0.1", s1.port()}};
  net::Router router(ropt);
  ASSERT_EQ(router.shard_count(), 2u);

  // Pick factor seeds whose homes COVER both shards. shard_of is pure, so
  // the mixed workload can be chosen by construction instead of hoping a
  // fixed seed set happens to split (ephemeral ports reseed the hash every
  // run).
  std::vector<std::uint64_t> seeds = {100, 101, 102, 103};
  std::set<std::size_t> covered;
  for (const std::uint64_t seed : seeds) {
    covered.insert(
        router.shard_of(sparse::hash_csc(net_matrix(seed, 300)).pattern));
  }
  for (std::uint64_t seed = 104; covered.size() < 2 && seed < 200; ++seed) {
    const std::size_t home =
        router.shard_of(sparse::hash_csc(net_matrix(seed, 300)).pattern);
    if (!covered.count(home)) {
      covered.insert(home);
      seeds.push_back(seed);
    }
  }
  ASSERT_EQ(covered.size(), 2u) << "96 factors all hashed to one shard";

  std::set<std::size_t> shards_used;
  for (const std::uint64_t seed : seeds) {
    const sparse::CscMatrix l = net_matrix(seed, 300);
    const auto routed = router.open(l, "cpu-levelset");
    ASSERT_TRUE(routed.ok()) << routed.message();
    EXPECT_EQ(routed.value().shard,
              router.shard_of(sparse::hash_csc(l).pattern));
    shards_used.insert(routed.value().shard);

    const std::vector<value_t> b = rhs_for(l, 1);
    const auto x = router.solve(routed.value(), b);
    ASSERT_TRUE(x.ok());
    // Bit-for-bit against a direct plan on the HOME shard's service.
    SolveServer& home = routed.value().shard == 0 ? s0 : s1;
    const auto direct = home.service().plan_for(l, "cpu-levelset");
    EXPECT_EQ(x.value(), direct->solve(b).value().x);
  }
  EXPECT_EQ(shards_used.size(), 2u);

  // Every plan lives on exactly ONE process.
  const WireStats w0 = s0.wire_stats();
  const WireStats w1 = s1.wire_stats();
  EXPECT_EQ(w0.plans_open + w1.plans_open, seeds.size());
  EXPECT_GT(w0.completed, 0u);
  EXPECT_GT(w1.completed, 0u);

  // Fleet stats merge: counters add across shards, histograms combine.
  std::size_t reachable = 0;
  const auto fleet = router.fleet_stats(&reachable);
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(reachable, 2u);
  EXPECT_EQ(fleet.value().completed, w0.completed + w1.completed);
  EXPECT_EQ(fleet.value().latency.count,
            w0.latency.count + w1.latency.count);

  const auto fleet_text = router.fleet_metrics();
  ASSERT_TRUE(fleet_text.ok());
  EXPECT_NE(fleet_text.value().find("instance=\"fleet\""),
            std::string::npos);

  const auto drained = router.drain_all();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.value(), w0.completed + w1.completed);

  s0.stop();
  s1.stop();
}

TEST(NetRouter, RendezvousIsStableAndBalancedEnough) {
  net::RouterOptions ropt;
  ropt.endpoints = {{"127.0.0.1", 1111}, {"127.0.0.1", 2222},
                    {"127.0.0.1", 3333}};
  // No live servers needed: shard_of is pure.
  net::Router router(ropt);
  std::array<int, 3> histogram{};
  for (std::uint64_t h = 0; h < 3000; ++h) {
    const std::size_t s = router.shard_of(h * 0x9E3779B97F4A7C15ULL);
    ASSERT_LT(s, 3u);
    EXPECT_EQ(s, router.shard_of(h * 0x9E3779B97F4A7C15ULL));  // stable
    ++histogram[s];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 700);  // ~1000 each; grossly unbalanced = broken mix
    EXPECT_LT(count, 1300);
  }
}

}  // namespace
}  // namespace msptrsv
