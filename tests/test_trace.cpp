// End-to-end solve tracing (ISSUE 9), tested at four layers:
//
//  * UNIT: trace ids round-trip their hex form; spans nest under the
//    thread context and collect as Chrome trace-event JSON; a disarmed
//    process records nothing; the explicit slow threshold retains trees.
//  * DETERMINISM: solves are bit-for-bit identical with tracing armed,
//    disarmed, or never touched -- the tracing layer only reads clocks
//    and writes thread-local memory, and this pins it.
//  * STATS: the per-phase histograms absorb concurrent writers exactly
//    (lock-free recording, mergeable snapshots).
//  * WIRE + STITCHING: the trace id rides the solve frame as an optional
//    tail (legacy frames stay byte-identical), a real loopback server
//    yields one stitched span tree -- wire rx, queue wait, gang claim,
//    per-level kernel spans, reply flush -- under the client's id, the
//    id survives injected-overload retries, and a two-shard router
//    failover still answers with the id visible in fleet_trace().
//
// Every test that arms tracing disarms and clears on the way out so the
// rings never leak across tests (the suite shares one process).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "core/worker_pool.hpp"
#include "net/client.hpp"
#include "net/metrics.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "service/service_stats.hpp"
#include "support/trace.hpp"

namespace msptrsv {
namespace {

namespace trace = support::trace;
using core::SolveStatus;
using net::SolveClient;
using net::SolveServer;

sparse::CscMatrix trace_matrix(std::uint64_t seed, index_t n = 400) {
  return sparse::gen_layered_dag(n, 14, 6 * n, 0.5, seed);
}

std::vector<value_t> rhs_for(const sparse::CscMatrix& l, std::uint64_t seed) {
  return sparse::gen_rhs_for_solution(l, sparse::gen_solution(l.rows, seed));
}

/// Arms tracing for one test body and guarantees the disarm + ring clear
/// on every exit path (ASSERT failures included).
struct ArmedTracing {
  ArmedTracing() {
    trace::trace_clear();
    trace::trace_set_enabled(true);
  }
  ~ArmedTracing() {
    trace::trace_set_enabled(false);
    trace::trace_set_slow_threshold_us(0);
    trace::trace_clear();
  }
};

/// The blob image of an encoded frame (the wire bytes minus the u32
/// length prefix) -- what peek_frame consumes.
std::vector<std::uint8_t> blob_of(const std::vector<std::uint8_t>& wire) {
  return {wire.begin() + 4, wire.end()};
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ---- trace ids -------------------------------------------------------------

TEST(TraceId, HexRoundTripsAndMalformedInputIsRejected) {
  const trace::TraceId id = trace::make_trace_id();
  EXPECT_TRUE(trace::trace_id_set(id));
  const std::string hex = trace::trace_id_hex(id);
  ASSERT_EQ(hex.size(), 32u);
  trace::TraceId back{};
  ASSERT_TRUE(trace::trace_id_parse(hex, &back));
  EXPECT_EQ(back, id);

  trace::TraceId scratch{};
  EXPECT_FALSE(trace::trace_id_parse("", &scratch));
  EXPECT_FALSE(trace::trace_id_parse("abc", &scratch));
  EXPECT_FALSE(trace::trace_id_parse(std::string(32, 'g'), &scratch));
  EXPECT_FALSE(trace::trace_id_parse(hex + "00", &scratch));

  // Fresh ids are distinct (the counter guarantees it within a process).
  EXPECT_NE(trace::make_trace_id(), trace::make_trace_id());
}

// ---- spans + collection ----------------------------------------------------

TEST(TraceSpans, NestedSpansCollectAsChromeTraceJsonUnderTheContextId) {
  if (!trace::trace_compiled()) GTEST_SKIP() << "MSPTRSV_TRACE=OFF build";
  ArmedTracing armed;
  const trace::TraceId id = trace::make_trace_id();
  {
    trace::ScopedTraceContext ctx(id);
    trace::TraceSpan outer("test.outer", "work", 3);
    ASSERT_TRUE(outer.active());
    {
      trace::TraceSpan inner("test.inner");
      ASSERT_TRUE(inner.active());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const std::string json = trace::trace_collect_json(id);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find(trace::trace_id_hex(id)), std::string::npos);
  EXPECT_NE(json.find("\"work\":3"), std::string::npos);

  // A filter for a DIFFERENT id excludes this tree.
  const std::string other =
      trace::trace_collect_json(trace::make_trace_id());
  EXPECT_EQ(other.find("\"test.outer\""), std::string::npos);
}

TEST(TraceSpans, DisarmedProcessRecordsNothingAndSpansAreInactive) {
  trace::trace_clear();
  trace::trace_set_enabled(false);
  const std::size_t before = trace::trace_event_count();
  {
    trace::TraceSpan span("test.disarmed");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.span_id(), 0u);
  }
  trace::trace_emit_here("test.disarmed_emit", 1, 2);
  EXPECT_EQ(trace::trace_event_count(), before);
}

TEST(TraceSpans, ExplicitSlowThresholdRetainsTheSpanTree) {
  if (!trace::trace_compiled()) GTEST_SKIP() << "MSPTRSV_TRACE=OFF build";
  ArmedTracing armed;
  trace::trace_set_slow_threshold_us(10.0);
  const trace::TraceId fast_id = trace::make_trace_id();
  const trace::TraceId slow_id = trace::make_trace_id();
  {
    trace::ScopedTraceContext ctx(fast_id);
    trace::TraceSpan span("test.fast");
  }
  trace::trace_note_completion(fast_id, 1.0);  // under threshold
  EXPECT_EQ(trace::trace_slow_count(), 0u);
  {
    trace::ScopedTraceContext ctx(slow_id);
    trace::TraceSpan span("test.slow");
  }
  trace::trace_note_completion(slow_id, 50.0);  // over: sampled
  ASSERT_EQ(trace::trace_slow_count(), 1u);
  const std::string slow = trace::trace_slow_json();
  EXPECT_NE(slow.find("\"test.slow\""), std::string::npos);
  EXPECT_EQ(slow.find("\"test.fast\""), std::string::npos);
}

// ---- determinism -----------------------------------------------------------

TEST(TraceDeterminism, SolvesAreBitForBitIdenticalTracingOnOrOff) {
  const sparse::CscMatrix l = trace_matrix(7);
  const std::vector<value_t> b = rhs_for(l, 1);
  for (const char* key : {"serial", "cpu-levelset"}) {
    const auto plan =
        core::SolverPlan::analyze(l, core::registry::options_for(key).value());
    ASSERT_TRUE(plan.ok()) << plan.message();

    trace::trace_set_enabled(false);
    const std::vector<value_t> off = plan->solve(b).value().x;
    std::vector<value_t> on;
    {
      ArmedTracing armed;
      trace::ScopedTraceContext ctx(trace::make_trace_id());
      on = plan->solve(b).value().x;
    }
    EXPECT_EQ(on, off) << key;  // exact, not approximate
  }
}

// ---- per-phase histograms under concurrency --------------------------------

TEST(TracePhases, ConcurrentPhaseWritersAreAbsorbedExactly) {
  service::ServiceStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&stats] {
      trace::PhaseBreakdown phases;
      phases.queue_us = 100.0;
      phases.coalesce_us = 50.0;
      phases.claim_us = 10.0;
      phases.pack_us = 20.0;
      phases.kernel_us = 400.0;
      phases.unpack_us = 20.0;
      for (int i = 0; i < kPerThread; ++i) {
        stats.on_phases(phases);
        stats.on_reply_phase(30.0);
      }
    });
  }
  for (std::thread& w : writers) w.join();

  const service::ServiceStatsSnapshot snap = stats.snapshot();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  for (std::size_t p = 0; p < trace::kNumPhases; ++p) {
    EXPECT_EQ(snap.phase_hist[p].count, kTotal)
        << trace::kPhaseNames[p];
  }
  // Exact sums: every recorded value is an integer number of us.
  EXPECT_EQ(snap.phase_hist[0].sum_us, kTotal * 100);  // queue
  EXPECT_EQ(snap.phase_hist[4].sum_us, kTotal * 400);  // kernel
  EXPECT_EQ(snap.phase_hist[6].sum_us, kTotal * 30);   // reply
  // Quantiles land in the right decade (HDR buckets are ~3% wide).
  EXPECT_NEAR(snap.phase_hist[4].quantile(0.5), 400.0, 400.0 * 0.1);
}

// ---- wire format -----------------------------------------------------------

TEST(TraceWire, SolveFrameTraceIdIsAnOptionalBackwardCompatibleTail) {
  net::SolveFrame frame;
  frame.request_id = 9;
  frame.plan_id = 4;
  frame.num_rhs = 1;
  frame.rhs = {1.0, 2.0, 3.0};

  const auto legacy = blob_of(net::encode_solve(frame));
  frame.trace_id = trace::make_trace_id();
  const auto traced = blob_of(net::encode_solve(frame));
  // The tail costs exactly the id; an untraced frame is byte-identical
  // to the pre-trace grammar.
  EXPECT_EQ(traced.size(), legacy.size() + sizeof(trace::TraceId));

  auto head = net::peek_frame(traced);
  ASSERT_TRUE(head.ok());
  const auto decoded = net::decode_solve(head.value());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded.value().trace_id, frame.trace_id);
  EXPECT_EQ(decoded.value().rhs, frame.rhs);

  auto lhead = net::peek_frame(legacy);
  ASSERT_TRUE(lhead.ok());
  const auto undecorated = net::decode_solve(lhead.value());
  ASSERT_TRUE(undecorated.ok()) << undecorated.message();
  EXPECT_FALSE(trace::trace_id_set(undecorated.value().trace_id));
}

TEST(TraceWire, SolveOkPhasesTailRoundTripsAndLegacyDecodesWithout) {
  net::SolveOkFrame ok;
  ok.request_id = 3;
  ok.server_us = 1234.0;
  ok.x = {4.0, 5.0};
  const auto legacy = blob_of(net::encode_solve_ok(ok));
  ok.has_phases = true;
  ok.phases.queue_us = 10.0;
  ok.phases.kernel_us = 200.0;
  ok.phases.reply_us = 5.0;
  const auto with = blob_of(net::encode_solve_ok(ok));
  EXPECT_EQ(with.size(), legacy.size() + trace::kNumPhases * sizeof(double));

  auto head = net::peek_frame(with);
  ASSERT_TRUE(head.ok());
  const auto decoded = net::decode_solve_ok(head.value());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  ASSERT_TRUE(decoded.value().has_phases);
  EXPECT_EQ(decoded.value().phases.queue_us, 10.0);
  EXPECT_EQ(decoded.value().phases.kernel_us, 200.0);
  EXPECT_EQ(decoded.value().phases.reply_us, 5.0);

  auto lhead = net::peek_frame(legacy);
  ASSERT_TRUE(lhead.ok());
  const auto old = net::decode_solve_ok(lhead.value());
  ASSERT_TRUE(old.ok());
  EXPECT_FALSE(old.value().has_phases);
}

TEST(TraceWire, TraceDumpFrameRoundTripsAndBadFilterIsTyped) {
  net::TraceDumpFrame dump;
  dump.request_id = 11;
  dump.filter = trace::trace_id_hex(trace::make_trace_id());
  dump.include_slow = false;
  const auto dump_blob = blob_of(net::encode_trace_dump(dump));
  auto head = net::peek_frame(dump_blob);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().type, net::FrameType::kTraceDump);
  const auto decoded = net::decode_trace_dump(head.value());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded.value().filter, dump.filter);
  EXPECT_FALSE(decoded.value().include_slow);

  net::TraceDumpFrame bad;
  bad.request_id = 12;
  bad.filter = "not-a-trace-id";
  const auto bad_blob = blob_of(net::encode_trace_dump(bad));
  auto bad_head = net::peek_frame(bad_blob);
  ASSERT_TRUE(bad_head.ok());
  const auto rejected = net::decode_trace_dump(bad_head.value());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status(), SolveStatus::kProtocolError);

  net::TraceDumpOkFrame reply;
  reply.request_id = 11;
  reply.json = "{\"traceEvents\":[]}";
  reply.slow_json = "{\"traceEvents\":[]}";
  const auto reply_blob = blob_of(net::encode_trace_dump_ok(reply));
  auto rhead = net::peek_frame(reply_blob);
  ASSERT_TRUE(rhead.ok());
  const auto rdec = net::decode_trace_dump_ok(rhead.value());
  ASSERT_TRUE(rdec.ok());
  EXPECT_EQ(rdec.value().json, reply.json);
  EXPECT_EQ(rdec.value().slow_json, reply.slow_json);
}

// ---- prometheus rendering --------------------------------------------------

TEST(TraceMetrics, PrometheusRendersCacheCountersAndPhaseSeries) {
  net::WireStats s;
  s.cache_hits = 7;
  s.cache_misses = 3;
  s.cache_evictions = 1;
  s.cache_disk_hits = 2;
  service::LatencyHistogram kernel_hist;
  kernel_hist.record(250.0);
  kernel_hist.record(300.0);
  s.phases[4] = kernel_hist.snapshot();  // "kernel"

  const std::string text = net::render_prometheus(s, "test");
  EXPECT_NE(text.find("msptrsv_plan_cache_hits_total{instance=\"test\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("msptrsv_plan_cache_misses_total{instance=\"test\"} 3"),
            std::string::npos);
  EXPECT_NE(
      text.find("msptrsv_plan_cache_disk_hits_total{instance=\"test\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("msptrsv_solve_phase_seconds_count{instance=\"test\","
                      "phase=\"kernel\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("phase=\"kernel\",quantile=\"0.5\""),
            std::string::npos);
  // Every phase appears even when empty (dashboards can rely on the set).
  for (const char* name : trace::kPhaseNames) {
    EXPECT_NE(text.find("phase=\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
}

// ---- end-to-end: wire -> queue -> gang claim -> kernel -> reply ------------

TEST(TraceEndToEnd, ClientTraceIdYieldsOneStitchedServerSpanTree) {
  if (!trace::trace_compiled()) GTEST_SKIP() << "MSPTRSV_TRACE=OFF build";
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = trace_matrix(31);
  const std::vector<value_t> b = rhs_for(l, 2);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  // cpu-levelset so the kernel emits PER-LEVEL spans (the acceptance
  // shape: wire -> queue -> claim -> >=1 kernel.level -> reply).
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  ArmedTracing armed;
  trace::trace_set_slow_threshold_us(0.001);  // retain every completion
  const trace::TraceId id = trace::make_trace_id();
  {
    trace::ScopedTraceContext ctx(id);
    const auto x = client.solve(handle.value(), b);
    ASSERT_TRUE(x.ok()) << x.message();
  }

  const auto dump = client.trace_dump(trace::trace_id_hex(id));
  ASSERT_TRUE(dump.ok()) << dump.message();
  const std::string& json = dump.value().json;
  // Valid Chrome trace-event envelope, filtered to exactly this request.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  const std::string hex = trace::trace_id_hex(id);
  // One span per layer, all stitched by the SAME trace id. The gang
  // claim only happens when the shared pool HAS claimable workers -- on
  // a single-core host run_parallel takes the solo fast path (no claim,
  // by design), so pool.claim is required only where it can exist.
  std::vector<std::string> required = {
      "client.solve",     "net.rx",       "service.queue",
      "service.coalesce", "service.execute", "kernel.level",
      "net.reply"};
  if (core::SharedWorkerPool::instance().threads() > 1) {
    required.push_back("pool.claim");
  }
  for (const std::string& span : required) {
    EXPECT_NE(json.find("\"" + span + "\""), std::string::npos) << span;
  }
  const std::size_t events = count_occurrences(json, "\"name\":");
  EXPECT_EQ(count_occurrences(json, hex), events)
      << "every filtered event carries the request's trace id";
  EXPECT_GE(count_occurrences(json, "\"kernel.level\""), 1u);

  // The slow sampler (threshold ~0) retained the tree too.
  EXPECT_GE(trace::trace_slow_count(), 1u);
  EXPECT_NE(dump.value().slow_json.find(hex), std::string::npos);

  // Phase attribution reached the histograms and the Prometheus text.
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().phases[4].count, 1u);  // kernel
  EXPECT_GE(stats.value().phases[6].count, 1u);  // reply
  const auto metrics = client.metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("msptrsv_solve_phase_seconds"),
            std::string::npos);
  server.stop();
}

TEST(TraceEndToEnd, SolvesAreBitForBitOverTheWireTracingOnOrOff) {
  SolveServer server;
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = trace_matrix(37);
  const std::vector<value_t> b = rhs_for(l, 3);

  net::ClientOptions copt;
  copt.port = server.port();
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok()) << handle.message();

  trace::trace_set_enabled(false);
  const auto off = client.solve(handle.value(), b);
  ASSERT_TRUE(off.ok());
  std::vector<value_t> on;
  {
    ArmedTracing armed;
    trace::ScopedTraceContext ctx(trace::make_trace_id());
    const auto traced = client.solve(handle.value(), b);
    ASSERT_TRUE(traced.ok());
    on = traced.value();
  }
  EXPECT_EQ(on, off.value());
  server.stop();
}

TEST(TraceEndToEnd, TraceIdSurvivesInjectedOverloadRetries) {
  if (!trace::trace_compiled()) GTEST_SKIP() << "MSPTRSV_TRACE=OFF build";
  net::ServerOptions sopt;
  sopt.inject_status = SolveStatus::kOverloaded;
  sopt.inject_count = 2;
  SolveServer server(sopt);
  ASSERT_TRUE(server.start().ok());
  const sparse::CscMatrix l = trace_matrix(41);
  const std::vector<value_t> b = rhs_for(l, 4);

  net::ClientOptions copt;
  copt.port = server.port();
  copt.retry.max_attempts = 4;
  copt.retry.initial_backoff = std::chrono::microseconds(100);
  SolveClient client(copt);
  const auto handle = client.open(l, "cpu-levelset");
  ASSERT_TRUE(handle.ok());

  ArmedTracing armed;
  const trace::TraceId id = trace::make_trace_id();
  {
    trace::ScopedTraceContext ctx(id);
    const auto x = client.solve(handle.value(), b);
    ASSERT_TRUE(x.ok()) << x.message();
  }
  EXPECT_EQ(client.metrics_local().retries, 2u);

  // Every attempt -- the two rejected ones and the served one -- arrived
  // under the SAME id: the server saw it on each rx.
  const auto dump = client.trace_dump(trace::trace_id_hex(id));
  ASSERT_TRUE(dump.ok()) << dump.message();
  EXPECT_GE(count_occurrences(dump.value().json, "\"net.rx\""), 1u);
  EXPECT_GE(count_occurrences(dump.value().json, "\"kernel."), 1u);
  server.stop();
}

// ---- fleet: probe RTT + stitched cross-shard traces ------------------------

TEST(TraceFleet, ProbeRttGaugeAndFleetTraceStitchAcrossFailover) {
  if (!trace::trace_compiled()) GTEST_SKIP() << "MSPTRSV_TRACE=OFF build";
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("msptrsv_trace_fleet_" +
        std::to_string(
            std::chrono::steady_clock::now().time_since_epoch().count())))
          .string();
  std::filesystem::create_directories(dir);

  net::ServerOptions sopt;
  sopt.service.cache_dir = dir;  // the fleet-shared warm tier
  SolveServer s0(sopt), s1(sopt);
  ASSERT_TRUE(s0.start().ok());
  ASSERT_TRUE(s1.start().ok());
  SolveServer* servers[2] = {&s0, &s1};

  net::RouterOptions ropt;
  ropt.endpoints = {{"127.0.0.1", s0.port()}, {"127.0.0.1", s1.port()}};
  ropt.breaker_failure_threshold = 1;
  ropt.breaker_cooldown = std::chrono::minutes(10);
  ropt.client.retry.max_attempts = 2;
  ropt.client.retry.initial_backoff = std::chrono::microseconds(500);
  ropt.client.retry.max_backoff = std::chrono::microseconds(2000);
  net::Router router(ropt);

  // Probe RTT: measured by probe_now, reported per shard, rendered as a
  // gauge in the fleet scrape.
  ASSERT_EQ(router.probe_now(), 2u);
  for (const net::ShardStatus& st : router.fleet_status()) {
    EXPECT_GT(st.probe_rtt_us, 0.0);
  }
  {
    const auto metrics = router.fleet_metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.message();
    EXPECT_EQ(count_occurrences(metrics.value(), "msptrsv_shard_probe_rtt_us{"),
              2u);
  }

  const sparse::CscMatrix l = trace_matrix(53);
  const std::vector<value_t> b = rhs_for(l, 5);
  const auto h = router.open(l, "cpu-levelset");
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;
  const std::size_t backup = 1 - home;

  ArmedTracing armed;
  // Baseline traced solve on the home shard, then kill it and solve
  // again: failover re-homes via the shared blob dir, and the SECOND id
  // must surface from the backup in the stitched fleet trace.
  const trace::TraceId before_id = trace::make_trace_id();
  {
    trace::ScopedTraceContext ctx(before_id);
    const auto r = router.solve(h.value(), b);
    ASSERT_TRUE(r.ok()) << r.message();
  }
  servers[home]->stop();
  const trace::TraceId failover_id = trace::make_trace_id();
  std::vector<value_t> failed_over;
  {
    trace::ScopedTraceContext ctx(failover_id);
    const auto r = router.solve(h.value(), b);
    ASSERT_TRUE(r.ok()) << r.message();
    failed_over = r.value();
  }
  EXPECT_GE(router.shard_client(backup).metrics_local().failovers, 1u);

  std::size_t reachable = 0;
  const auto fleet =
      router.fleet_trace(trace::trace_id_hex(failover_id), &reachable);
  ASSERT_TRUE(fleet.ok()) << fleet.message();
  EXPECT_EQ(reachable, 1u);  // the home shard is dark, reported as such
  EXPECT_EQ(fleet.value().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(fleet.value().find(trace::trace_id_hex(failover_id)),
            std::string::npos);
  EXPECT_NE(fleet.value().find("\"net.rx\""), std::string::npos);
  // Events live on the answering shard's own pid lane (shard index + 1).
  EXPECT_NE(fleet.value().find("\"pid\":" + std::to_string(backup + 1)),
            std::string::npos);

  // Unfiltered fleet trace still answers and carries the earlier id only
  // if the backup saw it (it did not) -- the filter semantics hold.
  const auto full = router.fleet_trace();
  ASSERT_TRUE(full.ok());

  servers[backup]->stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace msptrsv
