// Chaos suite: REAL forked solve_serverd processes driven through
// kill / hang / slow-disk / corrupt-frame scripts, every fault injected
// at a named failpoint seam (support/failpoint.hpp) -- armed locally for
// client-side faults, over the wire (--enable-failpoints) for
// server-side ones.
//
// The contract under test is the self-healing story end to end:
//  * ZERO LOST ADMITTED REQUESTS -- every request either returns correct
//    bits or a TYPED error; nothing hangs, nothing vanishes;
//  * the router's breaker walks closed -> open -> half-open -> closed,
//    failover re-homes plans via the shared blob directory, and the
//    fleet view reports a dark shard EXPLICITLY;
//  * fault timing is failpoint- or probe-driven, never a wall-clock
//    race: a dead process is dead, a parked thread is parked until
//    released, and recovery is triggered by an explicit probe_now().
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "net/router.hpp"
#include "support/blob.hpp"
#include "support/failpoint.hpp"

namespace msptrsv {
namespace {

namespace fs = std::filesystem;
using core::SolveStatus;

constexpr const char* kServerd = "./solve_serverd";
constexpr const char* kBackend = "cpu-levelset";

struct ShardProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// A factor plus the reference bits the fleet must reproduce exactly --
/// computed locally with the SERVICE preset for the backend, which is
/// what every shard's plan_for() resolves the key to.
struct Problem {
  sparse::CscMatrix l;
  std::vector<value_t> b;
  std::vector<value_t> want;
};

Problem make_problem(std::uint64_t seed, index_t n = 500) {
  Problem p;
  p.l = sparse::gen_layered_dag(n, 14, 6 * n, 0.5, seed);
  p.b = sparse::gen_rhs_for_solution(p.l, sparse::gen_solution(n, seed + 1));
  const auto options = core::registry::service_options(kBackend);
  const auto plan = core::SolverPlan::analyze(p.l, options.value());
  p.want = plan.value().solve(p.b).value().x;
  return p;
}

class ChaosFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!support::failpoints_compiled()) {
      GTEST_SKIP() << "built with MSPTRSV_FAILPOINTS=OFF";
    }
    if (!fs::exists(kServerd)) {
      GTEST_SKIP() << "solve_serverd not next to the test binary";
    }
    support::failpoint_clear_all();
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "chaos_" + info->name() + "_" +
           std::to_string(static_cast<unsigned>(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    shards_.resize(2);
    ASSERT_TRUE(spawn(0));
    ASSERT_TRUE(spawn(1));
  }

  void TearDown() override {
    support::failpoint_clear_all();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].pid > 0) reap(s, /*graceful=*/true);
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// fork/execs shard `slot` (--enable-failpoints, shared --cache-dir);
  /// fixed_port != 0 restarts it on a known port. Readiness is the
  /// atomically renamed port file, not a sleep.
  bool spawn(std::size_t slot, std::uint16_t fixed_port = 0) {
    const std::string port_file =
        dir_ + "/port_" + std::to_string(slot);
    fs::remove(port_file);
    const std::string port_arg =
        "--port=" + std::to_string(static_cast<unsigned>(fixed_port));
    const std::string file_arg = "--port-file=" + port_file;
    const std::string cache_arg = "--cache-dir=" + dir_;

    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      execl(kServerd, kServerd, port_arg.c_str(), file_arg.c_str(),
            "--threads=2", cache_arg.c_str(), "--max-pending=1024",
            "--enable-failpoints=true", static_cast<const char*>(nullptr));
      _exit(127);
    }
    for (int tries = 0; tries < 750; ++tries) {
      std::vector<std::uint8_t> bytes;
      if (support::read_file(port_file, bytes) && !bytes.empty()) {
        shards_[slot].pid = pid;
        shards_[slot].port = static_cast<std::uint16_t>(
            std::atoi(std::string(bytes.begin(), bytes.end()).c_str()));
        return shards_[slot].port != 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return false;
  }

  /// SIGKILL + reap: the "process vanished" fault. Deterministic -- after
  /// this returns, the port refuses connections outright.
  void kill_now(std::size_t slot) {
    ASSERT_GT(shards_[slot].pid, 0);
    kill(shards_[slot].pid, SIGKILL);
    waitpid(shards_[slot].pid, nullptr, 0);
    shards_[slot].pid = -1;
  }

  /// Reaps a child that exited on its own (crash-failpoint scripts).
  void reap_exited(std::size_t slot) {
    ASSERT_GT(shards_[slot].pid, 0);
    waitpid(shards_[slot].pid, nullptr, 0);
    shards_[slot].pid = -1;
  }

  /// SIGTERM + reap with a bounded wait; true iff the daemon DRAINED and
  /// exited 0 (the clean-shutdown assertion: a wedged server cannot).
  bool reap(std::size_t slot, bool graceful) {
    ShardProc& s = shards_[slot];
    if (s.pid <= 0) return true;
    kill(s.pid, graceful ? SIGTERM : SIGKILL);
    int status = 0;
    for (int tries = 0; tries < 500; ++tries) {
      const pid_t done = waitpid(s.pid, &status, WNOHANG);
      if (done == s.pid) {
        s.pid = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(s.pid, SIGKILL);
    waitpid(s.pid, nullptr, 0);
    s.pid = -1;
    return false;
  }

  bool stop_clean(std::size_t slot) { return reap(slot, /*graceful=*/true); }

  net::ClientOptions client_options(std::uint16_t port) const {
    net::ClientOptions c;
    c.port = port;
    // Fail fast: a dead shard should surface as kNetworkError after one
    // reconnect attempt, not after a long backoff ladder.
    c.retry.max_attempts = 2;
    c.retry.initial_backoff = std::chrono::microseconds(500);
    c.retry.max_backoff = std::chrono::microseconds(2000);
    return c;
  }

  net::RouterOptions router_options(std::chrono::milliseconds cooldown) const {
    net::RouterOptions o;
    for (const ShardProc& s : shards_) {
      o.endpoints.push_back({"127.0.0.1", s.port});
    }
    o.client = client_options(0);  // host/port overridden per endpoint
    // One transport failure opens the breaker: chaos scripts want the
    // state machine to move on the FIRST injected fault, with recovery
    // timing owned by the test (cooldown / probe_now), not by repetition.
    o.breaker_failure_threshold = 1;
    o.breaker_cooldown = cooldown;
    o.probe_timeout = std::chrono::milliseconds(300);
    return o;
  }

  std::string dir_;
  std::vector<ShardProc> shards_;
};

/// Kill a shard MID-REQUEST (crash failpoint inside the solve path) and
/// require: every admitted request still answers -- the ones the dead
/// shard served before dying, the one it died holding (failover re-homes
/// it), and everything after -- all bit-for-bit; then a restart on the
/// same port plus one probe closes the breaker again.
TEST_F(ChaosFleetTest, CrashedHomeShardFailsOverWithZeroLostRequests) {
  const Problem p = make_problem(101);
  net::Router router(router_options(std::chrono::minutes(10)));
  const auto h = router.open(p.l, kBackend);
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;
  const std::size_t backup = 1 - home;

  // Arm the bomb first: solves 1-2 pass through the skip window, solve 3
  // takes the home process down MID-EXECUTION (_Exit inside the kernel
  // dispatch, reply never sent).
  net::SolveClient control(client_options(shards_[home].port));
  const auto armed = control.set_failpoint("core.solve", "crash(86)@2");
  ASSERT_TRUE(armed.ok()) << armed.message();

  for (int i = 0; i < 6; ++i) {
    const auto r = router.solve(h.value(), p.b);
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << r.message();
    EXPECT_EQ(r.value(), p.want) << "request " << i;
  }
  reap_exited(home);

  // The outage is explicit, not inferred: breaker open, unreachable,
  // last_error recorded; the backup stayed closed and absorbed the plan.
  std::vector<net::ShardStatus> st = router.fleet_status();
  EXPECT_EQ(st[home].breaker, net::BreakerState::kOpen);
  EXPECT_FALSE(st[home].reachable);
  EXPECT_EQ(st[home].breaker_opens, 1u);
  EXPECT_FALSE(st[home].last_error.empty());
  EXPECT_EQ(st[backup].breaker, net::BreakerState::kClosed);
  EXPECT_GE(router.shard_client(backup).metrics_local().failovers, 1u);

  // Rolling replacement: same port, one explicit probe, breaker closed --
  // and traffic goes home again (the client replays the plan open).
  const std::uint64_t failovers_before =
      router.shard_client(backup).metrics_local().failovers;
  ASSERT_TRUE(spawn(home, shards_[home].port));
  EXPECT_EQ(router.probe_now(), 2u);
  st = router.fleet_status();
  EXPECT_EQ(st[home].breaker, net::BreakerState::kClosed);
  EXPECT_TRUE(st[home].reachable);

  const auto healed = router.solve(h.value(), p.b);
  ASSERT_TRUE(healed.ok()) << healed.message();
  EXPECT_EQ(healed.value(), p.want);
  EXPECT_EQ(router.shard_client(backup).metrics_local().failovers,
            failovers_before);

  EXPECT_TRUE(stop_clean(home));
  EXPECT_TRUE(stop_clean(backup));
}

/// The breaker state machine, one transition per request: closed -> open
/// on the first dead-shard failure, open -> half-open on the next request
/// (cooldown 0: the request IS the trial), half-open -> open when the
/// trial fails, half-open -> closed when it succeeds after the restart.
TEST_F(ChaosFleetTest, BreakerWalksOpenHalfOpenClosed) {
  const Problem p = make_problem(202);
  net::Router router(router_options(std::chrono::milliseconds(0)));
  const auto h = router.open(p.l, kBackend);
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;
  const std::size_t backup = 1 - home;

  const auto baseline = router.solve(h.value(), p.b);
  ASSERT_TRUE(baseline.ok()) << baseline.message();
  EXPECT_EQ(baseline.value(), p.want);

  kill_now(home);

  // closed -> open, answered by failover.
  const auto first = router.solve(h.value(), p.b);
  ASSERT_TRUE(first.ok()) << first.message();
  EXPECT_EQ(first.value(), p.want);
  EXPECT_EQ(router.fleet_status()[home].breaker_opens, 1u);

  // open -> half-open trial (still dead) -> open again: opens counts 2,
  // which only the half-open path can produce.
  const auto second = router.solve(h.value(), p.b);
  ASSERT_TRUE(second.ok()) << second.message();
  EXPECT_EQ(second.value(), p.want);
  EXPECT_EQ(router.fleet_status()[home].breaker_opens, 2u);

  // Restart; the next trial succeeds and CLOSES the breaker -- traffic is
  // back on the home shard (its solve counter moves, failover's does not).
  ASSERT_TRUE(spawn(home, shards_[home].port));
  const std::uint64_t home_solves_before =
      router.shard_client(home).metrics_local().solves;
  const std::uint64_t failovers_before =
      router.shard_client(backup).metrics_local().failovers;
  const auto healed = router.solve(h.value(), p.b);
  ASSERT_TRUE(healed.ok()) << healed.message();
  EXPECT_EQ(healed.value(), p.want);
  const std::vector<net::ShardStatus> st = router.fleet_status();
  EXPECT_EQ(st[home].breaker, net::BreakerState::kClosed);
  EXPECT_EQ(st[home].breaker_opens, 2u);
  EXPECT_GT(router.shard_client(home).metrics_local().solves,
            home_solves_before);
  EXPECT_EQ(router.shard_client(backup).metrics_local().failovers,
            failovers_before);

  EXPECT_TRUE(stop_clean(home));
  EXPECT_TRUE(stop_clean(backup));
}

/// A clean restart of an IDLE shard. Nobody reads an idle connection, so
/// the router's client learns of the restart only when it next uses the
/// connection: the next probe's ping must find the old connection closed,
/// reconnect onto the new process and pass -- a live shard is never
/// reported unreachable, and its breaker never opens.
TEST_F(ChaosFleetTest, IdleShardRestartPassesTheNextProbe) {
  const Problem p = make_problem(707);
  net::Router router(router_options(std::chrono::minutes(10)));
  const auto h = router.open(p.l, kBackend);
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;
  const std::size_t backup = 1 - home;
  const auto baseline = router.solve(h.value(), p.b);
  ASSERT_TRUE(baseline.ok()) << baseline.message();
  EXPECT_EQ(baseline.value(), p.want);
  EXPECT_EQ(router.probe_now(), 2u);

  EXPECT_TRUE(stop_clean(home));
  ASSERT_TRUE(spawn(home, shards_[home].port));
  EXPECT_EQ(router.probe_now(), 2u);
  const std::vector<net::ShardStatus> st = router.fleet_status();
  EXPECT_EQ(st[home].breaker, net::BreakerState::kClosed);
  EXPECT_TRUE(st[home].reachable);
  EXPECT_EQ(st[home].failures_total, 0u);
  EXPECT_EQ(st[home].breaker_opens, 0u);

  // Traffic stays home, on the first attempt.
  const net::ClientMetrics before = router.shard_client(home).metrics_local();
  const auto healed = router.solve(h.value(), p.b);
  ASSERT_TRUE(healed.ok()) << healed.message();
  EXPECT_EQ(healed.value(), p.want);
  const net::ClientMetrics after = router.shard_client(home).metrics_local();
  EXPECT_EQ(after.solves - before.solves, 1u);
  EXPECT_EQ(after.retries, before.retries);
  EXPECT_EQ(router.shard_client(backup).metrics_local().failovers, 0u);

  EXPECT_TRUE(stop_clean(home));
  EXPECT_TRUE(stop_clean(backup));
}

/// A shard that is alive but WEDGED (its reply path parked at the
/// net.sock.send seam) is the nasty case: TCP stays up, connects still
/// succeed. The ping's hard deadline is what catches it -- the probe
/// times out, tears the connection down, and the admitted in-flight
/// request completes with a TYPED network error instead of hanging
/// forever. Traffic re-homes; a replacement process heals the fleet.
TEST_F(ChaosFleetTest, HungShardProbeTimeoutFailsPendingRequestsTyped) {
  const Problem p = make_problem(303);
  net::Router router(router_options(std::chrono::minutes(10)));
  const auto h = router.open(p.l, kBackend);
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;
  const std::size_t backup = 1 - home;

  const auto baseline = router.solve(h.value(), p.b);
  ASSERT_TRUE(baseline.ok()) << baseline.message();

  // Park every server->client send AFTER the arming ack (@1 skips it):
  // from here on the home shard accepts work and answers nothing.
  net::SolveClient control(client_options(shards_[home].port));
  const auto armed = control.set_failpoint("net.sock.send", "pause@1");
  ASSERT_TRUE(armed.ok()) << armed.message();

  // Admit one request into the wedged shard (async: no retry tier).
  auto pending = router.submit_batch(h.value(), p.b, 1);

  // The probe's ping deadline expires -> the home connection is torn
  // down -> the pending future completes, TYPED. Nothing is lost
  // silently and nothing blocks on a reply that will never come.
  EXPECT_EQ(router.probe_now(), 1u);
  const auto hung = pending.get();
  ASSERT_FALSE(hung.ok());
  EXPECT_EQ(hung.status(), SolveStatus::kNetworkError);

  std::vector<net::ShardStatus> st = router.fleet_status();
  EXPECT_EQ(st[home].breaker, net::BreakerState::kOpen);
  EXPECT_FALSE(st[home].reachable);

  // Sync traffic re-homes onto the backup via the shared blob directory.
  const auto failed_over = router.solve(h.value(), p.b);
  ASSERT_TRUE(failed_over.ok()) << failed_over.message();
  EXPECT_EQ(failed_over.value(), p.want);
  EXPECT_GE(router.shard_client(backup).metrics_local().failovers, 1u);

  // A wedged process cannot drain; the operator playbook is replace, not
  // signal. Same port, one probe, breaker closed, traffic home again.
  kill_now(home);
  ASSERT_TRUE(spawn(home, shards_[home].port));
  EXPECT_EQ(router.probe_now(), 2u);
  EXPECT_EQ(router.fleet_status()[home].breaker,
            net::BreakerState::kClosed);
  const auto healed = router.solve(h.value(), p.b);
  ASSERT_TRUE(healed.ok()) << healed.message();
  EXPECT_EQ(healed.value(), p.want);

  EXPECT_TRUE(stop_clean(home));
  EXPECT_TRUE(stop_clean(backup));
}

/// Hedged high-priority solves: with the home shard's kernel parked, the
/// duplicate leg on the backup answers -- the caller sees correct bits at
/// backup latency, never the hang. The home leg is abandoned, not
/// leaked: releasing the seam lets it finish and the shard drain clean.
TEST_F(ChaosFleetTest, HedgedHighPrioritySolveSurvivesAHungHome) {
  const Problem p = make_problem(404);
  net::RouterOptions opt = router_options(std::chrono::milliseconds(0));
  opt.hedge_high_priority = true;
  net::Router router(opt);
  const auto h = router.open(p.l, kBackend);
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;
  const std::size_t backup = 1 - home;

  const auto baseline = router.solve(h.value(), p.b);
  ASSERT_TRUE(baseline.ok()) << baseline.message();

  // Park the home KERNEL (not its socket): the shard converses happily --
  // accepts the request, answers pings -- it just never finishes solving.
  // Exactly the slow-shard tail that hedging exists to cut.
  net::SolveClient control(client_options(shards_[home].port));
  const auto armed = control.set_failpoint("core.solve", "pause");
  ASSERT_TRUE(armed.ok()) << armed.message();

  const auto hedged =
      router.solve(h.value(), p.b, service::Priority::kHigh);
  ASSERT_TRUE(hedged.ok()) << hedged.message();
  EXPECT_EQ(hedged.value(), p.want);
  EXPECT_GE(router.shard_client(home).metrics_local().hedges, 1u);
  EXPECT_GE(router.shard_client(backup).metrics_local().failovers, 1u);

  // Release the parked dispatch; its late reply completes an abandoned
  // promise and the shard is whole again -- proven by a normal-priority
  // solve landing on it and by the clean SIGTERM drain.
  const auto cleared = control.set_failpoint("core.solve", "off");
  ASSERT_TRUE(cleared.ok()) << cleared.message();
  const auto after = router.solve(h.value(), p.b);
  ASSERT_TRUE(after.ok()) << after.message();
  EXPECT_EQ(after.value(), p.want);

  EXPECT_TRUE(stop_clean(home));
  EXPECT_TRUE(stop_clean(backup));
}

/// Corrupt frames are FAIL-STOP, both directions: a torn client write
/// (local net.sock.send partial) and a failed server reply send (wire-
/// armed error) each kill exactly one connection; the client's
/// reconnect-and-replay retry tier heals both invisibly -- same bits,
/// reconnects counted, breakers untouched.
TEST_F(ChaosFleetTest, TornFramesFailStopTheConnectionAndHeal) {
  const Problem p = make_problem(505);
  net::Router router(router_options(std::chrono::minutes(10)));
  const auto h = router.open(p.l, kBackend);
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;

  const auto baseline = router.solve(h.value(), p.b);
  ASSERT_TRUE(baseline.ok()) << baseline.message();
  const std::uint64_t reconnects0 =
      router.shard_client(home).metrics_local().reconnects;

  // Client-side torn write: 20 bytes of the solve frame, then a typed
  // send failure. Armed LOCALLY -- this process is the faulty party.
  ASSERT_TRUE(support::failpoint_set("net.sock.send", "partial(20)*1"));
  const auto torn_send = router.solve(h.value(), p.b);
  ASSERT_TRUE(torn_send.ok()) << torn_send.message();
  EXPECT_EQ(torn_send.value(), p.want);
  EXPECT_GE(router.shard_client(home).metrics_local().reconnects,
            reconnects0 + 1);

  // Server-side reply-path failure (@1 spares the arming ack): the
  // server fail-stops that connection; the client reconnects and replays.
  net::SolveClient control(client_options(shards_[home].port));
  const auto armed = control.set_failpoint("net.sock.send", "error*1@1");
  ASSERT_TRUE(armed.ok()) << armed.message();
  const auto torn_reply = router.solve(h.value(), p.b);
  ASSERT_TRUE(torn_reply.ok()) << torn_reply.message();
  EXPECT_EQ(torn_reply.value(), p.want);
  EXPECT_GE(router.shard_client(home).metrics_local().reconnects,
            reconnects0 + 2);

  // Both faults healed BELOW the routing tier: no breaker ever moved.
  for (const net::ShardStatus& st : router.fleet_status()) {
    EXPECT_EQ(st.breaker, net::BreakerState::kClosed);
  }
  EXPECT_TRUE(stop_clean(home));
  EXPECT_TRUE(stop_clean(1 - home));
}

/// Failover's warm tier can ITSELF fail: with the home shard dead and the
/// backup's disk read faulted, the hash-ref re-open is refused TYPED
/// (kBadSnapshot) -- which must NOT poison the backup's breaker (the
/// process is healthy; it just cannot serve this plan yet). The next
/// request, disk healed, re-homes normally.
TEST_F(ChaosFleetTest, FailoverOpenRefusedTypedKeepsBackupHealthy) {
  const Problem p = make_problem(606);
  net::Router router(router_options(std::chrono::minutes(10)));
  const auto h = router.open(p.l, kBackend);
  ASSERT_TRUE(h.ok()) << h.message();
  const std::size_t home = h.value().shard;
  const std::size_t backup = 1 - home;

  // The open above stored the plan blob in the shared directory; fault
  // the BACKUP's next disk read before killing the home shard.
  net::SolveClient control(client_options(shards_[backup].port));
  const auto armed = control.set_failpoint("cache.disk.read", "error*1");
  ASSERT_TRUE(armed.ok()) << armed.message();
  kill_now(home);

  const auto refused = router.solve(h.value(), p.b);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status(), SolveStatus::kBadSnapshot);
  std::vector<net::ShardStatus> st = router.fleet_status();
  EXPECT_EQ(st[home].breaker, net::BreakerState::kOpen);
  EXPECT_EQ(st[backup].breaker, net::BreakerState::kClosed)
      << "a typed refusal must not open the healthy shard's breaker";

  // One-shot fault exhausted: the identical request now re-homes.
  const auto after = router.solve(h.value(), p.b);
  ASSERT_TRUE(after.ok()) << after.message();
  EXPECT_EQ(after.value(), p.want);
  EXPECT_GE(router.shard_client(backup).metrics_local().failovers, 1u);
  EXPECT_TRUE(router.fleet_status()[backup].reachable);

  EXPECT_TRUE(stop_clean(backup));
}

/// The fleet view never narrows silently: with one shard SIGKILLed, the
/// merged stats still answer, the dark shard is named -- reachable=false,
/// last_error recorded -- and the Prometheus scrape carries
/// msptrsv_shard_up 0 for exactly that endpoint.
TEST_F(ChaosFleetTest, FleetViewReportsADarkShardExplicitly) {
  net::Router router(router_options(std::chrono::minutes(10)));
  const std::uint16_t dead_port = shards_[1].port;
  const std::uint16_t live_port = shards_[0].port;
  kill_now(1);

  std::size_t reachable = 0;
  std::vector<net::ShardStatus> statuses;
  const auto merged = router.fleet_stats(&reachable, &statuses);
  ASSERT_TRUE(merged.ok()) << merged.message();
  EXPECT_EQ(reachable, 1u);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].reachable);
  EXPECT_FALSE(statuses[1].reachable);
  EXPECT_FALSE(statuses[1].last_error.empty());

  const auto scrape = router.fleet_metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.message();
  const std::string& text = scrape.value();
  EXPECT_NE(text.find("msptrsv_shard_up{shard=\"127.0.0.1:" +
                      std::to_string(dead_port) + "\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("msptrsv_shard_up{shard=\"127.0.0.1:" +
                      std::to_string(live_port) + "\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("msptrsv_shard_breaker_state"), std::string::npos);

  EXPECT_TRUE(stop_clean(0));
}

}  // namespace
}  // namespace msptrsv
