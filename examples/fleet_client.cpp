// Fleet client: drives routed traffic against N running solve_serverd
// shards through a net::Router -- plan-hash affinity, circuit breakers,
// and failover re-homing all engaged. The chaos smoke test
// (scripts/chaos_smoke.sh) runs this against two shards, kill -9's the
// plan's HOME shard mid-run, and requires every request to keep
// answering bit-for-bit via failover.
//
//   ./example_fleet_client --ports=7450,7451 --solves=400
//
// Every solve must return the locally computed bits; any typed error or
// mismatch is a LOST REQUEST and fails the run. --home-file names a file
// that receives the home shard's port after the first verified solve --
// the signal a supervising script uses to kill the right process with
// live traffic in flight. --require-failover additionally demands that
// at least one answer came from a non-home shard (proof the fleet
// actually healed, not that the fault never landed).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "net/router.hpp"
#include "support/blob.hpp"
#include "support/cli.hpp"

using namespace msptrsv;

namespace {

std::vector<std::uint16_t> parse_ports(const std::string& csv) {
  std::vector<std::uint16_t> ports;
  std::string token;
  for (std::size_t i = 0; i <= csv.size(); ++i) {
    if (i == csv.size() || csv[i] == ',') {
      if (!token.empty()) {
        ports.push_back(static_cast<std::uint16_t>(std::atoi(token.c_str())));
        token.clear();
      }
    } else {
      token += csv[i];
    }
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "Routed fleet client: verified solves across solve_serverd shards "
      "with breakers and failover engaged (chaos smoke driver)");
  cli.add_option("ports", "", "comma-separated shard ports (required)");
  cli.add_option("host", "127.0.0.1", "shard host");
  cli.add_option("backend", "auto", "registry backend key or preset");
  cli.add_option("solves", "400", "verified solves to run");
  cli.add_option("interval-us", "5000", "pause between solves");
  cli.add_option("n", "2000", "generated factor dimension");
  cli.add_option("home-file", "",
                 "write the home shard's port here (atomic rename) after "
                 "the first verified solve");
  cli.add_option("require-failover", "false",
                 "fail unless >=1 answer came from a non-home shard");
  if (!cli.parse(argc, argv)) return 0;

  const std::vector<std::uint16_t> ports = parse_ports(cli.get_string("ports"));
  if (ports.size() < 1) {
    std::fprintf(stderr, "--ports is required (running solve_serverd shards)\n");
    return 2;
  }
  const std::string backend = cli.get_string("backend");
  const index_t n = static_cast<index_t>(cli.get_int("n"));
  const int solves = static_cast<int>(cli.get_int("solves"));
  const auto interval =
      std::chrono::microseconds(cli.get_int("interval-us"));

  const sparse::CscMatrix lower =
      sparse::gen_layered_dag(n, 24, 6 * n, 0.5, 17);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(lower, sparse::gen_solution(n, 18));

  const auto local_options = core::registry::service_options(backend);
  if (!local_options.ok()) {
    std::fprintf(stderr, "bad backend '%s': %s\n", backend.c_str(),
                 local_options.message().c_str());
    return 2;
  }
  const auto local_plan =
      core::SolverPlan::analyze(lower, local_options.value());
  const std::vector<value_t> expected =
      local_plan.value().solve(b).value().x;

  net::RouterOptions ropt;
  for (const std::uint16_t port : ports) {
    ropt.endpoints.push_back({cli.get_string("host"), port});
  }
  // Chaos posture: trip on the first transport failure, retry the trial
  // quickly, fail individual attempts fast -- a killed shard costs one
  // failed attempt before traffic re-homes, not a backoff ladder.
  ropt.breaker_failure_threshold = 1;
  ropt.breaker_cooldown = std::chrono::milliseconds(250);
  ropt.client.retry.max_attempts = 2;
  ropt.client.retry.initial_backoff = std::chrono::microseconds(1000);
  ropt.client.retry.max_backoff = std::chrono::microseconds(10000);
  net::Router router(ropt);

  const auto handle = router.open(lower, backend);
  if (!handle.ok()) {
    std::fprintf(stderr, "routed open failed: %s\n",
                 handle.message().c_str());
    return 1;
  }
  const std::size_t home = handle.value().shard;
  std::printf("fleet: %zu shards, home=%u (shard %zu)\n", ports.size(),
              ports[home], home);

  int lost = 0;
  int mismatched = 0;
  for (int i = 0; i < solves; ++i) {
    const auto x = router.solve(handle.value(), b);
    if (!x.ok()) {
      std::fprintf(stderr, "request %d LOST: %s\n", i, x.message().c_str());
      ++lost;
      continue;
    }
    if (x.value() != expected) ++mismatched;
    if (i == 0 && !cli.get_string("home-file").empty()) {
      // First answer verified end to end: traffic is live. Tell the
      // supervisor which process to kill.
      const std::string text = std::to_string(ports[home]) + "\n";
      if (!support::write_file(
              cli.get_string("home-file"),
              {reinterpret_cast<const std::uint8_t*>(text.data()),
               text.size()})) {
        std::fprintf(stderr, "cannot write %s\n",
                     cli.get_string("home-file").c_str());
        return 2;
      }
    }
    if (interval.count() > 0) std::this_thread::sleep_for(interval);
  }

  std::uint64_t failovers = 0;
  std::uint64_t hedges = 0;
  for (std::size_t s = 0; s < ports.size(); ++s) {
    const net::ClientMetrics m = router.shard_client(s).metrics_local();
    failovers += m.failovers;
    hedges += m.hedges;
  }
  std::printf("%d solves: %d lost, %d mismatched, %llu failovers\n", solves,
              lost, mismatched,
              static_cast<unsigned long long>(failovers));
  (void)hedges;

  for (const net::ShardStatus& st : router.fleet_status()) {
    std::printf("shard %s:%u: breaker=%s reachable=%d failures=%llu\n",
                st.endpoint.host.c_str(), st.endpoint.port,
                net::to_string(st.breaker), st.reachable ? 1 : 0,
                static_cast<unsigned long long>(st.failures_total));
  }

  if (lost > 0 || mismatched > 0) return 1;
  if (cli.get_bool("require-failover") && failovers == 0) {
    std::fprintf(stderr,
                 "no failover happened -- the fault never landed on the "
                 "serving shard\n");
    return 1;
  }
  return 0;
}
