// Standalone wire-protocol client: connects to a running solve_serverd,
// uploads a generated factor, and verifies the served solutions
// BIT-FOR-BIT against a locally analyzed plan -- the loopback smoke test
// CI runs against a real server process (scripts/net_smoke.sh), and a
// template for applications talking to a remote solve fleet.
//
//   ./example_solve_client --port=7450 [--host 127.0.0.1]
//                          [--backend auto] [--solves 32] [--n 4000]
#include <cstdio>
#include <string>
#include <vector>

#include "core/msptrsv.hpp"
#include "net/client.hpp"
#include "support/cli.hpp"

using namespace msptrsv;

int main(int argc, char** argv) {
  support::CliParser cli(
      "Wire-protocol solve client: open a plan on a remote solve server, "
      "verify served solutions bit-for-bit against a local plan");
  cli.add_option("host", "127.0.0.1", "server host");
  cli.add_option("port", "0", "server port (required)");
  cli.add_option("backend", "auto", "registry backend key or preset");
  cli.add_option("solves", "32", "verification solves to run");
  cli.add_option("n", "4000", "generated factor dimension");
  if (!cli.parse(argc, argv)) return 0;

  const std::string backend = cli.get_string("backend");
  const index_t n = static_cast<index_t>(cli.get_int("n"));
  const int solves = static_cast<int>(cli.get_int("solves"));

  net::ClientOptions options;
  options.host = cli.get_string("host");
  options.port = static_cast<std::uint16_t>(cli.get_int("port"));
  options.client_name = "example_solve_client";
  if (options.port == 0) {
    std::fprintf(stderr, "--port is required (a running solve_serverd)\n");
    return 1;
  }

  const sparse::CscMatrix lower = sparse::gen_layered_dag(n, 32, 6 * n, 0.5, 7);
  const std::vector<value_t> b =
      sparse::gen_rhs_for_solution(lower, sparse::gen_solution(n, 11));

  // Local ground truth under the same service options the server uses.
  const auto local_options = core::registry::service_options(backend);
  if (!local_options.ok()) {
    std::fprintf(stderr, "bad backend '%s': %s\n", backend.c_str(),
                 local_options.message().c_str());
    return 1;
  }
  const auto local_plan =
      core::SolverPlan::analyze(lower, local_options.value());
  const std::vector<value_t> expected = local_plan.value().solve(b).value().x;

  net::SolveClient client(options);
  const auto connected = client.connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "connect to %s:%u failed: %s\n",
                 options.host.c_str(), options.port,
                 connected.message().c_str());
    return 1;
  }

  const auto handle = client.open(lower, backend);
  if (!handle.ok()) {
    std::fprintf(stderr, "open failed: %s\n", handle.message().c_str());
    return 1;
  }
  std::printf("opened plan: n=%d, source=%s, hash=%016llx\n",
              handle.value().rows, handle.value().source.c_str(),
              static_cast<unsigned long long>(handle.value().hash.pattern));

  // A second open of the same factor must dedup server-side.
  const auto again = client.open(lower, backend);
  if (!again.ok() || again.value().source != "open") {
    std::fprintf(stderr, "repeat open did not dedup (source=%s)\n",
                 again.ok() ? again.value().source.c_str() : "error");
    return 1;
  }

  int wrong = 0;
  for (int i = 0; i < solves; ++i) {
    const auto x = client.solve(handle.value(), b);
    if (!x.ok()) {
      std::fprintf(stderr, "solve %d failed: %s\n", i,
                   x.message().c_str());
      return 1;
    }
    if (x.value() != expected) ++wrong;  // bit-for-bit comparison
  }
  std::printf("%d solves served, %d mismatches\n", solves, wrong);

  const auto drained = client.drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drained.message().c_str());
    return 1;
  }

  const auto metrics = client.metrics();
  if (!metrics.ok() ||
      metrics.value().find("msptrsv_rhs_completed_total") ==
          std::string::npos) {
    std::fprintf(stderr, "metrics fetch failed or incomplete\n");
    return 1;
  }
  std::printf("server metrics scraped (%zu bytes of Prometheus text)\n",
              metrics.value().size());

  // The trace endpoint must answer alongside metrics -- even after the
  // drain barrier, and whether or not the server is armed (a disarmed
  // server serves a valid empty document, never an error).
  const auto trace = client.trace_dump();
  if (!trace.ok() ||
      trace.value().json.rfind("{\"traceEvents\":[", 0) != 0) {
    std::fprintf(stderr, "trace dump failed or malformed: %s\n",
                 trace.ok() ? "bad envelope" : trace.message().c_str());
    return 1;
  }
  std::printf("server trace dumped (%zu bytes of trace-event JSON)\n",
              trace.value().json.size());

  const net::ClientMetrics m = client.metrics_local();
  std::printf("client: %llu attempts for %llu solves, %llu retries\n",
              static_cast<unsigned long long>(m.attempts),
              static_cast<unsigned long long>(m.solves),
              static_cast<unsigned long long>(m.retries));
  return wrong == 0 ? 0 : 1;
}
