// Network solve-server walkthrough: a real net::SolveServer on loopback,
// hammered by net::SolveClient connections speaking the binary wire
// protocol (docs/PROTOCOL.md).
//
// What it demonstrates, end to end:
//  * plan opens over the wire (factor upload, analyze-on-first-use on the
//    server, content-keyed dedup across connections);
//  * pipelined solves whose results are BIT-FOR-BIT what a local
//    plan.solve() produces -- the service's fused-batch guarantee
//    survives the socket;
//  * typed backpressure and deadline shedding arriving as client-visible
//    statuses (kOverloaded triggers the client's backoff-retry tier);
//  * the Prometheus /metrics answer and the drain barrier.
//
//   ./example_solve_server [--backend auto] [--clients 4]
//                          [--requests 100] [--tenants 3]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/msptrsv.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "support/cli.hpp"

using namespace msptrsv;

int main(int argc, char** argv) {
  support::CliParser cli(
      "Network solve server demo: wire-protocol clients against a loopback "
      "net::SolveServer -- opens, pipelined solves, retry, metrics, drain");
  cli.add_option("backend", "auto", "registry backend key or preset to serve");
  cli.add_option("clients", "4", "concurrent client connections");
  cli.add_option("requests", "100", "solves per client");
  cli.add_option("tenants", "3", "distinct factors being served");
  if (!cli.parse(argc, argv)) return 0;

  const std::string backend = cli.get_string("backend");
  const int clients = static_cast<int>(cli.get_int("clients"));
  const int requests = static_cast<int>(cli.get_int("requests"));
  const int tenants = static_cast<int>(cli.get_int("tenants"));

  std::printf("msptrsv %s network server demo: %d clients x %d solves over "
              "%d tenants on '%s'\n\n",
              kVersion, clients, requests, tenants, backend.c_str());

  // The server: ephemeral port, bounded admission so backpressure is
  // reachable.
  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.service.max_pending_rhs = 512;
  net::SolveServer server(server_options);
  const core::Expected<bool> started = server.start();
  if (!started.ok()) {
    std::printf("server start failed: %s\n", started.message().c_str());
    return 1;
  }
  std::printf("server listening on 127.0.0.1:%u\n\n", server.port());

  struct Tenant {
    sparse::CscMatrix lower;
    std::vector<value_t> b;
    std::vector<value_t> expected;
  };
  std::vector<Tenant> workloads;
  for (int t = 0; t < tenants; ++t) {
    const index_t n = 6000 + 2000 * t;
    Tenant w;
    w.lower = sparse::gen_layered_dag(n, 48, 6 * n, 0.5,
                                      static_cast<std::uint64_t>(t) + 1);
    w.b = sparse::gen_rhs_for_solution(w.lower, sparse::gen_solution(n, 7));
    // Local ground truth: the wire answer must match this bit for bit.
    const auto options = core::registry::service_options(backend);
    const auto plan = core::SolverPlan::analyze(w.lower, options.value());
    w.expected = plan.value().solve(w.b).value().x;
    workloads.push_back(std::move(w));
  }

  std::atomic<int> wrong{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> shed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions copt;
      copt.port = server.port();
      copt.client_name = "demo-client-" + std::to_string(c);
      net::SolveClient client(copt);
      // Every client opens every tenant: the server deduplicates by
      // content hash, so tenant analysis still happens exactly once.
      std::vector<net::PlanHandle> handles;
      for (const Tenant& w : workloads) {
        const auto handle = client.open(w.lower, backend);
        if (!handle.ok()) {
          std::printf("open failed: %s\n", handle.message().c_str());
          wrong.fetch_add(requests);
          return;
        }
        handles.push_back(handle.value());
      }
      // Client 0 is the latency tenant: high priority with a 50 ms
      // start-by deadline; shed requests come back typed.
      const bool latency_tenant = c == 0;
      for (int i = 0; i < requests; ++i) {
        const std::size_t t = static_cast<std::size_t>((c + i) % tenants);
        const auto x = client.solve(
            handles[t], workloads[t].b,
            latency_tenant ? service::Priority::kHigh
                           : service::Priority::kNormal,
            latency_tenant ? std::chrono::milliseconds(50)
                           : std::chrono::microseconds(0));
        if (!x.ok()) {
          if (x.error().status == core::SolveStatus::kOverloaded) {
            overloaded.fetch_add(1);
          } else if (x.error().status ==
                     core::SolveStatus::kDeadlineExceeded) {
            shed.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        } else if (x.value() != workloads[t].expected) {
          wrong.fetch_add(1);  // bit-for-bit or bust
        }
      }
      const net::ClientMetrics m = client.metrics_local();
      if (m.retries > 0) {
        std::printf("client %d: %llu attempts for %llu solves (%llu "
                    "retries, %llu us backing off)\n",
                    c, static_cast<unsigned long long>(m.attempts),
                    static_cast<unsigned long long>(m.solves),
                    static_cast<unsigned long long>(m.retries),
                    static_cast<unsigned long long>(m.backoff_us));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // One more connection for control traffic: drain barrier, then stats.
  net::ClientOptions copt;
  copt.port = server.port();
  net::SolveClient control(copt);
  const auto drained = control.drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const net::WireStats s = server.wire_stats();
  std::printf("\nanswered %llu rhs in %.2f s  (%.0f rhs/s), %d wrong, %d "
              "overloaded, %d shed\n",
              static_cast<unsigned long long>(s.completed), seconds,
              static_cast<double>(s.completed) / seconds, wrong.load(),
              overloaded.load(), shed.load());
  std::printf("wire: %llu connections, %llu frames, %llu protocol errors, "
              "%llu plans open (opened by every client, analyzed once)\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.frames_received),
              static_cast<unsigned long long>(s.protocol_errors),
              static_cast<unsigned long long>(s.plans_open));
  std::printf("latency (full-history histogram): p50 %.0f us  p99 %.0f us  "
              "mean %.0f us\n",
              s.latency.quantile(0.50), s.latency.quantile(0.99),
              s.latency.mean_us());
  if (drained.ok()) {
    std::printf("drain barrier: %llu rhs completed at drain\n",
                static_cast<unsigned long long>(drained.value()));
  }

  const auto metrics = control.metrics();
  if (metrics.ok()) {
    const std::string& text = metrics.value();
    std::printf("\n/metrics (first lines):\n");
    std::size_t pos = 0;
    for (int line = 0; line < 8 && pos < text.size(); ++line) {
      const std::size_t eol = text.find('\n', pos);
      std::printf("  %s\n", text.substr(pos, eol - pos).c_str());
      pos = eol + 1;
    }
  }

  server.stop();
  return wrong.load() == 0 ? 0 : 1;
}
