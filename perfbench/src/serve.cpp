// The serve workload: SpTRSV as a network service. An in-process
// net::SolveServer on a loopback port serves closed-loop clients, each on
// its own connection and thread. One operation is one remote
// preconditioner application M^{-1} r = L^{-T} L^{-1} r for an IC(0)
// factor L: a lower solve, then the upper solve as the reversed lower form
// of L^T (the wire serves lower factors), so every operation crosses
// client -> wire -> queue -> gang -> kernel -> reply twice, on two plans.
// The concurrent clients let the service coalesce requests. Every reply
// is checked against a serial reference solve.
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/reference.hpp"
#include "core/residual.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sparse/factorization.hpp"
#include "sparse/level_analysis.hpp"

namespace perfbench {

namespace core = msptrsv::core;
namespace net = msptrsv::net;
namespace sparse = msptrsv::sparse;

namespace {

constexpr index_t kGrid = 140;
constexpr int kClients = 2;
constexpr int kPool = 8;
constexpr int kWarmupOps = 20;
constexpr double kCheckTol = 1e-10;

struct Deployment {
  sparse::CscMatrix lower;
  sparse::CscMatrix upper_reversed;  // L^T in reversed lower form
  std::unique_ptr<net::SolveServer> server;
  std::vector<std::unique_ptr<net::SolveClient>> clients;
  std::vector<net::PlanHandle> lower_h, upper_h;  // per client
  double build_ms = 0.0;
  double plan_ms = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    clients.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<Deployment> set_up(std::uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  const auto t0 = Clock::now();
  sparse::CscMatrix l = sparse::ic0(grid_spd(kGrid, kGrid, 1, seed));
  d->upper_reversed = core::reverse_upper_to_lower(sparse::transpose(l));
  d->lower = std::move(l);
  d->build_ms = ms_since(t0);

  d->server = std::make_unique<net::SolveServer>();
  if (!d->server->start().ok()) throw std::runtime_error("server did not start");
  for (int c = 0; c < kClients; ++c) {
    net::ClientOptions copt;
    copt.port = d->server->port();
    auto client = std::make_unique<net::SolveClient>(copt);
    if (!client->connect().ok()) throw std::runtime_error("client did not connect");
    // The first client's opens upload the factors and pay the server-side
    // analysis; the others resolve to the same plans.
    const auto t1 = Clock::now();
    auto hl = client->open(d->lower, "auto");
    auto hu = client->open(d->upper_reversed, "auto");
    if (!hl.ok() || !hu.ok()) {
      throw std::runtime_error("open failed: " + hl.message() + hu.message());
    }
    if (c == 0) d->plan_ms = ms_since(t1) / 2.0;
    d->lower_h.push_back(hl.value());
    d->upper_h.push_back(hu.value());
    d->clients.push_back(std::move(client));
  }
  return d;
}

struct Case {
  std::vector<value_t> r, y, z;  // rhs, L^{-1} r, L^{-T} L^{-1} r
};

struct ClientLog {
  std::vector<double> op_ms;
  double request_us = 0.0;  // client-observed latency of every request
  std::uint64_t attempted = 0, failed = 0;
};

bool close_to(const std::vector<value_t>& got, const std::vector<value_t>& want) {
  return got.size() == want.size() &&
         core::max_relative_difference(got, want) <= kCheckTol;
}

/// One preconditioner application; false on an error or a wrong answer.
bool apply(Deployment& d, int c, const Case& k, double* request_us) {
  net::SolveClient& client = *d.clients[c];
  const auto t0 = Clock::now();
  auto y = client.solve(d.lower_h[c], k.r);
  const auto t1 = Clock::now();
  if (!y.ok()) return false;
  const std::vector<value_t> y_rev = core::reversed(y.value());
  const auto t2 = Clock::now();
  auto z_rev = client.solve(d.upper_h[c], y_rev);
  const auto t3 = Clock::now();
  if (!z_rev.ok()) return false;
  if (request_us) {
    *request_us += std::chrono::duration<double, std::micro>(t1 - t0).count() +
                   std::chrono::duration<double, std::micro>(t3 - t2).count();
  }
  return close_to(y.value(), k.y) && close_to(core::reversed(z_rev.value()), k.z);
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome o;
  std::vector<double> build_ms, plan_ms;
  std::unique_ptr<Deployment> d;
  for (int s = 0; s < kSetups; ++s) {
    d.reset();  // the previous deployment is torn down before timing the next
    const auto t0 = Clock::now();
    d = set_up(args.seed);
    o.setup_s.push_back(s_since(t0));
    build_ms.push_back(d->build_ms);
    plan_ms.push_back(d->plan_ms);
  }

  std::vector<Case> cases(kPool);
  for (int i = 0; i < kPool; ++i) {
    Case& k = cases[i];
    k.r = random_vector(static_cast<std::size_t>(d->lower.rows),
                        args.seed * 1000003 + static_cast<std::uint64_t>(i));
    k.y = core::solve_lower_serial(d->lower, k.r);
    k.z = core::reversed(
        core::solve_lower_serial(d->upper_reversed, core::reversed(k.y)));
  }
  for (int c = 0; c < kClients; ++c) {
    for (int w = 0; w < kWarmupOps; ++w) {
      if (!apply(*d, c, cases[(c + w) % kPool], nullptr)) {
        throw std::runtime_error("warm-up request failed");
      }
    }
  }

  const auto stats0 = d->server->service().stats();
  std::vector<ClientLog> logs(kClients);
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(args.seconds));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        while (Clock::now() < stop) {
          const Case& k = cases[(log.attempted * kClients + c) % kPool];
          ++log.attempted;
          const auto t0 = Clock::now();
          const bool ok = apply(*d, c, k, &log.request_us);
          if (ok) {
            log.op_ms.push_back(ms_since(t0));
          } else {
            ++log.failed;
          }
        }
      });
    }
  }
  o.window_s = s_since(start);
  const auto stats1 = d->server->service().stats();

  double request_us = 0.0;
  for (const ClientLog& log : logs) {
    o.attempted += log.attempted;
    o.failed += log.failed;
    o.op_ms.insert(o.op_ms.end(), log.op_ms.begin(), log.op_ms.end());
    request_us += log.request_us;
  }
  o.correct = o.failed == 0;

  if (args.trace) {
    // Server-side phases partition each request's server latency:
    // queue (coalescing included), then claim/pack/kernel/unpack in the
    // core, then the reply flush. The client-observed remainder is wire.
    auto delta = [&](std::size_t i) {
      return double(stats1.phase_hist[i].sum_us - stats0.phase_hist[i].sum_us);
    };
    const double queue_us = delta(0);
    const double core_us = delta(2) + delta(3) + delta(4) + delta(5);
    const double reply_us = delta(6);
    const double requests =
        double(stats1.phase_hist[4].count - stats0.phase_hist[4].count);
    const double batches = double(stats1.batches - stats0.batches);
    Layers l;
    l.build_ms = median(build_ms);
    l.plan_ms = median(plan_ms);
    l.trsv_ms = requests > 0 ? core_us / requests / 1000.0 : 0.0;
    l.trsv_share_pct = 100.0 * core_us / 1000.0 / sum(o.op_ms);
    l.levels = sparse::analyze_levels(d->lower).num_levels;
    l.queue_share_pct = request_us > 0 ? 100.0 * queue_us / request_us : 0.0;
    l.wire_share_pct =
        request_us > 0
            ? 100.0 * (request_us - queue_us - core_us - reply_us) / request_us
            : 0.0;
    l.coalesce_width =
        batches > 0 ? double(stats1.completed - stats0.completed) / batches : 0.0;
    o.layers = layer_metrics(l);
  }
  return o;
}

}  // namespace perfbench
