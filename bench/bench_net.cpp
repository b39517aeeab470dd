// Network-tier benchmark: what the wire costs, and what scale-out buys.
//
// Two studies:
//
//  * WIRE TAX -- the same closed-loop workload is driven twice: straight
//    into an in-process SolveService (no sockets), then through a
//    net::SolveClient against a loopback net::SolveServer. The ratio is
//    the protocol's overhead -- framing, CRC, a TCP round-trip -- and the
//    loopback answers are verified BIT-FOR-BIT against direct
//    plan.solve_batch throughout (a bench that prints numbers for wrong
//    answers is worse than no bench).
//
//  * ROUTED SCALE-OUT -- 1 versus 2 REAL solve_serverd processes
//    (fork/exec, ephemeral ports discovered through --port-file), each
//    worker-capped to a slice of the machine, behind a plan-hash
//    net::Router on a mixed workload of >= 4 distinct factors. Plans
//    spread across shards by rendezvous hashing, so adding a process
//    adds capacity instead of splitting one plan's coalescable traffic.
//
// ACCEPTANCE GATE (exits non-zero on violation): with >= 4 hardware
// threads, 2-shard routed throughput must be >= 1.3x the 1-shard figure.
// On smaller machines the study still runs and reports, but the gate is
// recorded as skipped -- two processes cannot out-run one core.
//
// Emits BENCH_net.json (override with MSPTRSV_BENCH_NET_JSON); the
// routed_study block is what CI greps for.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/msptrsv.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "service/latency_histogram.hpp"
#include "support/cli.hpp"

namespace {

using namespace msptrsv;
using Clock = std::chrono::steady_clock;

struct Workload {
  sparse::CscMatrix lower;
  std::vector<value_t> rhs;       // num_rhs columns, column-major
  std::vector<value_t> expected;  // direct plan.solve_batch answer
};

struct LoopResult {
  double seconds = 0.0;
  std::uint64_t completed_rhs = 0;
  std::uint64_t failures = 0;
  double throughput = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

std::vector<Workload> make_workloads(int plans, index_t n, index_t num_rhs,
                                     const std::string& backend) {
  std::vector<Workload> out;
  for (int p = 0; p < plans; ++p) {
    Workload w;
    w.lower = sparse::gen_layered_dag(n, 24, 6 * n, 0.5,
                                      static_cast<std::uint64_t>(p) + 1);
    for (index_t r = 0; r < num_rhs; ++r) {
      const auto col = sparse::gen_rhs_for_solution(
          w.lower, sparse::gen_solution(n, 100 + static_cast<std::uint64_t>(
                                                     p * num_rhs + r)));
      w.rhs.insert(w.rhs.end(), col.begin(), col.end());
    }
    const auto options = core::registry::service_options(backend);
    const auto plan = core::SolverPlan::analyze(w.lower, options.value());
    w.expected = plan.value().solve_batch(w.rhs, num_rhs).value().x;
    out.push_back(std::move(w));
  }
  return out;
}

/// Closed-loop drive: `drivers` threads, each solving its round-robin
/// workload and waiting for the answer, until `seconds` elapse. `solve`
/// returns the solution or an error; answers are checked bit-for-bit.
template <typename SolveFn>
LoopResult drive_closed_loop(const std::vector<Workload>& workloads,
                             index_t num_rhs, int drivers, double seconds,
                             SolveFn&& solve) {
  service::LatencyHistogram hist;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failures{0};
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      std::size_t i = static_cast<std::size_t>(d);
      while (Clock::now() < deadline) {
        const Workload& w = workloads[i++ % workloads.size()];
        const auto start = Clock::now();
        const core::Expected<std::vector<value_t>> x = solve(w);
        if (!x.ok() || x.value() != w.expected) {
          failures.fetch_add(1);
          continue;
        }
        hist.record(std::chrono::duration<double, std::micro>(Clock::now() -
                                                              start)
                        .count());
        completed.fetch_add(static_cast<std::uint64_t>(num_rhs));
      }
    });
  }
  for (auto& t : threads) t.join();

  LoopResult r;
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.completed_rhs = completed.load();
  r.failures = failures.load();
  r.throughput = static_cast<double>(r.completed_rhs) / r.seconds;
  const auto snap = hist.snapshot();
  r.p50_us = snap.quantile(0.50);
  r.p99_us = snap.quantile(0.99);
  return r;
}

// ---- child server processes ------------------------------------------------

struct Shard {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// fork/execs one solve_serverd (--port=0) and waits for its port file.
bool spawn_shard(const std::string& serverd, const std::string& cache_dir,
                 int threads, const std::string& tag, Shard* out) {
  const std::string port_file = cache_dir + "/port_" + tag;
  std::filesystem::remove(port_file);
  const std::string port_arg = "--port-file=" + port_file;
  const std::string threads_arg = "--threads=" + std::to_string(threads);
  const std::string cache_arg = "--cache-dir=" + cache_dir;

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    execl(serverd.c_str(), serverd.c_str(), "--port=0", port_arg.c_str(),
          threads_arg.c_str(), cache_arg.c_str(), "--max-pending=8192",
          static_cast<const char*>(nullptr));
    std::perror("execl solve_serverd");
    _exit(127);
  }

  // The daemon writes the chosen port atomically once it is listening.
  for (int tries = 0; tries < 750; ++tries) {
    std::vector<std::uint8_t> bytes;
    if (support::read_file(port_file, bytes) && !bytes.empty()) {
      out->pid = pid;
      out->port = static_cast<std::uint16_t>(
          std::atoi(std::string(bytes.begin(), bytes.end()).c_str()));
      return out->port != 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "shard %s never wrote %s\n", tag.c_str(),
               port_file.c_str());
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return false;
}

/// SIGTERM (graceful drain) and reap; true iff the daemon exited 0.
bool stop_shard(const Shard& shard) {
  kill(shard.pid, SIGTERM);
  int status = 0;
  waitpid(shard.pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// One routed measurement against `shard_count` fresh server processes.
bool run_routed_point(const std::string& serverd, const std::string& cache_dir,
                      int shard_count, int threads_per_shard,
                      const std::vector<Workload>& workloads, index_t num_rhs,
                      const std::string& backend, int drivers, double seconds,
                      LoopResult* out) {
  std::vector<Shard> shards(static_cast<std::size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    if (!spawn_shard(serverd, cache_dir, threads_per_shard,
                     std::to_string(shard_count) + "_" + std::to_string(s),
                     &shards[static_cast<std::size_t>(s)])) {
      return false;
    }
  }

  bool ok = true;
  {
    net::RouterOptions ropt;
    for (const Shard& s : shards) ropt.endpoints.push_back({"127.0.0.1", s.port});
    net::Router router(ropt);

    std::vector<net::RoutedHandle> handles;
    for (const Workload& w : workloads) {
      const auto h = router.open(w.lower, backend);
      if (!h.ok()) {
        std::fprintf(stderr, "routed open failed: %s\n", h.message().c_str());
        ok = false;
        break;
      }
      handles.push_back(h.value());
    }

    if (ok) {
      *out = drive_closed_loop(
          workloads, num_rhs, drivers, seconds, [&](const Workload& w) {
            const std::size_t idx =
                static_cast<std::size_t>(&w - workloads.data());
            return router.solve_batch(handles[idx], w.rhs, num_rhs);
          });
    }
  }  // router (and its connections) closed before the shards stop

  for (const Shard& s : shards) {
    if (!stop_shard(s)) {
      std::fprintf(stderr, "shard on port %u did not drain cleanly\n", s.port);
      ok = false;
    }
  }
  return ok && out->failures == 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "Network-tier benchmark: wire tax vs an in-process service, and the "
      "1- vs 2-shard routed scale-out study (emits BENCH_net.json)");
  cli.add_option("backend", "auto", "registry backend key or preset");
  cli.add_option("n", "3000", "rows per generated factor");
  cli.add_option("num-rhs", "4", "right-hand sides per solve frame");
  cli.add_option("plans", "6", "distinct factors in the mixed workload");
  cli.add_option("drivers", "8", "closed-loop driver threads");
  cli.add_option("seconds", "1.5", "measured wall time per configuration");
  cli.add_option("serverd", "",
                 "path to solve_serverd (default: next to this binary)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string backend = cli.get_string("backend");
  const index_t n = static_cast<index_t>(cli.get_int("n"));
  const index_t num_rhs = static_cast<index_t>(cli.get_int("num-rhs"));
  const int plans = static_cast<int>(cli.get_int("plans"));
  const int drivers = static_cast<int>(cli.get_int("drivers"));
  const double seconds = cli.get_double("seconds");

  std::string serverd = cli.get_string("serverd");
  if (serverd.empty()) {
    const std::filesystem::path self(argv[0]);
    serverd = (self.parent_path() / "solve_serverd").string();
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads_per_shard = std::max(1, static_cast<int>(hw) / 4);
  const bool gated = hw >= 4;

  std::printf("bench_net: %d plans x n=%d, %d rhs/frame, %d drivers, "
              "%.1fs/point, %u hw threads (%d per shard)\n\n",
              plans, n, num_rhs, drivers, seconds, hw, threads_per_shard);

  const std::vector<Workload> workloads =
      make_workloads(plans, n, num_rhs, backend);

  // ---- study 1: wire tax ---------------------------------------------------
  LoopResult direct;
  {
    service::ServiceOptions sopt;
    sopt.max_pending_rhs = 8192;
    service::SolveService svc(sopt);
    std::vector<core::SolverPlan> svc_plans;
    for (const Workload& w : workloads) {
      svc_plans.push_back(svc.plan_for(w.lower, backend).value());
    }
    direct = drive_closed_loop(
        workloads, num_rhs, drivers, seconds, [&](const Workload& w) {
          const std::size_t idx =
              static_cast<std::size_t>(&w - workloads.data());
          service::SolveService::Reply r =
              svc.submit_batch(svc_plans[idx], w.rhs, num_rhs, {}).get();
          using Out = core::Expected<std::vector<value_t>>;
          if (!r.ok()) return Out(r.error());
          return Out(std::move(r.value().x));
        });
  }
  std::printf("direct (no wire):   %8.0f rhs/s   p50 %6.0f us   p99 %6.0f us\n",
              direct.throughput, direct.p50_us, direct.p99_us);

  LoopResult loopback;
  {
    net::ServerOptions sopt;
    sopt.service.max_pending_rhs = 8192;
    net::SolveServer server(sopt);
    if (!server.start().ok()) {
      std::fprintf(stderr, "loopback server failed to start\n");
      return 2;
    }
    net::ClientOptions copt;
    copt.port = server.port();
    net::SolveClient client(copt);
    std::vector<net::PlanHandle> handles;
    for (const Workload& w : workloads) {
      handles.push_back(client.open(w.lower, backend).value());
    }
    loopback = drive_closed_loop(
        workloads, num_rhs, drivers, seconds, [&](const Workload& w) {
          const std::size_t idx =
              static_cast<std::size_t>(&w - workloads.data());
          return client.solve_batch(handles[idx], w.rhs, num_rhs);
        });
    server.stop();
  }
  const double wire_ratio =
      direct.throughput > 0.0 ? loopback.throughput / direct.throughput : 0.0;
  std::printf("loopback (framed):  %8.0f rhs/s   p50 %6.0f us   p99 %6.0f us   "
              "(%.2fx of direct)\n\n",
              loopback.throughput, loopback.p50_us, loopback.p99_us,
              wire_ratio);
  if (direct.failures != 0 || loopback.failures != 0) {
    std::fprintf(stderr, "wire-tax study saw failures/mismatches\n");
    return 2;
  }

  // ---- study 2: routed scale-out -------------------------------------------
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("bench_net_" + std::to_string(getpid())))
          .string();
  std::filesystem::create_directories(cache_dir);

  LoopResult one_shard, two_shard;
  const bool routed_ok =
      run_routed_point(serverd, cache_dir, 1, threads_per_shard, workloads,
                       num_rhs, backend, drivers, seconds, &one_shard) &&
      run_routed_point(serverd, cache_dir, 2, threads_per_shard, workloads,
                       num_rhs, backend, drivers, seconds, &two_shard);
  std::filesystem::remove_all(cache_dir);
  if (!routed_ok) {
    std::fprintf(stderr, "routed study failed\n");
    return 2;
  }

  const double speedup = one_shard.throughput > 0.0
                             ? two_shard.throughput / one_shard.throughput
                             : 0.0;
  std::printf("routed, 1 shard:    %8.0f rhs/s   p99 %6.0f us\n",
              one_shard.throughput, one_shard.p99_us);
  std::printf("routed, 2 shards:   %8.0f rhs/s   p99 %6.0f us   (%.2fx)\n",
              two_shard.throughput, two_shard.p99_us, speedup);

  const bool gate_pass = !gated || speedup >= 1.3;
  if (gated) {
    std::printf("gate: 2-shard >= 1.3x 1-shard: %s\n",
                gate_pass ? "PASS" : "FAIL");
  } else {
    std::printf("gate: skipped (%u hw threads; scale-out needs >= 4)\n", hw);
  }

  // ---- report --------------------------------------------------------------
  const char* path_env = std::getenv("MSPTRSV_BENCH_NET_JSON");
  const std::string path = path_env ? path_env : "BENCH_net.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"network solve server\",\n"
               "  \"backend\": \"%s\",\n"
               "  \"matrix\": {\"rows\": %d, \"plans\": %d, \"num_rhs\": %d},\n"
               "  \"drivers\": %d,\n  \"hw_threads\": %u,\n",
               backend.c_str(), n, plans, num_rhs, drivers, hw);
  std::fprintf(f,
               "  \"wire_tax\": {\"direct_rhs_per_s\": %.1f, "
               "\"loopback_rhs_per_s\": %.1f, \"ratio\": %.3f, "
               "\"direct_p99_us\": %.1f, \"loopback_p99_us\": %.1f},\n",
               direct.throughput, loopback.throughput, wire_ratio,
               direct.p99_us, loopback.p99_us);
  std::fprintf(f,
               "  \"routed_study\": {\"threads_per_shard\": %d, "
               "\"one_shard_rhs_per_s\": %.1f, \"two_shard_rhs_per_s\": %.1f, "
               "\"speedup\": %.3f, \"gate\": 1.3, \"gated\": %s, "
               "\"pass\": %s}\n}\n",
               threads_per_shard, one_shard.throughput, two_shard.throughput,
               speedup, gated ? "true" : "false", gate_pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  return gate_pass ? 0 : 1;
}
