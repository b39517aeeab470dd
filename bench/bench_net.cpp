// Network-tier benchmark: what the wire costs, and what scale-out buys.
//
// Three studies:
//
//  * CODEC -- one serve-sized solve frame (a 140^2 grid factor, 19,600
//    rows) through each codec step of the idle-connection inline path,
//    timed alone: the CRC implementation and its GB/s, encode, verify and
//    decode on both sides, the value-array copies and zero-fills per
//    request, and the wire tax of one request (client.solve round trip
//    minus the kernel) split into codec, a raw TCP ping-pong of the same
//    size, and the rest (thread wake-ups, syscalls).
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
#include <span>
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

// ---- codec study -------------------------------------------------------------

/// One solve frame of a 140^2 grid factor (19,600 rows, one rhs: the size
/// perfbench's serve workload sends) through each codec step of the inline
/// path, timed alone, and the round trip those steps sit in.
struct CodecStudy {
  index_t rows = 0;
  std::size_t frame_bytes = 0;
  std::string crc_path;
  double crc_gb_per_s = 0.0;
  // Per request, in order: client encode (rhs copied into the frame, CRC),
  // server verify (CRC), server decode (in place), server reply seal (x is
  // already in the frame: CRC), client verify, client decode (x copied out).
  double encode_us = 0.0, verify_us = 0.0, decode_us = 0.0;
  double reply_seal_us = 0.0, reply_verify_us = 0.0, reply_decode_us = 0.0;
  int value_copies = 0;
  int zero_fills = 0;
  // The round trip: client.solve on an idle loopback connection, the same
  // solve straight into a caller buffer, and a raw socket ping-pong of the
  // frame's size each way.
  double request_us = 0.0, kernel_us = 0.0, raw_tcp_us = 0.0;
  double codec_us() const {
    return encode_us + verify_us + decode_us + reply_seal_us +
           reply_verify_us + reply_decode_us;
  }
  double wire_tax_us() const { return request_us - kernel_us; }
};

/// Median microseconds of `reps` calls of `fn`.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us(static_cast<std::size_t>(reps));
  for (double& t : us) {
    const auto t0 = Clock::now();
    fn();
    t = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  }
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[static_cast<std::size_t>(reps / 2)];
}

/// Median microseconds of peek_frame (the CRC check) and of `decode` on
/// the head it returns, over `reps` rounds on `blob`; false when either
/// fails.
template <typename Decode>
bool time_verify_decode(int reps, const net::FrameBytes& blob, Decode decode,
                        double* verify_us, double* decode_us) {
  std::vector<double> verify(static_cast<std::size_t>(reps));
  std::vector<double> decoded(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    core::Expected<net::FrameHead> head = net::peek_frame(blob);
    const auto t1 = Clock::now();
    const bool ok = head.ok() && decode(head.value());
    const auto t2 = Clock::now();
    if (!ok) return false;
    verify[r] = std::chrono::duration<double, std::micro>(t1 - t0).count();
    decoded[r] = std::chrono::duration<double, std::micro>(t2 - t1).count();
  }
  std::sort(verify.begin(), verify.end());
  std::sort(decoded.begin(), decoded.end());
  *verify_us = verify[static_cast<std::size_t>(reps / 2)];
  *decode_us = decoded[static_cast<std::size_t>(reps / 2)];
  return true;
}

bool within(const void* p, const net::FrameBytes& buf) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return b >= buf.data() && b < buf.data() + buf.size();
}

bool run_codec_study(const std::string& backend, CodecStudy* out) {
  constexpr int kReps = 2000;
  const sparse::CscMatrix lower = sparse::gen_grid2d_lower(140, 140);
  const std::vector<value_t> rhs = sparse::gen_rhs_for_solution(
      lower, sparse::gen_solution(lower.rows, 7));
  CodecStudy& c = *out;
  c.rows = lower.rows;

  net::SolveFrame frame;
  frame.request_id = 1;
  frame.plan_id = 1;
  net::FrameBytes send_buf, rx, tx;
  std::span<const std::uint8_t> wire =
      net::encode_solve_into(send_buf, frame, rhs);
  c.frame_bytes = wire.size();
  c.encode_us = median_us(
      kReps, [&] { wire = net::encode_solve_into(send_buf, frame, rhs); });
  rx.assign(wire.begin() + 4, wire.end());
  c.crc_path = support::crc32_implementation();
  const double crc_us = median_us(kReps, [&] {
    volatile std::uint32_t sink = support::crc32(rx);
    (void)sink;
  });
  c.crc_gb_per_s = static_cast<double>(rx.size()) / crc_us * 1e-3;

  std::span<const value_t> view;
  if (!time_verify_decode(
          kReps, rx,
          [&view](net::FrameHead& head) {
            return net::decode_solve_in_place(head, view).ok();
          },
          &c.verify_us, &c.decode_us) ||
      view.size() != rhs.size()) {
    return false;
  }
  const bool rhs_in_place = within(view.data(), rx);

  // The reply: the kernel writes x into the frame, so what the codec adds
  // is laying the frame out and sealing it.
  bool x_in_place = false;
  std::span<const std::uint8_t> reply_wire;
  const support::trace::PhaseBreakdown phases{};
  c.reply_seal_us = median_us(kReps, [&] {
    net::SolveOkWriter w(tx, 1, rhs.size());
    x_in_place = within(w.x().data(), tx);
    reply_wire = w.finish(42.0, &phases);
  });
  const net::FrameBytes reply_rx(reply_wire.begin() + 4, reply_wire.end());
  if (!time_verify_decode(
          kReps, reply_rx,
          [](net::FrameHead& head) { return net::decode_solve_ok(head).ok(); },
          &c.reply_verify_us, &c.reply_decode_us)) {
    return false;
  }

  // Copies of the value arrays per request: the client's rhs into its
  // frame and its x out of the reply always; the server's only when the
  // rhs is not read in place or x is not written in place. Zero-fills:
  // the two received frames, when resizing a FrameBytes writes its bytes
  // (the poisoned bytes below survive a resize otherwise); the solution
  // buffer is the reply frame itself.
  net::FrameBytes poison(4096, 0xAB);
  poison.clear();
  poison.resize(4096);
  const bool resize_zero_fills =
      std::any_of(poison.begin(), poison.end(),
                  [](std::uint8_t b) { return b != 0xAB; });
  c.value_copies = 2 + (rhs_in_place ? 0 : 1) + (x_in_place ? 0 : 1);
  c.zero_fills = resize_zero_fills ? 2 : 0;

  // The round trip on an idle connection (the inline path) against the
  // kernel alone, and a raw ping-pong of the frame's size.
  net::SolveServer server;
  if (!server.start().ok()) return false;
  {
    net::ClientOptions copt;
    copt.port = server.port();
    net::SolveClient client(copt);
    const auto handle = client.open(lower, backend);
    if (!handle.ok()) return false;
    const auto plan = server.service().plan_for(lower, backend);
    if (!plan.ok()) return false;
    std::vector<value_t> x(rhs.size());
    if (!plan->solve_batch(rhs, 1, x).ok()) return false;
    bool right = true;
    for (int warm = 0; warm < 50; ++warm) {
      const auto got = client.solve(handle.value(), rhs);
      right = right && got.ok() && got.value() == x;
    }
    if (!right) return false;
    c.request_us =
        median_us(kReps, [&] { (void)client.solve(handle.value(), rhs); });
    c.kernel_us = median_us(kReps, [&] { (void)plan->solve_batch(rhs, 1, x); });
  }
  server.stop();

  auto listener = net::ListenSocket::open(0, 4);
  if (!listener.ok()) return false;
  std::vector<std::uint8_t> ping(c.frame_bytes, 0x5A);
  std::thread echo([&listener, n = c.frame_bytes] {
    auto peer = listener.value().accept();
    if (!peer.ok()) return;
    std::vector<std::uint8_t> buf(n);
    bool eof = false;
    while (peer.value().recv_exact(buf, &eof).ok() && !eof &&
           peer.value().send_all(buf).ok()) {
    }
  });
  {
    auto sock = net::tcp_connect("127.0.0.1", listener.value().port());
    if (sock.ok()) {
      c.raw_tcp_us = median_us(kReps, [&] {
        (void)sock.value().send_all(ping);
        (void)sock.value().recv_exact(ping, nullptr);
      });
    }
  }  // closing the client ends the echo loop
  listener.value().shutdown();
  echo.join();
  return c.raw_tcp_us > 0.0;
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

  // ---- study 0: the codec on one serve-sized frame ------------------------
  CodecStudy codec;
  if (!run_codec_study(backend, &codec)) {
    std::fprintf(stderr, "codec study failed\n");
    return 2;
  }
  std::printf(
      "codec, %zu-byte solve frame: crc %s %.1f GB/s; encode %.1f, verify "
      "%.1f, decode %.1f, reply seal %.1f, reply verify %.1f, reply decode "
      "%.1f us; %d value-array copies, %d zero-fills per request\n",
      codec.frame_bytes, codec.crc_path.c_str(), codec.crc_gb_per_s,
      codec.encode_us, codec.verify_us, codec.decode_us, codec.reply_seal_us,
      codec.reply_verify_us, codec.reply_decode_us, codec.value_copies,
      codec.zero_fills);
  std::printf(
      "request %.1f us = kernel %.1f + wire tax %.1f (codec %.1f, raw tcp "
      "ping-pong %.1f, rest %.1f)\n\n",
      codec.request_us, codec.kernel_us, codec.wire_tax_us(), codec.codec_us(),
      codec.raw_tcp_us,
      codec.wire_tax_us() - codec.codec_us() - codec.raw_tcp_us);

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
  std::fprintf(
      f,
      "  \"codec_study\": {\"rows\": %d, \"frame_bytes\": %zu, "
      "\"crc_path\": \"%s\", \"crc_gb_per_s\": %.2f, \"encode_us\": %.2f, "
      "\"verify_us\": %.2f, \"decode_us\": %.2f, \"reply_seal_us\": %.2f, "
      "\"reply_verify_us\": %.2f, \"reply_decode_us\": %.2f, "
      "\"codec_us\": %.2f, \"value_copies\": %d, \"zero_fills\": %d, "
      "\"request_us\": %.2f, \"kernel_us\": %.2f, \"wire_tax_us\": %.2f, "
      "\"raw_tcp_us\": %.2f},\n",
      codec.rows, codec.frame_bytes, codec.crc_path.c_str(),
      codec.crc_gb_per_s, codec.encode_us, codec.verify_us, codec.decode_us,
      codec.reply_seal_us, codec.reply_verify_us, codec.reply_decode_us,
      codec.codec_us(),
      codec.value_copies, codec.zero_fills, codec.request_us, codec.kernel_us,
      codec.wire_tax_us(), codec.raw_tcp_us);
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
