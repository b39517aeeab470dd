// solve_serverd: the deployable solve-server daemon. Usage, one command
// line:
//
//   solve_serverd --port=7450 --threads=8
//                 --cache-dir=/var/lib/msptrsv/plans
//
// Serves the wire protocol (docs/PROTOCOL.md) until SIGTERM/SIGINT, then
// DRAINS: in-flight solves complete and are flushed before exit(0) -- a
// rolling restart behind a router never drops an admitted request.
//
// Scale-out: run N of these (one per shard) behind a net::Router. Use
// --threads to cap each shard's worker pool so N shards share a machine
// honestly, and point every shard's --cache-dir at the same directory so
// a plan analyzed by one shard is a disk hit for the rest (hash-ref
// opens).
//
//   --port=0 picks an ephemeral port; --port-file writes the chosen port
//   (atomically, via rename) for supervisors that need to discover it.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/worker_pool.hpp"
#include "net/metrics.hpp"
#include "net/server.hpp"
#include "support/blob.hpp"
#include "support/cli.hpp"
#include "support/trace.hpp"

namespace {

// Self-pipe: the signal handler writes one byte; main blocks on read.
// Everything a handler may touch must be async-signal-safe -- write(2)
// is, the server's mutex-taking stop() is not.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  (void)!write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msptrsv;

  support::CliParser cli(
      "msptrsv solve server: serves the binary wire protocol in front of a "
      "multi-tenant SolveService; drains on SIGTERM.");
  cli.add_option("port", "0", "TCP port to listen on (0 = ephemeral)");
  cli.add_option("port-file", "",
                 "write the chosen port to this file (atomic rename)");
  cli.add_option("threads", "0",
                 "worker-pool size cap for this process (0 = all cores); "
                 "use to split a machine across shards");
  cli.add_option("cache-dir", "",
                 "plan-blob directory (shared across shards = fleet warm "
                 "tier for hash-ref opens)");
  cli.add_option("max-pending", "1024",
                 "admission bound in outstanding right-hand sides");
  cli.add_option("max-connections", "64", "concurrent connection bound");
  cli.add_option("name", "msptrsv", "server name (hello-ok + metrics label)");
  cli.add_option("enable-failpoints", "false",
                 "accept failpoint frames (fault injection) over the wire; "
                 "chaos tests only -- never in production");
  cli.add_option("trace-dir", "",
                 "arm span tracing and, on drain, dump trace_<port>.json "
                 "(buffered + slow-sampled spans, Perfetto-loadable) and "
                 "metrics_<port>.prom into this directory");
  if (!cli.parse(argc, argv)) return 0;

  // Must precede any plan/service work: the process-wide pool is sized
  // once, on first use.
  core::SharedWorkerPool::configure_instance_threads(
      static_cast<int>(cli.get_int("threads")));

  net::ServerOptions options;
  options.port = static_cast<std::uint16_t>(cli.get_int("port"));
  options.max_connections =
      static_cast<std::size_t>(cli.get_int("max-connections"));
  options.server_name = cli.get_string("name");
  options.service.max_pending_rhs =
      static_cast<std::size_t>(cli.get_int("max-pending"));
  options.service.cache_dir = cli.get_string("cache-dir");
  if (!options.service.cache_dir.empty()) {
    // Create the blob directory up front: the cache's disk stores fail
    // SILENTLY on a missing directory (by design -- the warm tier is an
    // optimization), which in a fleet means every failover hash-ref open
    // misses. Refuse to start rather than run with a dark warm tier.
    std::error_code ec;
    std::filesystem::create_directories(options.service.cache_dir, ec);
    if (ec) {
      std::fprintf(stderr, "solve_serverd: cannot create --cache-dir %s: %s\n",
                   options.service.cache_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  options.allow_failpoint_control = cli.get_bool("enable-failpoints");

  const std::string trace_dir = cli.get_string("trace-dir");
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "solve_serverd: cannot create --trace-dir %s: %s\n",
                   trace_dir.c_str(), ec.message().c_str());
      return 1;
    }
    if (!support::trace::trace_set_enabled(true)) {
      std::fprintf(stderr,
                   "solve_serverd: --trace-dir set but span tracing is "
                   "compiled out (MSPTRSV_TRACE=OFF); dumps will hold only "
                   "empty documents\n");
    }
  }

  if (pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  net::SolveServer server(options);
  core::Expected<bool> started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "solve_serverd: %s\n",
                 started.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "solve_serverd: listening on 127.0.0.1:%u\n",
               server.port());

  const std::string port_file = cli.get_string("port-file");
  if (!port_file.empty()) {
    const std::string text = std::to_string(server.port()) + "\n";
    if (!support::write_file(
            port_file,
            {reinterpret_cast<const std::uint8_t*>(text.data()),
             text.size()})) {
      std::fprintf(stderr, "solve_serverd: cannot write %s\n",
                   port_file.c_str());
      return 1;
    }
  }

  // Block until a signal arrives (EINTR restarts the read).
  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0) {
  }
  std::fprintf(stderr, "solve_serverd: draining...\n");
  server.stop();
  const net::WireStats final_stats = server.wire_stats();
  if (!trace_dir.empty()) {
    // One Perfetto-loadable document per shard: the live rings plus the
    // slow sampler's retained trees, spliced into a single traceEvents
    // array (both documents are our own trace_collect_json output, so
    // the string-level splice is against a known grammar).
    std::string body;
    for (const std::string& doc : {support::trace::trace_collect_json(),
                                   support::trace::trace_slow_json()}) {
      const std::size_t open = doc.find('[');
      const std::size_t close = doc.rfind(']');
      if (open == std::string::npos || close == std::string::npos ||
          close <= open + 1) {
        continue;
      }
      if (!body.empty()) body += ",";
      body += doc.substr(open + 1, close - open - 1);
    }
    const std::string trace_doc = "{\"traceEvents\":[" + body + "]}";
    const std::string trace_path =
        trace_dir + "/trace_" + std::to_string(server.port()) + ".json";
    const std::string metrics_text =
        net::render_prometheus(final_stats, options.server_name);
    const std::string metrics_path =
        trace_dir + "/metrics_" + std::to_string(server.port()) + ".prom";
    const auto dump = [](const std::string& path, const std::string& text) {
      return support::write_file(
          path, {reinterpret_cast<const std::uint8_t*>(text.data()),
                 text.size()});
    };
    if (!dump(trace_path, trace_doc) || !dump(metrics_path, metrics_text)) {
      std::fprintf(stderr, "solve_serverd: cannot write trace dumps to %s\n",
                   trace_dir.c_str());
    } else {
      std::fprintf(stderr, "solve_serverd: wrote %s (%zu bytes)\n",
                   trace_path.c_str(), trace_doc.size());
    }
  }
  std::fprintf(stderr,
               "solve_serverd: drained; %llu rhs completed, %llu frames, "
               "%llu protocol errors\n",
               static_cast<unsigned long long>(final_stats.completed),
               static_cast<unsigned long long>(final_stats.frames_received),
               static_cast<unsigned long long>(final_stats.protocol_errors));
  return 0;
}
