// The network-facing solve server: a bounded TCP acceptor speaking the
// frame protocol (net/protocol.hpp) in front of a service::SolveService.
//
// Threading model, per connection: two PEER threads that take turns.
//  * Whichever peer holds the READ SIDE decodes frames and handles them.
//    Control frames (hello, open, stats, drain, ping) are answered by it
//    directly.
//  * A solve frame that arrives on an IDLE connection is solved by the
//    thread that read it, when the service has a dispatch slot free and
//    nothing queued on the plan's shard (SolveService::solve_here). Idle
//    means no earlier reply is queued or being written and no other
//    inline solve is running. The thread hands the read side to its peer
//    before the solve starts, so pings and pipelined frames keep flowing
//    while it solves; then it writes the reply itself. On an idle
//    connection a request's critical path therefore crosses one server
//    thread instead of four (reader, dispatcher, pool worker, reply
//    writer); the peer woken by the hand-off is off that path.
//  * Any other solve frame is submitted to the service (queue, dispatcher,
//    pool), and its future is queued. The peer that does not hold the
//    read side waits the queued futures out in FIFO order, behind any
//    inline reply still owed, and writes the replies. Pipelined solves
//    never block the reader, and under load coalescing, priorities and
//    packing apply as before. Trace dumps queue the same way, so a dump
//    asked for after a reply arrived always contains that reply's span.
//  * all writes to one socket are serialized by a per-connection mutex
//    (control replies, inline replies and queued replies interleave).
//
// Failure policy is FAIL-STOP PER CONNECTION: the first malformed frame
// (bad length prefix, CRC mismatch, unknown type, out-of-range field)
// gets a best-effort kProtocolError reply and the connection is closed.
// The process never dies on wire input -- hostile bytes are spent by the
// same bounds-checked BlobReader that validates plan files -- and other
// connections are unaffected.
//
// Graceful drain: stop() closes the acceptor, half-closes every
// connection's read side (no NEW requests), lets the service finish every
// admitted solve, flushes every queued reply, and joins. A serving
// process wraps stop() in its SIGTERM handler (tools/solve_serverd.cpp)
// so a deploy never drops an in-flight solve.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/solve_service.hpp"

namespace msptrsv::net {

struct ServerOptions {
  /// 0 = ephemeral; read the chosen port back with port().
  std::uint16_t port = 0;
  int backlog = 64;
  /// Connections past this are answered kOverloaded and closed.
  std::size_t max_connections = 64;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Announced in hello-ok and stamped on Prometheus series.
  std::string server_name = "msptrsv";
  /// The wrapped service's configuration (its cache_dir doubles as the
  /// shared blob directory hash-ref opens resolve against).
  service::ServiceOptions service;

  // ---- fault injection (tests only) ----------------------------------------
  /// When != kOk, the first `inject_count` solve frames are answered with
  /// this status instead of being submitted -- the deterministic way to
  /// exercise client retry policy (injected kOverloaded never races real
  /// backpressure).
  core::SolveStatus inject_status = core::SolveStatus::kOk;
  std::uint64_t inject_count = 0;
  /// Accept kFailpoint frames (arm/clear support/failpoint.hpp sites in
  /// this process over the wire). OFF by default: a production server must
  /// never let a peer inject faults; the chaos tests start solve_serverd
  /// with --enable-failpoints.
  bool allow_failpoint_control = false;
};

class SolveServer {
 public:
  explicit SolveServer(ServerOptions options = {});
  /// stop()s if still running.
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Binds, listens, and starts the acceptor. kNetworkError if the port
  /// cannot be bound.
  core::Expected<bool> start();

  /// Graceful shutdown: no new connections, no new requests, every
  /// admitted solve answered and flushed, all threads joined. Idempotent.
  void stop();

  /// The bound port (after start()).
  std::uint16_t port() const { return port_; }

  service::SolveService& service() { return service_; }

  /// Point-in-time mergeable stats: the service snapshot plus the wire
  /// counters -- what the stats frame serves in both formats.
  WireStats wire_stats() const;

 private:
  struct Connection;

  void accept_loop();
  void reap_finished(bool join_all);
  /// Each of a connection's two peer threads runs this: it takes the read
  /// side when nobody holds it, flushes queued replies when nobody is
  /// flushing and no inline reply is owed ahead of them, and exits once
  /// the read side is closed and nothing is owed.
  void connection_loop(const std::shared_ptr<Connection>& conn);
  /// Holds the read side: reads frames into `rx` and handles them until
  /// one is solved inline (the read side has then passed to the other
  /// peer) or the connection stops reading. `rx` and `tx` are the calling
  /// thread's own buffers.
  void read_frames(Connection& conn, FrameBytes& rx, FrameBytes& tx);
  void close_read(Connection& conn);

  /// Writes `wire` on the connection (serialized); on failure the
  /// connection is torn down (reader kicked via shutdown).
  void write_reply(Connection& conn, std::span<const std::uint8_t> wire);
  /// Writes one solve reply -- `frame` sealed, x already in it, or an
  /// error frame when `reply` failed -- then records its reply phase and
  /// its net.reply span.
  void write_solve_reply(Connection& conn, std::uint64_t request_id,
                         const service::SolveService::Reply& reply,
                         const support::trace::TraceId& trace_id,
                         std::uint64_t parent_span, SolveOkWriter& frame);

  void handle_hello(Connection& conn, FrameHead& head);
  void handle_open(Connection& conn, FrameHead& head);
  /// True when the solve ran inline and the read side was handed over.
  /// An inline solve reads its rhs in place in the frame and writes x
  /// straight into its reply frame, built in `tx`.
  bool handle_solve(Connection& conn, FrameHead& head, FrameBytes& tx);
  void handle_stats(Connection& conn, FrameHead& head);
  void handle_drain(Connection& conn, FrameHead& head);
  void handle_ping(Connection& conn, FrameHead& head);
  void handle_failpoint(Connection& conn, FrameHead& head);
  void handle_trace_dump(Connection& conn, FrameHead& head);

  ServerOptions options_;
  service::SolveService service_;
  ListenSocket listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> running_{false};

  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  /// Plans opened over the wire, shared by every connection: id -> plan
  /// (copies share symbolic state, so this is cheap), plus the
  /// content-key index that deduplicates repeat opens of the same factor.
  mutable std::mutex plans_mutex_;
  std::unordered_map<std::uint64_t, core::SolverPlan> plans_;
  std::unordered_map<std::string, std::uint64_t> plans_by_key_;
  std::uint64_t next_plan_id_ = 1;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> injected_remaining_{0};
};

}  // namespace msptrsv::net
