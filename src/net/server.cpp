#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <utility>

#include "core/registry.hpp"
#include "net/metrics.hpp"
#include "sparse/serialize.hpp"
#include "support/failpoint.hpp"

namespace msptrsv::net {

namespace {

using core::Expected;
using core::SolveStatus;

}  // namespace

/// Per-connection state. Both peer threads hold a shared_ptr, so the
/// struct outlives whichever side tears the connection down first.
struct SolveServer::Connection {
  Socket sock;
  std::mutex write_mutex;
  std::thread peers[2];

  /// A queued reply, written strictly in arrival order after any inline
  /// reply ahead of it.
  struct Pending {
    std::uint64_t request_id = 0;
    std::future<service::SolveService::Reply> reply;
    /// Trace identity the reader decoded (all-zero = untraced) and the rx
    /// span the reply span parents under -- the writing thread may not be
    /// the one that read the frame.
    support::trace::TraceId trace_id{};
    std::uint64_t parent_span = 0;
    /// Set instead of `reply` for a control answer that must observe
    /// everything written for EARLIER requests (a trace dump sees their
    /// reply spans): encoded when its turn comes.
    std::function<std::vector<std::uint8_t>()> deferred;
  };

  /// The peers' roles, under `mutex`. At most one thread holds the read
  /// side, at most one flushes `replies`, and `replies` is not flushed
  /// while an inline solve owes the reply ahead of it.
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> replies;
  bool reading = false;
  bool writing = false;
  bool solving = false;      ///< an inline solve is running
  bool read_closed = false;  ///< no more frames will be read

  std::atomic<bool> finished{false};  ///< every reply is out (reapable)
};

SolveServer::SolveServer(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {
  injected_remaining_.store(
      options_.inject_status == SolveStatus::kOk ? 0 : options_.inject_count,
      std::memory_order_relaxed);
}

SolveServer::~SolveServer() { stop(); }

Expected<bool> SolveServer::start() {
  Expected<ListenSocket> listener =
      ListenSocket::open(options_.port, options_.backlog);
  if (!listener.ok()) return Expected<bool>(listener.error());
  listener_ = std::move(listener.value());
  port_ = listener_.port();
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void SolveServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // No new connections: shutting the listener down unblocks accept().
  // The fd is released only after the acceptor has left accept() -- a
  // close() racing it would reset the fd the acceptor is reading.
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  // No new requests: half-close every read side. The reading peer falls
  // out of read_frame with a clean EOF; the peers flush every queued reply
  // (the service answers all admitted work) and exit.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::shared_ptr<Connection>& c : connections_) {
      c->sock.shutdown_read();
    }
  }
  reap_finished(/*join_all=*/true);
}

void SolveServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    Expected<Socket> accepted = listener_.accept();
    if (!accepted.ok()) continue;  // closed listener ends the loop
    reap_finished(/*join_all=*/false);
    if (connections_active_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Bounded acceptor: tell the client why before closing, so its
      // retry policy backs off instead of reconnect-hammering.
      Socket sock = std::move(accepted.value());
      const std::vector<std::uint8_t> wire = encode_error(
          {0, SolveStatus::kOverloaded,
           "server at its connection bound (" +
               std::to_string(options_.max_connections) + ")"});
      (void)sock.send_all(wire);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(accepted.value());
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(conn);
    }
    for (std::thread& peer : conn->peers) {
      peer = std::thread([this, conn] { connection_loop(conn); });
    }
  }
}

void SolveServer::reap_finished(bool join_all) {
  std::vector<std::shared_ptr<Connection>> reap;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto keep = connections_.begin();
    for (std::shared_ptr<Connection>& c : connections_) {
      if (join_all || c->finished.load(std::memory_order_acquire)) {
        reap.push_back(std::move(c));
      } else {
        *keep++ = std::move(c);
      }
    }
    connections_.erase(keep, connections_.end());
  }
  for (const std::shared_ptr<Connection>& c : reap) {
    for (std::thread& peer : c->peers) {
      if (peer.joinable()) peer.join();
    }
  }
}

void SolveServer::write_reply(Connection& conn,
                              std::span<const std::uint8_t> wire) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  Expected<bool> sent = conn.sock.send_all(wire);
  if (!sent.ok()) {
    // Peer is gone: kick the reader out of its blocking read so the
    // connection unwinds (queued futures are still waited out -- the
    // service owes every admitted request an answer, delivered or not).
    conn.sock.shutdown_read();
  }
}

void SolveServer::connection_loop(const std::shared_ptr<Connection>& conn) {
  Connection& c = *conn;
  // This thread's frame buffers, reused from frame to frame: what it reads
  // and the solve replies it builds. Never the peer's, so a frame this
  // thread solves inline is not the buffer the peer's next read fills.
  FrameBytes rx;
  FrameBytes tx;
  std::unique_lock<std::mutex> lock(c.mutex);
  for (;;) {
    if (!c.replies.empty() && !c.writing && !c.solving) {
      c.writing = true;
      while (!c.replies.empty()) {
        Connection::Pending next = std::move(c.replies.front());
        c.replies.pop_front();
        lock.unlock();
        if (next.deferred) {
          write_reply(c, next.deferred());
        } else {
          const service::SolveService::Reply reply = next.reply.get();
          SolveOkWriter frame(tx, next.request_id,
                              reply.ok() ? reply.value().x.size() : 0);
          if (reply.ok()) {
            std::copy(reply.value().x.begin(), reply.value().x.end(),
                      frame.x().begin());
          }
          write_solve_reply(c, next.request_id, reply, next.trace_id,
                            next.parent_span, frame);
        }
        lock.lock();
      }
      c.writing = false;
    } else if (!c.reading && !c.read_closed) {
      c.reading = true;
      lock.unlock();
      read_frames(c, rx, tx);
      lock.lock();
    } else if (c.read_closed && !c.reading && !c.writing && !c.solving) {
      break;  // nothing is owed and nothing more will be read
    } else {
      c.cv.wait(lock);
    }
  }
  lock.unlock();
  c.cv.notify_all();  // the other peer sees the same state and exits too
  if (!c.finished.exchange(true, std::memory_order_acq_rel)) {
    // Every reply is flushed: send FIN so the peer sees EOF instead of a
    // connection that lingers half-dead until the next reap.
    c.sock.shutdown_write();
  }
}

void SolveServer::close_read(Connection& conn) {
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.reading = false;
    conn.read_closed = true;
  }
  conn.cv.notify_all();
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

void SolveServer::read_frames(Connection& conn, FrameBytes& rx,
                              FrameBytes& tx) {
  for (;;) {
    Expected<bool> got = read_frame(conn.sock, options_.max_frame_bytes, rx);
    if (!got.ok()) {
      if (got.status() == SolveStatus::kProtocolError) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        write_reply(conn, encode_error({0, SolveStatus::kProtocolError,
                                        got.message()}));
      }
      break;
    }
    if (!got.value()) break;  // clean close

    Expected<FrameHead> head = peek_frame(rx);
    if (!head.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      write_reply(conn, encode_error({0, SolveStatus::kProtocolError,
                                      head.message()}));
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);

    bool protocol_ok = true;
    switch (head.value().type) {
      case FrameType::kHello:
        handle_hello(conn, head.value());
        break;
      case FrameType::kOpenPlan:
        handle_open(conn, head.value());
        break;
      case FrameType::kSolve:
        // Solved inline: the read side already went to the other peer.
        if (handle_solve(conn, head.value(), tx)) return;
        break;
      case FrameType::kStats:
        handle_stats(conn, head.value());
        break;
      case FrameType::kDrain:
        handle_drain(conn, head.value());
        break;
      case FrameType::kPing:
        handle_ping(conn, head.value());
        break;
      case FrameType::kFailpoint:
        handle_failpoint(conn, head.value());
        break;
      case FrameType::kTraceDump:
        handle_trace_dump(conn, head.value());
        break;
      default:
        // A reply type arriving at the server: the peer is not a client.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        write_reply(conn,
                    encode_error({head.value().request_id,
                                  SolveStatus::kProtocolError,
                                  "reply-type frame sent to a server"}));
        protocol_ok = false;
        break;
    }
    // Handlers latch decode failures on the reader; fail-stop on them.
    if (!protocol_ok || !head.value().reader.ok()) break;
    // An open carries a whole factor or plan blob: its buffer is not kept
    // for the solves that follow.
    if (head.value().type == FrameType::kOpenPlan) rx = FrameBytes();
  }
  close_read(conn);
}

void SolveServer::write_solve_reply(Connection& conn,
                                    std::uint64_t request_id,
                                    const service::SolveService::Reply& reply,
                                    const support::trace::TraceId& trace_id,
                                    std::uint64_t parent_span,
                                    SolveOkWriter& frame) {
  if (!reply.ok()) {
    write_reply(conn, encode_error({request_id, reply.error().status,
                                    reply.error().message}));
    return;
  }
  // Reply-phase attribution: completion -> here covers the wait for the
  // replies ahead of this one; what rides IN the frame cannot include its
  // own sealing and socket flush, so the histogram figure recorded after
  // write_reply below is the fuller (and authoritative) one.
  const std::uint64_t done_ns = reply.value().completed_ns;
  support::trace::PhaseBreakdown phases = reply.value().phases;
  if (done_ns != 0) {
    phases.reply_us =
        static_cast<double>(support::trace::trace_now_ns() - done_ns) * 1e-3;
  }
  write_reply(conn, frame.finish(reply.value().wall_seconds * 1e6, &phases));
  const std::uint64_t flushed_ns = support::trace::trace_now_ns();
  if (done_ns != 0) {
    service_.record_reply_us(static_cast<double>(flushed_ns - done_ns) *
                             1e-3);
    support::trace::trace_emit("net.reply", done_ns, flushed_ns, trace_id,
                               parent_span);
  }
}

void SolveServer::handle_hello(Connection& conn, FrameHead& head) {
  Expected<HelloFrame> hello = decode_hello(head);
  if (!hello.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    hello.message()}));
    return;
  }
  if (hello.value().min_version > kProtocolVersion ||
      hello.value().max_version < kProtocolVersion) {
    // Not a wire violation -- both sides spoke valid frames -- but no
    // common version: reply and let the client give up cleanly.
    write_reply(conn,
                encode_error({head.request_id, SolveStatus::kProtocolError,
                              "no common protocol version: server speaks " +
                                  std::to_string(kProtocolVersion)}));
    head.reader.fail("version negotiation failed");
    return;
  }
  HelloOkFrame ok;
  ok.request_id = head.request_id;
  ok.version = kProtocolVersion;
  ok.max_frame_bytes = options_.max_frame_bytes;
  ok.server_name = options_.server_name;
  write_reply(conn, encode_hello_ok(ok));
}

void SolveServer::handle_open(Connection& conn, FrameHead& head) {
  Expected<OpenPlanFrame> open = decode_open_plan(head);
  if (!open.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    open.message()}));
    return;
  }
  OpenPlanFrame& frame = open.value();

  Expected<core::SolveOptions> options =
      core::registry::service_options(frame.backend_key);
  if (!options.ok()) {
    write_reply(conn, encode_error({head.request_id, options.error().status,
                                    options.error().message}));
    return;
  }

  // Content identity first: a repeat open of a factor this server already
  // holds -- by ANY connection, in any mode -- returns the existing id.
  sparse::StructuralHash hash = frame.hash;
  if (frame.mode == OpenMode::kMatrix) hash = sparse::hash_csc(frame.matrix);
  if (frame.mode == OpenMode::kPlanBlob) {
    // Computable only after deserializing; probe below.
    hash = {};
  }
  std::string key;
  if (frame.mode != OpenMode::kPlanBlob) {
    key = core::PlanCache::key_of(hash, options.value());
    std::lock_guard<std::mutex> lock(plans_mutex_);
    auto it = plans_by_key_.find(key);
    if (it != plans_by_key_.end()) {
      OpenOkFrame ok;
      ok.request_id = head.request_id;
      ok.plan_id = it->second;
      ok.rows = plans_.at(it->second).rows();
      ok.hash = hash;
      ok.source = "open";
      write_reply(conn, encode_open_ok(ok));
      return;
    }
  }

  Expected<core::SolverPlan> plan(SolveStatus::kInternalError, "unset");
  std::string source;
  switch (frame.mode) {
    case OpenMode::kMatrix:
      // Through the service's cache: analyze-on-first-use, disk-backed
      // when the service has a cache_dir.
      plan = service_.plan_for(frame.matrix, frame.backend_key);
      source = "cache";
      break;
    case OpenMode::kPlanBlob:
      plan = core::SolverPlan::deserialize(frame.plan_blob, options.value());
      source = "deserialized";
      break;
    case OpenMode::kHashRef: {
      // Not open here: the shared blob directory is the fleet's warm
      // tier -- any sibling shard (or a previous life of this one) that
      // analyzed this factor has left the plan there.
      const std::string& dir = service_.options().cache_dir;
      if (dir.empty()) {
        plan = Expected<core::SolverPlan>(
            SolveStatus::kBadSnapshot,
            "hash-ref open, but this server has no plan-blob directory");
      } else {
        plan = core::SolverPlan::load(dir + "/" + key + ".plan",
                                      options.value());
      }
      source = "disk";
      break;
    }
  }
  if (plan.ok() && frame.mode != OpenMode::kMatrix) {
    // A blob answers only for the factor whose hash it recorded: on a
    // hash-ref open, the requested one; an uploaded blob, whose record its
    // peer wrote, the factor it carries -- else a crafted record would
    // answer other clients' opens of another factor.
    if (frame.mode == OpenMode::kPlanBlob) {
      hash = sparse::hash_csc(plan.value().factor());
      key = core::PlanCache::key_of(hash, options.value());
    }
    if (*plan.value().recorded_hash() != hash) {
      plan = Expected<core::SolverPlan>(
          SolveStatus::kBadSnapshot,
          "plan blob records another factor's hash than the one opened");
    }
  }
  if (!plan.ok()) {
    write_reply(conn, encode_error({head.request_id, plan.error().status,
                                    plan.error().message}));
    return;
  }

  OpenOkFrame ok;
  ok.request_id = head.request_id;
  ok.rows = plan.value().rows();
  ok.hash = hash;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    auto it = plans_by_key_.find(key);
    if (it != plans_by_key_.end()) {
      ok.plan_id = it->second;  // raced with another connection's open
      ok.source = "open";
    } else {
      ok.plan_id = next_plan_id_++;
      plans_.emplace(ok.plan_id, std::move(plan.value()));
      plans_by_key_.emplace(key, ok.plan_id);
      ok.source = source;
    }
  }
  write_reply(conn, encode_open_ok(ok));
}

bool SolveServer::handle_solve(Connection& conn, FrameHead& head,
                               FrameBytes& tx) {
  // The right-hand sides stay where read_frame put them: the inline solve
  // reads them in place, and only a queued submit copies them out.
  std::span<const value_t> rhs;
  Expected<SolveFrame> solve = decode_solve_in_place(head, rhs);
  if (!solve.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    solve.message()}));
    return false;
  }
  SolveFrame& frame = solve.value();

  // Deterministic fault injection for the client retry tests.
  std::uint64_t budget =
      injected_remaining_.load(std::memory_order_relaxed);
  while (budget > 0) {
    if (injected_remaining_.compare_exchange_weak(
            budget, budget - 1, std::memory_order_relaxed)) {
      write_reply(conn, encode_error({head.request_id,
                                      options_.inject_status,
                                      "injected fault (testing)"}));
      return false;
    }
  }

  const core::SolverPlan* plan = nullptr;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    auto it = plans_.find(frame.plan_id);
    if (it != plans_.end()) plan = &it->second;
  }
  if (plan == nullptr) {
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kBadSnapshot,
                                    "unknown plan id " +
                                        std::to_string(frame.plan_id)}));
    return false;
  }
  const std::size_t expected =
      static_cast<std::size_t>(plan->rows()) *
      static_cast<std::size_t>(frame.num_rhs);
  if (rhs.size() != expected) {
    write_reply(conn,
                encode_error({head.request_id, SolveStatus::kShapeMismatch,
                              "rhs has " + std::to_string(rhs.size()) +
                                  " entries, want rows*num_rhs = " +
                                  std::to_string(expected)}));
    return false;
  }

  // Traced request: the rx span is the server-side ROOT of this
  // request's tree (the client's matching span shares only the trace id
  // -- span ids are per-process). Everything downstream (queue wait,
  // gang claim, kernel levels, the reply) parents under it. A frame
  // WITHOUT a trace id on an armed server gets one minted here: tracing
  // and slow-sampling must work against legacy clients too, they just
  // cannot stitch the client half.
  std::optional<support::trace::ScopedTraceContext> trace_ctx;
  std::optional<support::trace::TraceSpan> rx_span;
  if (MSPTRSV_TRACE_ARMED()) {
    if (!support::trace::trace_id_set(frame.trace_id)) {
      frame.trace_id = support::trace::make_trace_id();
    }
    trace_ctx.emplace(frame.trace_id);
    rx_span.emplace("net.rx");
  }

  service::SubmitOptions submit;
  submit.priority = frame.priority;
  submit.deadline = std::chrono::microseconds(frame.deadline_us);
  submit.trace_id = frame.trace_id;
  submit.parent_span = rx_span ? rx_span->span_id() : 0;

  // Idle connection, idle shard: solve on this thread. Nothing is owed
  // ahead of this reply, so it can be written the moment it exists, and
  // the read side goes to the other peer first so pings and pipelined
  // frames keep flowing during the solve. `solving` belongs to whichever
  // thread set it: a frame read during another thread's inline solve
  // must leave it set, or that solve's reply could be overtaken and its
  // connection closed under it.
  bool run_here;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    run_here = conn.replies.empty() && !conn.writing && !conn.solving;
    if (run_here) conn.solving = true;
  }
  if (run_here) {
    rx_span.reset();  // the frame is read; what follows is the solve
    // The reply frame is laid out first, and the kernel writes x into it.
    SolveOkWriter out(tx, head.request_id, rhs.size());
    std::optional<service::SolveService::Reply> reply = service_.solve_here(
        *plan, rhs, frame.num_rhs, out.x(), submit, [&conn] {
          {
            std::lock_guard<std::mutex> lock(conn.mutex);
            conn.reading = false;
          }
          conn.cv.notify_all();
        });
    if (reply) {
      write_solve_reply(conn, head.request_id, *reply, frame.trace_id,
                        submit.parent_span, out);
    }
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      conn.solving = false;
    }
    if (reply) {
      conn.cv.notify_all();  // replies queued behind this one may go now
      return true;
    }
  }

  // Plans are never erased while the server lives, and SolverPlan copies
  // share state, so the pointer into plans_ stays valid across the
  // asynchronous solve.
  std::future<service::SolveService::Reply> reply = service_.submit_batch(
      *plan, std::vector<value_t>(rhs.begin(), rhs.end()), frame.num_rhs,
      submit);
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.replies.push_back({head.request_id, std::move(reply),
                            frame.trace_id, submit.parent_span, {}});
  }
  conn.cv.notify_all();
  return false;
}

void SolveServer::handle_trace_dump(Connection& conn, FrameHead& head) {
  Expected<TraceDumpFrame> frame = decode_trace_dump(head);
  if (!frame.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    frame.message()}));
    return;
  }
  // Served even when span recording is compiled out or disarmed: the
  // reply is then an empty trace document, which a stitching router
  // treats the same as "this shard saw nothing". Queued FIFO behind this
  // connection's earlier solves: each solve's net.reply span is recorded
  // after its reply is flushed, so a dump requested after a reply arrived
  // must not be collected before that span exists.
  auto collect = [request_id = head.request_id,
                  filter = std::move(frame.value().filter),
                  include_slow = frame.value().include_slow] {
    TraceDumpOkFrame ok;
    ok.request_id = request_id;
    if (!filter.empty()) {
      support::trace::TraceId id{};
      (void)support::trace::trace_id_parse(filter, &id);
      ok.json = support::trace::trace_collect_json(id);
    } else {
      ok.json = support::trace::trace_collect_json();
    }
    ok.slow_json = include_slow ? support::trace::trace_slow_json()
                                : std::string("{\"traceEvents\":[]}");
    return encode_trace_dump_ok(ok);
  };
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    Connection::Pending pending;
    pending.request_id = head.request_id;
    pending.deferred = std::move(collect);
    conn.replies.push_back(std::move(pending));
  }
  conn.cv.notify_all();
}

void SolveServer::handle_stats(Connection& conn, FrameHead& head) {
  Expected<StatsFrame> stats = decode_stats(head);
  if (!stats.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    stats.message()}));
    return;
  }
  StatsOkFrame ok;
  ok.request_id = head.request_id;
  ok.format = stats.value().format;
  if (ok.format == StatsFormat::kPrometheus) {
    ok.text = render_prometheus(wire_stats(), options_.server_name);
  } else {
    ok.stats = wire_stats();
  }
  write_reply(conn, encode_stats_ok(ok));
}

void SolveServer::handle_drain(Connection& conn, FrameHead& head) {
  Expected<DrainFrame> drain = decode_drain(head);
  if (!drain.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    drain.message()}));
    return;
  }
  // Blocks THIS connection's reader until every admitted request (from
  // any connection) is answered; other connections keep flowing.
  service_.drain();
  DrainOkFrame ok;
  ok.request_id = head.request_id;
  ok.completed = service_.stats().completed;
  write_reply(conn, encode_drain_ok(ok));
}

void SolveServer::handle_ping(Connection& conn, FrameHead& head) {
  Expected<PingFrame> ping = decode_ping(head);
  if (!ping.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    ping.message()}));
    return;
  }
  // Answered by the thread holding the read side, without touching the
  // solve path (an inline solve hands the read side over before it
  // starts): a pong certifies the process, acceptor, and this connection
  // are alive, nothing more (health probers want exactly that and no
  // queue coupling).
  write_reply(conn, encode_pong({head.request_id}));
}

void SolveServer::handle_failpoint(Connection& conn, FrameHead& head) {
  Expected<FailpointFrame> frame = decode_failpoint(head);
  if (!frame.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    write_reply(conn, encode_error({head.request_id,
                                    SolveStatus::kProtocolError,
                                    frame.message()}));
    return;
  }
  if (!options_.allow_failpoint_control) {
    write_reply(conn,
                encode_error({head.request_id, SolveStatus::kInvalidOptions,
                              "failpoint control is disabled on this server "
                              "(start it with --enable-failpoints)"}));
    return;
  }
  if (!support::failpoints_compiled()) {
    write_reply(conn,
                encode_error({head.request_id, SolveStatus::kInvalidOptions,
                              "this server was built without failpoints "
                              "(MSPTRSV_FAILPOINTS=OFF)"}));
    return;
  }
  if (frame.value().name.empty()) {
    support::failpoint_clear_all();
  } else if (!support::failpoint_set(frame.value().name,
                                     frame.value().spec)) {
    write_reply(conn,
                encode_error({head.request_id, SolveStatus::kInvalidOptions,
                              "failpoint spec did not parse: '" +
                                  frame.value().spec + "'"}));
    return;
  }
  FailpointOkFrame ok;
  ok.request_id = head.request_id;
  ok.armed = static_cast<std::uint32_t>(support::failpoint_armed_count());
  write_reply(conn, encode_failpoint_ok(ok));
}

WireStats SolveServer::wire_stats() const {
  const service::ServiceStatsSnapshot snap = service_.stats();
  WireStats out;
  out.submitted = snap.submitted;
  out.completed = snap.completed;
  out.failed = snap.failed;
  out.rejected = snap.rejected;
  out.shed = snap.shed;
  out.batches = snap.batches;
  out.coalesced_rhs = snap.coalesced_rhs;
  out.queue_depth = snap.queue_depth;
  out.peak_queue_depth = snap.peak_queue_depth;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  out.frames_received = frames_received_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    out.plans_open = plans_.size();
  }
  out.latency = snap.latency_hist;
  for (std::size_t c = 0; c < service::kNumPriorities; ++c) {
    out.per_class[c].submitted = snap.per_class[c].submitted;
    out.per_class[c].completed = snap.per_class[c].completed;
    out.per_class[c].shed = snap.per_class[c].shed;
    out.per_class[c].latency = snap.per_class[c].latency_hist;
  }
  const core::PlanCache::Stats cache = service_.plan_cache().stats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.cache_byte_evictions = cache.byte_evictions;
  out.cache_disk_hits = cache.disk_hits;
  out.cache_disk_stores = cache.disk_stores;
  out.phases = snap.phase_hist;
  return out;
}

}  // namespace msptrsv::net
