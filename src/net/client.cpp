#include "net/client.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "support/trace.hpp"

namespace msptrsv::net {

namespace {

using core::Expected;
using core::SolveStatus;

/// Decodes a verified reply of type `want` with `decode`; an Error frame
/// comes back as its typed status, any other type as a protocol error.
template <typename Frame>
Expected<Frame> decode_reply(SolveClient::RawReply raw, FrameType want,
                             Expected<Frame> (*decode)(FrameHead&)) {
  if (!raw.ok()) return Expected<Frame>(raw.error());
  FrameHead& head = raw.value().head();
  if (head.type == FrameType::kError) {
    Expected<ErrorFrame> err = decode_error(head);
    if (!err.ok()) return Expected<Frame>(err.error());
    return Expected<Frame>(err.value().status, err.value().message);
  }
  if (head.type != want) {
    return Expected<Frame>(
        SolveStatus::kProtocolError,
        "expected frame type " + std::to_string(static_cast<int>(want)) +
            ", got frame type " +
            std::to_string(static_cast<int>(head.type)));
  }
  return decode(head);
}

}  // namespace

Expected<std::vector<value_t>> decode_solve_reply(VerifiedFrame reply) {
  Expected<SolveOkFrame> ok = decode_reply(
      SolveClient::RawReply(std::move(reply)), FrameType::kSolveOk,
      decode_solve_ok);
  if (!ok.ok()) return Expected<std::vector<value_t>>(ok.error());
  return std::move(ok.value().x);
}

SolveClient::SolveClient(ClientOptions options)
    : options_(std::move(options)),
      frame_bytes_(options_.max_frame_bytes),
      rng_(options_.retry.seed) {}

SolveClient::~SolveClient() { close(); }

bool SolveClient::connected() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return connected_;
}

void SolveClient::close() {
  std::thread stale;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (connected_) disconnect_locked("client closed");
    stale = std::move(reader_);
  }
  if (stale.joinable()) stale.join();
  std::unique_lock<std::mutex> lock(state_mutex_);
  // A caller reading the socket was kicked by the shutdown; the fd is
  // released only once it has let go.
  reader_cv_.wait(lock, [&] { return !reading_; });
  sock_.close();
}

Expected<bool> SolveClient::connect() {
  // Join a stale reader first (it exits as soon as its socket dies); the
  // join must not hold state_mutex_ -- the reader takes it to finish.
  std::thread stale;
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    // A connection is usable once its plan opens are replayed: before
    // that, a request could name a plan id the server has not assigned.
    reader_cv_.wait(lock, [&] { return !replaying_; });
    if (connected_) {
      // Nobody reads an idle connection, so a server that closed it (a
      // restart, a crash) is noticed here, before a request is sent into
      // the dead socket.
      if (reading_ || !pending_.empty() || !sock_.peer_closed()) return true;
      disconnect_locked("server closed the connection");
    }
    stale = std::move(reader_);
  }
  if (stale.joinable()) stale.join();

  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    // A caller may still be reading the dead socket (shut down, so it is
    // on its way out): the socket is replaced only once it has let go --
    // or another caller has replaced it already, and then this one waits
    // for that caller's replay, not for reads that wake nobody.
    reader_cv_.wait(lock,
                    [&] { return connected_ ? !replaying_ : !reading_; });
    if (connected_) return true;  // raced with another caller's connect
    Expected<bool> handshake = connect_locked();
    if (!handshake.ok()) return handshake;
    replaying_ = true;
  }

  // Replay plan opens (reader is live; these ride the pending map like
  // any request). A replay failure poisons the fresh connection -- the
  // handle the caller holds MUST be valid once connect() returns ok.
  std::size_t nspecs;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    nspecs = specs_.size();
  }
  for (std::size_t i = 0; i < nspecs; ++i) {
    OpenSpec spec;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      spec = specs_[i];  // copy: the open runs unlocked
    }
    Expected<OpenOkFrame> ok = open_on_wire(spec);
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!ok.ok()) {
      replaying_ = false;
      if (connected_) disconnect_locked("open replay failed: " + ok.message());
      reader_cv_.notify_all();
      return Expected<bool>(ok.error());
    }
    specs_[i].plan_id = ok.value().plan_id;
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    replaying_ = false;
    reader_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    stats_.reconnects += 1;
  }
  return true;
}

Expected<bool> SolveClient::connect_locked() {
  Expected<Socket> sock = tcp_connect(options_.host, options_.port);
  if (!sock.ok()) return Expected<bool>(sock.error());
  sock_ = std::move(sock.value());

  // Synchronous hello exchange BEFORE the reader exists: nobody else
  // touches the socket yet, so direct I/O is race-free.
  HelloFrame hello;
  hello.request_id = next_request_id_++;
  hello.client_name = options_.client_name;
  Expected<bool> sent = sock_.send_all(encode_hello(hello));
  if (!sent.ok()) return sent;
  FrameBytes blob;
  Expected<bool> got = read_frame(sock_, options_.max_frame_bytes, blob);
  if (!got.ok()) return got;
  if (!got.value()) {
    return Expected<bool>(SolveStatus::kNetworkError,
                          "server closed during the hello exchange");
  }
  Expected<HelloOkFrame> ok =
      decode_reply(VerifiedFrame::verify(std::move(blob)),
                   FrameType::kHelloOk, decode_hello_ok);
  if (!ok.ok()) return Expected<bool>(ok.error());
  frame_bytes_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(options_.max_frame_bytes,
                              std::max<std::uint64_t>(
                                  ok.value().max_frame_bytes,
                                  support::kBlobMinBytes + 9)));

  connected_ = true;
  const std::uint64_t epoch = ++epoch_;
  reader_ = std::thread([this, epoch] { reader_loop(epoch); });
  return true;
}

void SolveClient::reader_loop(std::uint64_t epoch) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    // Sleep while nobody is owed a reply, or while a caller reads.
    reader_cv_.wait(lock, [&] {
      return epoch_ != epoch || !connected_ ||
             (!reading_ && !pending_.empty());
    });
    if (epoch_ != epoch || !connected_) return;  // superseded
    reading_ = true;
    route_one(lock);
    release_read_locked();
  }
}

bool SolveClient::route_one(std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  // Unlocked read and verify: reading_ makes this thread the socket's only
  // reader, and the socket is not replaced or released while reading_ is
  // set. The CRC is computed here, once; callers decode the verified frame,
  // which owns its bytes (the caller may be another thread).
  FrameBytes blob;
  Expected<bool> got = read_frame(sock_, frame_bytes_, blob);
  RawReply reply = !got.ok() ? RawReply(got.error())
                   : !got.value()
                       ? RawReply(SolveStatus::kNetworkError,
                                  "server closed the connection")
                       : VerifiedFrame::verify(std::move(blob));
  lock.lock();
  if (!connected_) return false;  // torn down meanwhile; pending failed
  if (!reply.ok()) {
    // A dead socket, or the server is speaking garbage: fail-stop our
    // side too.
    disconnect_locked(reply.message());
    return false;
  }
  auto it = pending_.find(reply.value().head().request_id);
  if (it == pending_.end()) return true;  // unsolicited; ignore
  std::promise<RawReply> promise = std::move(it->second);
  pending_.erase(it);
  promise.set_value(std::move(reply));
  return true;
}

void SolveClient::release_read_locked() {
  reading_ = false;
  // Wake the reader thread only when a reply is still owed, and the
  // connect()/close() waiting to replace the socket only when it is dead:
  // a caller that read its own reply on an idle connection wakes nobody.
  if (!pending_.empty() || !connected_) reader_cv_.notify_all();
}

SolveClient::RawReply SolveClient::await_reply(std::uint64_t request_id,
                                               std::future<RawReply> reply) {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (!reading_ && pending_.count(request_id) != 0) {
      // Nobody is reading: read on this thread until this reply is in,
      // routing every other reply met on the way.
      reading_ = true;
      while (pending_.count(request_id) != 0 && route_one(lock)) {
      }
      release_read_locked();
    }
  }
  return reply.get();
}

void SolveClient::disconnect_locked(const std::string& why) {
  connected_ = false;
  sock_.shutdown_read();  // kicks whoever is reading
  fail_pending_locked(why);
  reader_cv_.notify_all();
}

void SolveClient::fail_pending_locked(const std::string& why) {
  for (auto& [id, promise] : pending_) {
    promise.set_value(RawReply(SolveStatus::kNetworkError, why));
  }
  pending_.clear();
}

std::future<SolveClient::RawReply> SolveClient::request_solve_locked(
    std::uint64_t id, std::uint64_t plan_id, std::span<const value_t> rhs,
    index_t num_rhs, service::Priority priority,
    std::chrono::microseconds deadline,
    const support::trace::TraceId& trace_id, bool caller_reads) {
  SolveFrame frame;
  frame.request_id = id;
  frame.plan_id = plan_id;
  frame.num_rhs = num_rhs;
  frame.priority = priority;
  frame.deadline_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, deadline.count()));
  frame.trace_id = trace_id;
  return request_locked(id, encode_solve_into(send_buf_, frame, rhs),
                        caller_reads);
}

std::future<SolveClient::RawReply> SolveClient::request_locked(
    std::uint64_t request_id, std::span<const std::uint8_t> wire,
    bool caller_reads) {
  std::promise<RawReply> promise;
  std::future<RawReply> future = promise.get_future();
  if (!connected_) {
    promise.set_value(RawReply(SolveStatus::kNetworkError, "not connected"));
    return future;
  }
  pending_.emplace(request_id, std::move(promise));
  Expected<bool> sent = sock_.send_all(wire);
  if (!sent.ok()) {
    auto it = pending_.find(request_id);
    if (it != pending_.end()) {
      it->second.set_value(RawReply(sent.error()));
      pending_.erase(it);
    }
    disconnect_locked("send failed: " + sent.message());
  } else if (!caller_reads && !reading_) {
    reader_cv_.notify_all();  // nobody is reading: the reader thread will
  }
  return future;
}

Expected<OpenOkFrame> SolveClient::open_on_wire(OpenSpec& spec) {
  std::future<RawReply> future;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t id = next_request_id_++;
    OpenPlanFrame frame;
    frame.request_id = id;
    frame.mode = spec.mode;
    frame.backend_key = spec.backend_key;
    frame.matrix = spec.matrix;
    frame.plan_blob = spec.plan_blob;
    frame.hash = spec.hash;
    future = request_locked(id, encode_open_plan(frame));
  }
  return decode_reply(future.get(), FrameType::kOpenOk, decode_open_ok);
}

Expected<PlanHandle> SolveClient::open(const sparse::CscMatrix& lower,
                                       const std::string& backend_key) {
  OpenSpec spec;
  spec.mode = OpenMode::kMatrix;
  spec.backend_key = backend_key;
  spec.matrix = lower;

  Expected<bool> up = connect();
  if (!up.ok()) return Expected<PlanHandle>(up.error());
  Expected<OpenOkFrame> ok = open_on_wire(spec);
  if (!ok.ok()) return Expected<PlanHandle>(ok.error());

  std::lock_guard<std::mutex> lock(state_mutex_);
  spec.plan_id = ok.value().plan_id;
  PlanHandle handle;
  handle.spec = specs_.size();
  handle.rows = ok.value().rows;
  handle.hash = ok.value().hash;
  handle.source = ok.value().source;
  specs_.push_back(std::move(spec));
  return handle;
}

Expected<PlanHandle> SolveClient::open_plan_blob(
    std::vector<std::uint8_t> blob, const std::string& backend_key) {
  OpenSpec spec;
  spec.mode = OpenMode::kPlanBlob;
  spec.backend_key = backend_key;
  spec.plan_blob = std::move(blob);

  Expected<bool> up = connect();
  if (!up.ok()) return Expected<PlanHandle>(up.error());
  Expected<OpenOkFrame> ok = open_on_wire(spec);
  if (!ok.ok()) return Expected<PlanHandle>(ok.error());

  std::lock_guard<std::mutex> lock(state_mutex_);
  spec.plan_id = ok.value().plan_id;
  PlanHandle handle;
  handle.spec = specs_.size();
  handle.rows = ok.value().rows;
  handle.hash = ok.value().hash;
  handle.source = ok.value().source;
  specs_.push_back(std::move(spec));
  return handle;
}

Expected<PlanHandle> SolveClient::open_by_hash(
    const sparse::StructuralHash& hash, const std::string& backend_key) {
  OpenSpec spec;
  spec.mode = OpenMode::kHashRef;
  spec.backend_key = backend_key;
  spec.hash = hash;

  Expected<bool> up = connect();
  if (!up.ok()) return Expected<PlanHandle>(up.error());
  Expected<OpenOkFrame> ok = open_on_wire(spec);
  if (!ok.ok()) return Expected<PlanHandle>(ok.error());

  std::lock_guard<std::mutex> lock(state_mutex_);
  spec.plan_id = ok.value().plan_id;
  PlanHandle handle;
  handle.spec = specs_.size();
  handle.rows = ok.value().rows;
  handle.hash = ok.value().hash;
  handle.source = ok.value().source;
  specs_.push_back(std::move(spec));
  return handle;
}

std::chrono::microseconds SolveClient::backoff_for(int retry_index) {
  double us = static_cast<double>(options_.retry.initial_backoff.count());
  for (int i = 0; i < retry_index; ++i) us *= options_.retry.multiplier;
  us = std::min(us,
                static_cast<double>(options_.retry.max_backoff.count()));
  // Deterministic jitter: uniform in [1-jitter, 1+jitter].
  std::uint64_t draw;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    draw = rng_.next();
  }
  const double unit =
      static_cast<double>(draw >> 11) / static_cast<double>(1ULL << 53);
  us *= 1.0 + options_.retry.jitter * (2.0 * unit - 1.0);
  return std::chrono::microseconds(
      static_cast<std::int64_t>(std::max(0.0, us)));
}

Expected<std::vector<value_t>> SolveClient::solve_with_retry(
    std::size_t spec, std::span<const value_t> rhs, index_t num_rhs,
    service::Priority priority, std::chrono::microseconds deadline) {
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    stats_.solves += 1;
  }
  // One trace identity per LOGICAL solve: every retry attempt -- and any
  // open replay a reconnect performs underneath -- carries the SAME id,
  // so a stitched trace shows the attempts side by side. The caller's
  // thread context wins when set; otherwise a fresh id is minted, but
  // only while tracing is armed (untraced deployments send byte-identical
  // legacy solve frames).
  support::trace::TraceId trace_id = support::trace::current_trace_id();
  std::optional<support::trace::ScopedTraceContext> trace_ctx;
  if (!support::trace::trace_id_set(trace_id) && MSPTRSV_TRACE_ARMED()) {
    trace_id = support::trace::make_trace_id();
    trace_ctx.emplace(trace_id);
  }
  std::optional<support::trace::TraceSpan> solve_span;
  if (support::trace::trace_id_set(trace_id) && MSPTRSV_TRACE_ARMED()) {
    solve_span.emplace("client.solve", "num_rhs",
                       static_cast<std::int64_t>(num_rhs));
  }
  core::SolveError last{SolveStatus::kNetworkError, "no attempt made"};
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      stats_.attempts += 1;
      if (attempt > 1) stats_.retries += 1;
    }
    Expected<bool> up = connect();
    if (!up.ok()) {
      last = up.error();
    } else {
      std::uint64_t id;
      std::future<RawReply> future;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        id = next_request_id_++;
        future = request_solve_locked(id, specs_[spec].plan_id, rhs, num_rhs,
                                      priority, deadline, trace_id,
                                      /*caller_reads=*/true);
      }
      if (solve_span) solve_span->set_arg("attempts", attempt);
      Expected<std::vector<value_t>> result =
          [&]() -> Expected<std::vector<value_t>> {
        RawReply raw = await_reply(id, std::move(future));
        if (!raw.ok()) {
          return Expected<std::vector<value_t>>(raw.error());
        }
        return decode_solve_reply(std::move(raw.value()));
      }();
      if (result.ok()) return result;
      last = result.error();
      // Typed retry policy: overload and transport failures are the ONLY
      // retryable statuses. Everything else -- shed deadlines, shape
      // mismatches, unknown plans -- would fail identically again.
      if (last.status != SolveStatus::kOverloaded &&
          last.status != SolveStatus::kNetworkError) {
        return Expected<std::vector<value_t>>(last);
      }
    }
    if (attempt < max_attempts) {
      const std::chrono::microseconds pause = backoff_for(attempt - 1);
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        stats_.backoff_us += static_cast<std::uint64_t>(pause.count());
      }
      std::this_thread::sleep_for(pause);
    }
  }
  return Expected<std::vector<value_t>>(last);
}

Expected<std::vector<value_t>> SolveClient::solve(
    const PlanHandle& plan, std::span<const value_t> b,
    service::Priority priority, std::chrono::microseconds deadline) {
  return solve_with_retry(plan.spec, b, 1, priority, deadline);
}

Expected<std::vector<value_t>> SolveClient::solve_batch(
    const PlanHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
    service::Priority priority, std::chrono::microseconds deadline) {
  return solve_with_retry(plan.spec, rhs, num_rhs, priority, deadline);
}

std::future<SolveClient::RawReply> SolveClient::submit_batch_raw(
    const PlanHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
    service::Priority priority, std::chrono::microseconds deadline) {
  // Through connect() like every other request: an idle connection the
  // server closed is replaced, and a reconnect's replay of the plan opens
  // is waited out, so the plan id sent is the current connection's.
  Expected<bool> up = connect();
  if (!up.ok()) {
    std::promise<RawReply> failed;
    failed.set_value(RawReply(up.error()));
    return failed.get_future();
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  // Pipelined path: no auto-minting -- callers owning their own policy
  // also own their trace identity (the thread context, when set, rides).
  return request_solve_locked(
      next_request_id_++,
      plan.spec < specs_.size() ? specs_[plan.spec].plan_id : 0, rhs,
      num_rhs, priority, deadline, support::trace::current_trace_id(),
      /*caller_reads=*/false);
}

std::future<Expected<std::vector<value_t>>> SolveClient::submit_batch(
    const PlanHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
    service::Priority priority, std::chrono::microseconds deadline) {
  // Deferred adapter: resolves when the caller get()s (the reply future
  // underneath completes asynchronously regardless).
  return std::async(std::launch::deferred,
                    [](std::future<RawReply> f)
                        -> Expected<std::vector<value_t>> {
                      RawReply raw = f.get();
                      if (!raw.ok()) {
                        return Expected<std::vector<value_t>>(raw.error());
                      }
                      return decode_solve_reply(std::move(raw.value()));
                    },
                    submit_batch_raw(plan, rhs, num_rhs, priority, deadline));
}

Expected<std::string> SolveClient::metrics() {
  Expected<bool> up = connect();
  if (!up.ok()) return Expected<std::string>(up.error());
  std::future<RawReply> future;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t id = next_request_id_++;
    future = request_locked(
        id, encode_stats({id, StatsFormat::kPrometheus}));
  }
  Expected<StatsOkFrame> ok =
      decode_reply(future.get(), FrameType::kStatsOk, decode_stats_ok);
  if (!ok.ok()) return Expected<std::string>(ok.error());
  return std::move(ok.value().text);
}

Expected<WireStats> SolveClient::stats() {
  Expected<bool> up = connect();
  if (!up.ok()) return Expected<WireStats>(up.error());
  std::future<RawReply> future;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t id = next_request_id_++;
    future = request_locked(id, encode_stats({id, StatsFormat::kBinary}));
  }
  Expected<StatsOkFrame> ok =
      decode_reply(future.get(), FrameType::kStatsOk, decode_stats_ok);
  if (!ok.ok()) return Expected<WireStats>(ok.error());
  return std::move(ok.value().stats);
}

Expected<std::uint64_t> SolveClient::drain() {
  Expected<bool> up = connect();
  if (!up.ok()) return Expected<std::uint64_t>(up.error());
  std::future<RawReply> future;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t id = next_request_id_++;
    future = request_locked(id, encode_drain({id}));
  }
  Expected<DrainOkFrame> ok =
      decode_reply(future.get(), FrameType::kDrainOk, decode_drain_ok);
  if (!ok.ok()) return Expected<std::uint64_t>(ok.error());
  return ok.value().completed;
}

Expected<bool> SolveClient::ping(std::chrono::milliseconds timeout) {
  Expected<bool> up = connect();
  if (!up.ok()) return up;
  std::future<RawReply> future;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t id = next_request_id_++;
    future = request_locked(id, encode_ping({id}));
  }
  if (future.wait_for(timeout) != std::future_status::ready) {
    // A peer that cannot echo a ping inside the bound is not a peer we
    // can trust with queued solves: tear the connection down (failing
    // every pending future, this ping's included) so the next call
    // reconnects instead of queueing behind a hung server.
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (connected_) {
      disconnect_locked("ping timed out after " +
                        std::to_string(timeout.count()) + "ms");
    }
    return Expected<bool>(SolveStatus::kNetworkError,
                          "ping timed out after " +
                              std::to_string(timeout.count()) + "ms");
  }
  Expected<PongFrame> pong =
      decode_reply(future.get(), FrameType::kPong, decode_pong);
  if (!pong.ok()) return Expected<bool>(pong.error());
  return true;
}

Expected<std::uint32_t> SolveClient::set_failpoint(const std::string& name,
                                                   const std::string& spec) {
  Expected<bool> up = connect();
  if (!up.ok()) return Expected<std::uint32_t>(up.error());
  std::future<RawReply> future;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t id = next_request_id_++;
    future = request_locked(id, encode_failpoint({id, name, spec}));
  }
  Expected<FailpointOkFrame> ok =
      decode_reply(future.get(), FrameType::kFailpointOk,
                   decode_failpoint_ok);
  if (!ok.ok()) return Expected<std::uint32_t>(ok.error());
  return ok.value().armed;
}

Expected<TraceDumpOkFrame> SolveClient::trace_dump(const std::string& filter,
                                                   bool include_slow) {
  Expected<bool> up = connect();
  if (!up.ok()) return Expected<TraceDumpOkFrame>(up.error());
  std::future<RawReply> future;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const std::uint64_t id = next_request_id_++;
    TraceDumpFrame frame;
    frame.request_id = id;
    frame.filter = filter;
    frame.include_slow = include_slow;
    future = request_locked(id, encode_trace_dump(frame));
  }
  return decode_reply(future.get(), FrameType::kTraceDumpOk,
                      decode_trace_dump_ok);
}

ClientMetrics SolveClient::metrics_local() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return stats_;
}

void SolveClient::note_hedge() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  stats_.hedges += 1;
}

void SolveClient::note_failover() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  stats_.failovers += 1;
}

}  // namespace msptrsv::net
