// The retrying solve client: the library applications link to talk to a
// net::SolveServer.
//
// One connection, many requests in flight: submits are PIPELINED (each
// carries a fresh request id; replies are matched by id and complete the
// caller's future), so N outstanding solves cost one round-trip of
// latency each, not N.
//
// Who reads the socket: at most one thread at a time. A synchronous
// solve()/solve_batch() whose request finds nobody reading reads frames
// itself until its own reply is routed, routing any other reply it meets
// on the way, and then hands the socket to the connection's reader thread
// if replies are still owed. The reader thread reads only while a reply
// is owed and no caller is reading: for pipelined submits, opens, pings,
// stats and drains, and for synchronous calls that found the socket
// taken. It sleeps otherwise, so nobody watches an idle connection:
// connect(), which every solve attempt, pipelined submit, open, ping,
// stats and drain calls first, checks without blocking whether the server
// closed it and then reconnects before sending (connected() stays true
// until that check).
//
// The synchronous solve()/solve_batch() calls add the RETRY tier, driven
// by the server's TYPED statuses -- which is the whole reason the wire
// carries SolveStatus instead of strings:
//  * kOverloaded     -> exponential backoff with deterministic jitter,
//                       then retry (the server asked us to slow down);
//  * kNetworkError   -> reconnect (replaying plan opens) and retry -- a
//                       restarted or failed-over server heals invisibly;
//  * kDeadlineExceeded, kBadSnapshot, kShapeMismatch, ... -> returned to
//                       the caller immediately. Retrying a shed deadline
//                       with the same deadline or a mismatched rhs would
//                       burn server time on a request that cannot fare
//                       better.
// The async submit_batch() path performs NO retries (callers pipelining
// their own traffic own their policy).
//
// Plan opens are recorded as OPEN SPECS and replayed on reconnect: a
// PlanHandle survives server restarts -- after the replay it simply maps
// to the new process's plan id.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "support/rng.hpp"

namespace msptrsv::net {

struct RetryPolicy {
  /// Total tries of one solve (first attempt included). 1 = no retries.
  int max_attempts = 4;
  std::chrono::microseconds initial_backoff{2000};
  std::chrono::microseconds max_backoff{500000};
  double multiplier = 2.0;
  /// Backoff is scaled by a uniform factor in [1-jitter, 1+jitter] --
  /// deterministic per client (seeded), so tests can pin the schedule and
  /// a fleet of clients still decorrelates.
  double jitter = 0.25;
  std::uint64_t seed = 0x6d7370747273764eULL;  // "msptrsvN"
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string client_name = "msptrsv-client";
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  RetryPolicy retry;
};

/// A plan opened through a client. Stable across reconnects and server
/// restarts (the client replays the open); meaningless to other clients.
struct PlanHandle {
  std::size_t spec = 0;  ///< index into the client's open-spec table
  index_t rows = 0;
  sparse::StructuralHash hash;
  /// Where the LAST open resolved from: "cache", "deserialized", "open",
  /// "disk".
  std::string source;
};

/// Client-side observability -- what the retry tests assert on.
struct ClientMetrics {
  std::uint64_t solves = 0;        ///< sync solve/solve_batch calls
  std::uint64_t attempts = 0;      ///< wire attempts those calls made
  std::uint64_t retries = 0;       ///< attempts after the first
  std::uint64_t reconnects = 0;    ///< successful re-handshakes
  std::uint64_t backoff_us = 0;    ///< total time slept backing off
  std::uint64_t hedges = 0;        ///< solves duplicated to a backup shard
  std::uint64_t failovers = 0;     ///< solves answered by a non-home shard
};

/// Decodes a solve reply (SolveOk or Error frame) into the solution
/// vector / typed status. Exposed for callers of submit_batch_raw (the
/// router's hedged sends).
core::Expected<std::vector<value_t>> decode_solve_reply(VerifiedFrame reply);

class SolveClient {
 public:
  /// A reply frame, verified by the reader before it was routed by request
  /// id, or the typed failure that prevented one.
  using RawReply = core::Expected<VerifiedFrame>;

  explicit SolveClient(ClientOptions options);
  /// Closes the connection; outstanding futures complete kNetworkError.
  ~SolveClient();

  SolveClient(const SolveClient&) = delete;
  SolveClient& operator=(const SolveClient&) = delete;

  /// Connects and performs the hello handshake (version negotiation; the
  /// effective frame bound becomes min(ours, server's)), then replays the
  /// plan opens; concurrent callers wait for that replay. Idempotent when
  /// already connected, unless the server has closed an idle connection.
  core::Expected<bool> connect();
  /// True from a successful connect() until this client sees the
  /// connection fail (or closes it). Nobody reads an idle connection, so a
  /// server that went away shows here only after the next connect().
  bool connected() const;
  void close();

  // ---- plan opens ----------------------------------------------------------
  // Each returns a PlanHandle whose open SPEC is retained for replay on
  // reconnect. kMatrix uploads the factor; plan_blob ships a serialized
  // plan (no server-side analysis); by_hash sends only the content hash
  // (resolved against plans the server already has, then its shared blob
  // directory -- kBadSnapshot when unknown).

  core::Expected<PlanHandle> open(const sparse::CscMatrix& lower,
                                  const std::string& backend_key);
  core::Expected<PlanHandle> open_plan_blob(std::vector<std::uint8_t> blob,
                                            const std::string& backend_key);
  core::Expected<PlanHandle> open_by_hash(const sparse::StructuralHash& hash,
                                          const std::string& backend_key);

  // ---- solving -------------------------------------------------------------

  /// Synchronous solve with the retry policy (see file comment).
  core::Expected<std::vector<value_t>> solve(
      const PlanHandle& plan, std::span<const value_t> b,
      service::Priority priority = service::Priority::kNormal,
      std::chrono::microseconds deadline = std::chrono::microseconds{0});

  core::Expected<std::vector<value_t>> solve_batch(
      const PlanHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
      service::Priority priority = service::Priority::kNormal,
      std::chrono::microseconds deadline = std::chrono::microseconds{0});

  /// One pipelined attempt, NO retries: the future resolves to the
  /// solution or the server's typed error; kNetworkError on disconnect.
  /// Like every request, it goes through connect() first.
  std::future<core::Expected<std::vector<value_t>>> submit_batch(
      const PlanHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
      service::Priority priority = service::Priority::kNormal,
      std::chrono::microseconds deadline = std::chrono::microseconds{0});

  /// Like submit_batch but returns the raw reply future straight off the
  /// pending map -- a promise-backed future, so wait_for() actually polls
  /// (submit_batch wraps it in a DEFERRED adapter, which wait_for cannot
  /// observe). The router's hedged sends race two of these; decode with
  /// decode_solve_reply.
  std::future<RawReply> submit_batch_raw(
      const PlanHandle& plan, std::span<const value_t> rhs, index_t num_rhs,
      service::Priority priority = service::Priority::kNormal,
      std::chrono::microseconds deadline = std::chrono::microseconds{0});

  // ---- observability / control ---------------------------------------------

  /// The server's /metrics answer (Prometheus text).
  core::Expected<std::string> metrics();
  /// The server's mergeable binary stats.
  core::Expected<WireStats> stats();
  /// Blocks until the server has answered everything admitted so far.
  core::Expected<std::uint64_t> drain();

  /// Liveness probe with a HARD timeout: a pong within `timeout` returns
  /// true; anything else -- no connection, no reply in time -- is
  /// kNetworkError, and a timed-out ping tears the connection down (a
  /// peer that cannot echo a ping cannot be trusted with queued solves;
  /// the next call reconnects). The router's health prober calls this.
  core::Expected<bool> ping(std::chrono::milliseconds timeout);

  /// Arms (or clears: spec "off" / empty name = clear all) a failpoint in
  /// the SERVER process. Returns the server's armed-site count. The
  /// server refuses with kInvalidOptions unless started with
  /// --enable-failpoints.
  core::Expected<std::uint32_t> set_failpoint(const std::string& name,
                                              const std::string& spec);

  /// The SERVER's trace buffers as Chrome trace-event JSON (plus the
  /// slow-request sampler's retained traces when include_slow). `filter`
  /// is "" for everything or one 32-hex trace id. Always answered -- a
  /// disarmed or trace-compiled-out server serves empty documents.
  core::Expected<TraceDumpOkFrame> trace_dump(const std::string& filter = "",
                                              bool include_slow = true);

  ClientMetrics metrics_local() const;

  /// Router bookkeeping: robustness actions taken on this client's shard
  /// (counted here so they surface next to the retries they complement).
  void note_hedge();
  void note_failover();

 private:
  struct OpenSpec {
    OpenMode mode = OpenMode::kMatrix;
    std::string backend_key;
    sparse::CscMatrix matrix;
    std::vector<std::uint8_t> plan_blob;
    sparse::StructuralHash hash;
    /// Server-assigned id under the CURRENT connection epoch.
    std::uint64_t plan_id = 0;
  };

  core::Expected<bool> connect_locked();
  /// Sends `wire` and registers a pending reply future; wakes the reader
  /// thread unless the caller will read the reply itself (await_reply).
  /// state_mutex_ held.
  std::future<RawReply> request_locked(std::uint64_t request_id,
                                       std::span<const std::uint8_t> wire,
                                       bool caller_reads = false);
  /// Encodes solve `id` straight from the caller's `rhs` into send_buf_,
  /// sends it and registers its reply future. state_mutex_ held.
  std::future<RawReply> request_solve_locked(
      std::uint64_t id, std::uint64_t plan_id, std::span<const value_t> rhs,
      index_t num_rhs, service::Priority priority,
      std::chrono::microseconds deadline,
      const support::trace::TraceId& trace_id, bool caller_reads);
  /// Waits for request `request_id`'s reply, reading the socket on this
  /// thread when nobody else is (see the file comment).
  RawReply await_reply(std::uint64_t request_id, std::future<RawReply> reply);
  /// Performs one open against the live connection (takes the lock itself).
  core::Expected<OpenOkFrame> open_on_wire(OpenSpec& spec);
  void reader_loop(std::uint64_t epoch);
  /// Reads one frame with the lock dropped and routes it by request id.
  /// The caller holds `lock` on state_mutex_ and has set reading_. False
  /// once the connection is down (every pending reply failed).
  bool route_one(std::unique_lock<std::mutex>& lock);
  /// Clears reading_ and wakes whoever now needs the socket.
  /// state_mutex_ held.
  void release_read_locked();
  /// Marks the connection down, kicks the reading thread and fails every
  /// pending reply. state_mutex_ held.
  void disconnect_locked(const std::string& why);
  void fail_pending_locked(const std::string& why);
  std::chrono::microseconds backoff_for(int retry_index);

  core::Expected<std::vector<value_t>> solve_with_retry(
      std::size_t spec, std::span<const value_t> rhs, index_t num_rhs,
      service::Priority priority, std::chrono::microseconds deadline);

  ClientOptions options_;

  mutable std::mutex state_mutex_;
  Socket sock_;
  bool connected_ = false;
  /// A thread (the reader or a synchronous caller) is reading sock_.
  bool reading_ = false;
  /// connect() is replaying the plan opens on a fresh connection; other
  /// connect() calls wait for it, so no request names a plan id the new
  /// server has not assigned yet.
  bool replaying_ = false;
  /// The reader thread sleeps here until a reply is owed and nobody reads;
  /// connect()/close() wait here for reading_ or replaying_ to clear.
  std::condition_variable reader_cv_;
  /// Bumped on every (re)connect; a reader learns it is stale by epoch.
  std::uint64_t epoch_ = 0;
  std::thread reader_;
  std::uint64_t next_request_id_ = 1;
  /// Solve frames are built here and sent from here, under state_mutex_:
  /// a warm buffer takes no allocation.
  FrameBytes send_buf_;
  std::unordered_map<std::uint64_t, std::promise<RawReply>> pending_;
  std::vector<OpenSpec> specs_;
  std::uint32_t frame_bytes_ = kDefaultMaxFrameBytes;
  support::Xoshiro256 rng_;

  mutable std::mutex metrics_mutex_;
  ClientMetrics stats_{};
};

}  // namespace msptrsv::net
