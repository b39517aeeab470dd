// The solve wire protocol: length-prefixed binary frames riding the
// support/blob format.
//
// A frame on the wire is
//
//   [u32 little-endian byte length] [blob image of exactly that length]
//
// where the blob image is a standard support::BlobWriter product -- magic,
// format version (the PROTOCOL version: negotiated in the hello exchange),
// endian tag, payload, CRC-32C trailer. Reusing the blob substrate means
// the frame decoder IS the plan-blob decoder: the same fail-stop
// BlobReader that makes a corrupt plan file safe to load makes a hostile
// socket frame safe to parse -- every read is bounds-checked, a bad CRC or
// truncation latches an error instead of crashing, and array lengths are
// validated against the remaining payload before any allocation. There is
// no second hand-rolled parser to fuzz.
//
// Frame payload grammar (all frames):
//
//   u8  type          -- FrameType
//   u64 request_id    -- client-chosen; replies echo it (0 in hello/unso-
//                        licited errors). Requests may be PIPELINED: a
//                        client can have many ids in flight; replies are
//                        matched by id, and their order is unspecified.
//   ... type-specific fields (see each struct below)
//
// Error mapping: every request can be answered by an Error frame carrying
// a core::SolveStatus -- the service's typed statuses travel the wire
// unchanged (kOverloaded backpressure, kDeadlineExceeded shedding,
// kShapeMismatch validation), plus the two wire-specific ones:
// kProtocolError (the frame itself was bad; the server fail-stops the
// CONNECTION, never the process) and kNetworkError (socket-level failure,
// attached client-side). docs/PROTOCOL.md is the normative description.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "service/latency_histogram.hpp"
#include "service/priority.hpp"
#include "sparse/csc.hpp"
#include "sparse/serialize.hpp"
#include "support/blob.hpp"
#include "support/trace.hpp"
#include "support/types.hpp"

namespace msptrsv::net {

/// Protocol version stamped into every frame's blob header. The hello
/// exchange negotiates: the client offers [min, max], the server picks
/// its own version if in range and rejects otherwise.
inline constexpr std::uint16_t kProtocolVersion = 1;

/// Frames larger than this are a protocol violation in either direction
/// (guards the u32 length prefix against allocating attacker-chosen
/// sizes). Large enough for a ~100M-nonzero factor upload.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 256u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kOpenPlan = 3,
  kOpenOk = 4,
  kSolve = 5,
  kSolveOk = 6,
  kError = 7,
  kStats = 8,
  kStatsOk = 9,
  kDrain = 10,
  kDrainOk = 11,
  kPing = 12,
  kPong = 13,
  kFailpoint = 14,
  kFailpointOk = 15,
  kTraceDump = 16,
  kTraceDumpOk = 17,
};

struct HelloFrame {
  std::uint64_t request_id = 0;
  std::uint16_t min_version = kProtocolVersion;
  std::uint16_t max_version = kProtocolVersion;
  std::string client_name;
};

struct HelloOkFrame {
  std::uint64_t request_id = 0;
  std::uint16_t version = kProtocolVersion;
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::string server_name;
};

/// How an OpenPlan frame identifies the plan.
enum class OpenMode : std::uint8_t {
  /// The CSC factor travels in the frame; the server analyzes (or hits its
  /// plan cache / shared blob directory) under the backend's service
  /// options -- analyze-on-first-use over the wire.
  kMatrix = 0,
  /// A SolverPlan::serialize() blob travels in the frame; the server
  /// deserializes it (no analysis at all).
  kPlanBlob = 1,
  /// Only the structural hash travels; the server resolves it against
  /// plans already open in this process, then against the shared on-disk
  /// blob directory (the fleet-wide warm tier). kBadSnapshot when neither
  /// knows the hash.
  kHashRef = 2,
};

struct OpenPlanFrame {
  std::uint64_t request_id = 0;
  OpenMode mode = OpenMode::kMatrix;
  std::string backend_key;
  /// kMatrix: the factor. Other modes: empty.
  sparse::CscMatrix matrix;
  /// kPlanBlob: the serialized plan. Other modes: empty.
  std::vector<std::uint8_t> plan_blob;
  /// kHashRef: the content hash. Other modes: ignored.
  sparse::StructuralHash hash;
};

struct OpenOkFrame {
  std::uint64_t request_id = 0;
  /// Server-assigned handle, valid for the server process's lifetime and
  /// shared across connections (a reconnect to the SAME process may reuse
  /// it; the client library re-opens after reconnect anyway, which also
  /// covers a restarted server).
  std::uint64_t plan_id = 0;
  index_t rows = 0;
  sparse::StructuralHash hash;
  /// Where the plan came from: "cache" (service plan cache, memory or
  /// disk), "deserialized" (uploaded blob), "open" (already open in this
  /// server), "disk" (hash-ref resolved against the blob directory).
  std::string source;
};

struct SolveFrame {
  std::uint64_t request_id = 0;
  std::uint64_t plan_id = 0;
  index_t num_rhs = 1;
  service::Priority priority = service::Priority::kNormal;
  /// Start-by deadline relative to server receipt, microseconds; 0 = none.
  std::uint64_t deadline_us = 0;
  /// num_rhs columns, column-major, length = rows * num_rhs.
  std::vector<value_t> rhs;
  /// OPTIONAL TAIL FIELD (since the tracing layer): a 16-byte trace id
  /// propagated end to end. All-zero = absent; on the wire the 16 bytes
  /// are simply appended when set and omitted when not, so frames from
  /// pre-trace peers decode unchanged (docs/PROTOCOL.md, "Trace
  /// propagation").
  support::trace::TraceId trace_id{};
};

struct SolveOkFrame {
  std::uint64_t request_id = 0;
  /// Server-side submit-to-completion microseconds (the service latency,
  /// coalesce wait included; the wire adds more on top).
  double server_us = 0.0;
  std::vector<value_t> x;
  /// OPTIONAL TAIL FIELD: per-reply phase attribution (7 f64
  /// microsecond fields in declaration order), appended when
  /// `has_phases`; absent frames from pre-trace servers decode with
  /// has_phases == false.
  bool has_phases = false;
  support::trace::PhaseBreakdown phases;
};

struct ErrorFrame {
  std::uint64_t request_id = 0;
  core::SolveStatus status = core::SolveStatus::kInternalError;
  std::string message;
};

enum class StatsFormat : std::uint8_t {
  /// Prometheus text exposition (the /metrics answer).
  kPrometheus = 0,
  /// Binary WireStats (mergeable across shards; the router tier's path).
  kBinary = 1,
};

struct StatsFrame {
  std::uint64_t request_id = 0;
  StatsFormat format = StatsFormat::kPrometheus;
};

/// Mergeable server statistics: the counters a fleet aggregates by plain
/// addition plus the HDR-style latency histograms (overall + per priority
/// class). This is both the kBinary stats payload and the router's
/// aggregation state.
struct WireStats {
  // Service counters (right-hand sides).
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced_rhs = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t peak_queue_depth = 0;
  // Server counters.
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t plans_open = 0;

  // Plan-cache counters (core::PlanCache::Stats, lifted to the wire so
  // the fleet's warm-tier effectiveness is scrapeable: msptrsv_plan_cache_*
  // in render_prometheus).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_byte_evictions = 0;
  std::uint64_t cache_disk_hits = 0;
  std::uint64_t cache_disk_stores = 0;

  service::LatencyHistogramSnapshot latency;
  struct PerClass {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    service::LatencyHistogramSnapshot latency;
  };
  std::array<PerClass, service::kNumPriorities> per_class{};

  /// Per-phase latency histograms (support::trace::kPhaseNames order):
  /// where a reply's microseconds went, mergeable like the others.
  std::array<service::LatencyHistogramSnapshot, support::trace::kNumPhases>
      phases{};

  /// Fleet aggregation: counters add, histograms merge. queue_depth and
  /// connections_active sum (they are gauges of disjoint shards);
  /// peak_queue_depth takes the max (peaks do not add across shards).
  void merge(const WireStats& other);
};

struct StatsOkFrame {
  std::uint64_t request_id = 0;
  StatsFormat format = StatsFormat::kPrometheus;
  /// kPrometheus payload.
  std::string text;
  /// kBinary payload.
  WireStats stats;
};

struct DrainFrame {
  std::uint64_t request_id = 0;
};

struct DrainOkFrame {
  std::uint64_t request_id = 0;
  /// Right-hand sides the server has completed over its lifetime, read
  /// after the drain -- a barrier token the caller can log.
  std::uint64_t completed = 0;
};

/// Liveness probe: the server answers Pong from the connection thread
/// without touching the solve path, so a Pong proves "process up, accept
/// loop alive, this connection's reader/writer intact" -- exactly what the
/// router's health prober needs -- while saying nothing about solve
/// latency (that is what the stats frame is for).
struct PingFrame {
  std::uint64_t request_id = 0;
};

struct PongFrame {
  std::uint64_t request_id = 0;
};

/// Remote failpoint control (TEST BUILDS ONLY: the server refuses this
/// frame with kInvalidOptions unless it was started with failpoint control
/// explicitly enabled -- see ServerOptions::allow_failpoint_control).
/// Empty `name` clears every armed failpoint; otherwise `spec` follows the
/// support/failpoint.hpp grammar ("error(8)*2", "delay(5000)", "off", ...).
struct FailpointFrame {
  std::uint64_t request_id = 0;
  std::string name;
  std::string spec;
};

struct FailpointOkFrame {
  std::uint64_t request_id = 0;
  /// Number of failpoints armed in the server process after applying.
  std::uint32_t armed = 0;
};

/// Trace-dump request: asks the server for its buffered spans as Chrome
/// trace-event JSON. Read-only (safe to leave enabled in production --
/// dumping reveals only timings the stats frame already aggregates).
struct TraceDumpFrame {
  std::uint64_t request_id = 0;
  /// 32-hex-char trace id filter; empty = every buffered event.
  std::string filter;
  /// Also include the slow-request sampler's retained trees.
  bool include_slow = true;
};

struct TraceDumpOkFrame {
  std::uint64_t request_id = 0;
  /// {"traceEvents":[...]} document (empty array when tracing is
  /// disarmed or compiled out).
  std::string json;
  /// The slow sampler's document ("" unless include_slow was set).
  std::string slow_json;
};

/// Bytes of a frame a connection reads or builds in place. Its allocator
/// default-initializes, so sizing the buffer writes nothing: the recv or
/// the in-place writer that fills it is the one pass over its bytes.
using FrameBytes =
    std::vector<std::uint8_t, support::DefaultInitAllocator<std::uint8_t>>;

// ---- encoding --------------------------------------------------------------
// Each encode_* returns the complete WIRE bytes: length prefix + blob
// image. Writers never fail.

std::vector<std::uint8_t> encode_hello(const HelloFrame& f);
std::vector<std::uint8_t> encode_hello_ok(const HelloOkFrame& f);
std::vector<std::uint8_t> encode_open_plan(const OpenPlanFrame& f);
std::vector<std::uint8_t> encode_open_ok(const OpenOkFrame& f);
std::vector<std::uint8_t> encode_solve(const SolveFrame& f);
/// encode_solve built in `buf` (reused: a warm buffer takes no allocation)
/// with the right-hand sides read from `rhs` instead of f.rhs, which is
/// not read: `rhs` is copied once, straight into the frame. Returns the
/// wire bytes, a view into `buf`.
std::span<const std::uint8_t> encode_solve_into(FrameBytes& buf,
                                                const SolveFrame& f,
                                                std::span<const value_t> rhs);
std::vector<std::uint8_t> encode_solve_ok(const SolveOkFrame& f);

/// A SolveOk reply built in place in `buf`, so a solver can write x
/// straight into the frame: construct it for the reply's id and x length,
/// fill x(), then finish() with the fields that exist only after the
/// solve. The bytes finish() returns are encode_solve_ok's for the same
/// fields. The blob starts 8-aligned in `buf` (the length prefix sits in
/// the four bytes before it), so x() is 8-aligned. `buf` must not be
/// touched between construction and finish(); it is reused, so a warm
/// buffer takes no allocation, and nothing in it is zero-filled.
class SolveOkWriter {
 public:
  SolveOkWriter(FrameBytes& buf, std::uint64_t request_id, std::size_t x_len);

  std::span<value_t> x() const { return x_; }
  /// Writes server_us and, when `phases` is set, the phase tail; seals the
  /// CRC and the length prefix. Returns the wire bytes, a view into `buf`.
  std::span<const std::uint8_t> finish(
      double server_us, const support::trace::PhaseBreakdown* phases);

 private:
  FrameBytes& buf_;
  std::span<value_t> x_;
  std::size_t tail_at_ = 0;  ///< buffer offset just past x
};
std::vector<std::uint8_t> encode_error(const ErrorFrame& f);
std::vector<std::uint8_t> encode_stats(const StatsFrame& f);
std::vector<std::uint8_t> encode_stats_ok(const StatsOkFrame& f);
std::vector<std::uint8_t> encode_drain(const DrainFrame& f);
std::vector<std::uint8_t> encode_drain_ok(const DrainOkFrame& f);
std::vector<std::uint8_t> encode_ping(const PingFrame& f);
std::vector<std::uint8_t> encode_pong(const PongFrame& f);
std::vector<std::uint8_t> encode_failpoint(const FailpointFrame& f);
std::vector<std::uint8_t> encode_failpoint_ok(const FailpointOkFrame& f);
std::vector<std::uint8_t> encode_trace_dump(const TraceDumpFrame& f);
std::vector<std::uint8_t> encode_trace_dump_ok(const TraceDumpOkFrame& f);

// ---- decoding --------------------------------------------------------------

/// A decoded frame header: the type plus a ready-positioned BlobReader for
/// the type-specific fields. peek_frame validates the blob (magic,
/// version, CRC) and reads type + request_id; on any violation it returns
/// kProtocolError and the connection should fail-stop. The reader BORROWS
/// `blob`: the bytes must outlive the FrameHead (read_frame's vector does).
struct FrameHead {
  FrameType type;
  std::uint64_t request_id = 0;
  support::BlobReader reader;
};

core::Expected<FrameHead> peek_frame(std::span<const std::uint8_t> blob);

/// A received frame that passed peek_frame, kept together with its bytes
/// so that it is checked once and decoded later without a second CRC
/// pass. Only verify() makes one. head().reader borrows the owned bytes;
/// a move hands the vector's heap buffer over unchanged, so the borrow
/// survives moves, and copies are deleted.
class VerifiedFrame {
 public:
  /// peek_frame over `blob`; on success the frame owns the bytes.
  static core::Expected<VerifiedFrame> verify(FrameBytes blob);

  VerifiedFrame(VerifiedFrame&&) noexcept = default;
  VerifiedFrame& operator=(VerifiedFrame&&) noexcept = default;
  VerifiedFrame(const VerifiedFrame&) = delete;
  VerifiedFrame& operator=(const VerifiedFrame&) = delete;

  FrameHead& head() { return head_; }

 private:
  VerifiedFrame(FrameBytes bytes, FrameHead head)
      : bytes_(std::move(bytes)), head_(std::move(head)) {}

  FrameBytes bytes_;
  FrameHead head_;
};

/// Type-specific decoders: consume the remaining payload of `head.reader`
/// (as positioned by peek_frame) and bounds-check every field; the frame
/// must also be fully consumed (trailing garbage is a protocol error).
core::Expected<HelloFrame> decode_hello(FrameHead& head);
core::Expected<HelloOkFrame> decode_hello_ok(FrameHead& head);
core::Expected<OpenPlanFrame> decode_open_plan(FrameHead& head);
core::Expected<OpenOkFrame> decode_open_ok(FrameHead& head);
core::Expected<SolveFrame> decode_solve(FrameHead& head);
/// decode_solve without the copy: the frame's rhs is left empty and `rhs`
/// views the right-hand sides in the frame's own bytes, which must stay
/// alive and unchanged while it is used. The blob must start 8-aligned,
/// as read_frame's do; on a misaligned one the reader fails (a protocol
/// error).
core::Expected<SolveFrame> decode_solve_in_place(FrameHead& head,
                                                 std::span<const value_t>& rhs);
core::Expected<SolveOkFrame> decode_solve_ok(FrameHead& head);
core::Expected<ErrorFrame> decode_error(FrameHead& head);
core::Expected<StatsFrame> decode_stats(FrameHead& head);
core::Expected<StatsOkFrame> decode_stats_ok(FrameHead& head);
core::Expected<DrainFrame> decode_drain(FrameHead& head);
core::Expected<DrainOkFrame> decode_drain_ok(FrameHead& head);
core::Expected<PingFrame> decode_ping(FrameHead& head);
core::Expected<PongFrame> decode_pong(FrameHead& head);
core::Expected<FailpointFrame> decode_failpoint(FrameHead& head);
core::Expected<FailpointOkFrame> decode_failpoint_ok(FrameHead& head);
core::Expected<TraceDumpFrame> decode_trace_dump(FrameHead& head);
core::Expected<TraceDumpOkFrame> decode_trace_dump_ok(FrameHead& head);

// ---- socket framing --------------------------------------------------------

class Socket;  // net/socket.hpp

/// Writes one already-encoded frame (the encode_* output) to the socket.
core::Expected<bool> write_frame(Socket& sock,
                                 std::span<const std::uint8_t> wire);

/// Reads one frame into `blob`: the u32 length prefix (validated against
/// `max_frame_bytes` BEFORE sizing anything), then exactly that many blob
/// bytes, received straight into `blob`, which is resized to the blob
/// image (length prefix stripped; its allocation is reused when large
/// enough, and nothing is zero-filled). The image starts at blob.data(),
/// so it is 8-aligned. Returns false when the peer closed cleanly between
/// frames. kProtocolError for an oversized or undersized length,
/// kNetworkError for socket failures; `blob`'s contents are unspecified
/// after either.
core::Expected<bool> read_frame(Socket& sock, std::uint32_t max_frame_bytes,
                                FrameBytes& blob);

}  // namespace msptrsv::net
