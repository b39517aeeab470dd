#include "net/protocol.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>
#include <utility>

#include "net/socket.hpp"

namespace msptrsv::net {

namespace {

using core::Expected;
using core::SolveStatus;
using support::BlobReader;
using support::BlobWriter;

/// The u32 length prefix in front of every blob image on the wire.
constexpr std::size_t kLengthPrefixBytes = 4;

/// Payload bytes a write_span of `n` elements takes at most: up to 7
/// bytes of alignment padding, the u64 count, the elements.
template <typename T>
std::size_t span_bytes(std::size_t n) {
  return 7 + 8 + n * sizeof(T);
}

std::size_t string_bytes(std::string_view s) { return 8 + s.size(); }

/// Starts a frame in the one buffer it is sent from: room for the length
/// prefix, the blob header, type + request id, `body_bytes` of
/// type-specific payload and the CRC trailer.
BlobWriter begin_frame(FrameType type, std::uint64_t request_id,
                       std::size_t body_bytes = 0) {
  BlobWriter w(kProtocolVersion, 1 + 8 + body_bytes, kLengthPrefixBytes);
  w.write_u8(static_cast<std::uint8_t>(type));
  w.write_u64(request_id);
  return w;
}

/// Seals the blob and writes the u32 little-endian length prefix in the
/// room begin_frame left for it.
std::vector<std::uint8_t> seal(BlobWriter&& w) {
  std::vector<std::uint8_t> wire = std::move(w).finish();
  const std::uint32_t len =
      static_cast<std::uint32_t>(wire.size() - kLengthPrefixBytes);
  std::memcpy(wire.data(), &len, kLengthPrefixBytes);
  return wire;
}

/// Frames built in place (a solve and its reply) sit in their buffer
/// behind 4 lead bytes and the length prefix, so the blob -- and, through
/// write_span's padding, every array in it -- starts 8-aligned.
constexpr std::size_t kLeadBytes = 4;
constexpr std::size_t kBlobAt = kLeadBytes + kLengthPrefixBytes;
constexpr std::size_t kPayloadAt = kBlobAt + support::kBlobHeaderBytes;

/// Writes a frame in place in a FrameBytes, byte for byte what begin_frame,
/// the same BlobWriter calls and seal() produce. Nothing is zero-filled
/// but write_span's padding.
class InPlaceFrame {
 public:
  /// Starts a frame with room for `body_bytes` of type-specific payload.
  InPlaceFrame(FrameBytes& buf, FrameType type, std::uint64_t request_id,
               std::size_t body_bytes)
      : buf_(buf), pos_(kPayloadAt) {
    buf_.clear();  // so a reallocation does not copy the previous frame
    buf_.resize(kPayloadAt + 1 + 8 + body_bytes + support::kBlobTrailerBytes);
    support::write_blob_header(buf_.data() + kBlobAt, kProtocolVersion);
    put(static_cast<std::uint8_t>(type));
    put(request_id);
  }
  /// Resumes a frame started earlier, at buffer offset `pos`.
  InPlaceFrame(FrameBytes& buf, std::size_t pos) : buf_(buf), pos_(pos) {}

  template <typename T>
  void put(T v) {
    std::memcpy(buf_.data() + pos_, &v, sizeof(T));
    pos_ += sizeof(T);
  }

  /// write_span's padding and count, with the elements left to the
  /// caller: returns where they go (T-aligned).
  template <typename T>
  T* put_array(std::size_t count) {
    while ((pos_ - kBlobAt) % 8 != 0) buf_[pos_++] = 0;
    put(static_cast<std::uint64_t>(count));
    T* at = reinterpret_cast<T*>(buf_.data() + pos_);
    pos_ += count * sizeof(T);
    return at;
  }

  std::size_t pos() const { return pos_; }

  /// Appends the CRC trailer, fills the length prefix and returns the
  /// wire bytes.
  std::span<const std::uint8_t> seal() {
    put(support::crc32(std::span<const std::uint8_t>(
        buf_.data() + kPayloadAt, pos_ - kPayloadAt)));
    const std::uint32_t len = static_cast<std::uint32_t>(pos_ - kBlobAt);
    std::memcpy(buf_.data() + kLeadBytes, &len, kLengthPrefixBytes);
    return {buf_.data() + kLeadBytes, pos_ - kLeadBytes};
  }

 private:
  FrameBytes& buf_;
  std::size_t pos_;
};

/// Where SolveOk's server_us sits: right behind the type and request id.
constexpr std::size_t kServerUsAt = kPayloadAt + 1 + 8;

/// The 16-byte trace id travels as two little-endian u64 halves.
std::array<std::uint64_t, 2> trace_id_halves(
    const support::trace::TraceId& id) {
  std::uint64_t hi = 0, lo = 0;
  for (int i = 0; i < 8; ++i) {
    hi |= static_cast<std::uint64_t>(id[i]) << (8 * i);
    lo |= static_cast<std::uint64_t>(id[8 + i]) << (8 * i);
  }
  return {hi, lo};
}

/// Shared tail of every decoder: the reader must be clean AND fully
/// consumed (a frame with trailing bytes is from a different grammar).
template <typename T>
Expected<T> finish_decode(FrameHead& head, T frame, const char* what) {
  if (!head.reader.ok()) {
    return Expected<T>(SolveStatus::kProtocolError,
                       std::string(what) + ": " + head.reader.error());
  }
  if (head.reader.remaining() != 0) {
    // Latch on the reader too: the server fail-stops connections on
    // reader state, and trailing bytes are as disqualifying as a bad CRC.
    head.reader.fail(std::string(what) + ": " +
                     std::to_string(head.reader.remaining()) +
                     " trailing payload bytes");
    return Expected<T>(SolveStatus::kProtocolError,
                       std::string(what) + ": trailing payload bytes");
  }
  return frame;
}

std::size_t hist_bytes(const service::LatencyHistogramSnapshot& h) {
  return 8 + 8 + span_bytes<std::uint64_t>(h.counts.size());
}

void write_hist(BlobWriter& w,
                const service::LatencyHistogramSnapshot& h) {
  w.write_u64(h.count);
  w.write_u64(h.sum_us);
  w.write_span<std::uint64_t>(h.counts);
}

service::LatencyHistogramSnapshot read_hist(BlobReader& r) {
  service::LatencyHistogramSnapshot h;
  h.count = r.read_u64();
  h.sum_us = r.read_u64();
  h.counts = r.read_vector<std::uint64_t>();
  if (h.counts.size() > service::LatencyHistogram::kBuckets) {
    r.fail("latency histogram with " + std::to_string(h.counts.size()) +
           " buckets exceeds the bucket-count bound");
    h = {};
  }
  return h;
}

support::trace::TraceId read_trace_id(BlobReader& r) {
  const std::uint64_t hi = r.read_u64();
  const std::uint64_t lo = r.read_u64();
  support::trace::TraceId id{};
  for (int i = 0; i < 8; ++i) {
    id[i] = static_cast<std::uint8_t>(hi >> (8 * i));
    id[8 + i] = static_cast<std::uint8_t>(lo >> (8 * i));
  }
  return id;
}

}  // namespace

void WireStats::merge(const WireStats& other) {
  submitted += other.submitted;
  completed += other.completed;
  failed += other.failed;
  rejected += other.rejected;
  shed += other.shed;
  batches += other.batches;
  coalesced_rhs += other.coalesced_rhs;
  queue_depth += other.queue_depth;
  peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
  connections_accepted += other.connections_accepted;
  connections_active += other.connections_active;
  frames_received += other.frames_received;
  protocol_errors += other.protocol_errors;
  plans_open += other.plans_open;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_evictions += other.cache_evictions;
  cache_byte_evictions += other.cache_byte_evictions;
  cache_disk_hits += other.cache_disk_hits;
  cache_disk_stores += other.cache_disk_stores;
  latency.merge(other.latency);
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    per_class[c].submitted += other.per_class[c].submitted;
    per_class[c].completed += other.per_class[c].completed;
    per_class[c].shed += other.per_class[c].shed;
    per_class[c].latency.merge(other.per_class[c].latency);
  }
  for (std::size_t p = 0; p < phases.size(); ++p) {
    phases[p].merge(other.phases[p]);
  }
}

// ---- encoders --------------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloFrame& f) {
  BlobWriter w = begin_frame(FrameType::kHello, f.request_id,
                             2 + 2 + string_bytes(f.client_name));
  w.write_u16(f.min_version);
  w.write_u16(f.max_version);
  w.write_string(f.client_name);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_hello_ok(const HelloOkFrame& f) {
  BlobWriter w = begin_frame(FrameType::kHelloOk, f.request_id,
                             2 + 8 + string_bytes(f.server_name));
  w.write_u16(f.version);
  w.write_u64(f.max_frame_bytes);
  w.write_string(f.server_name);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_open_plan(const OpenPlanFrame& f) {
  std::size_t body = 1 + string_bytes(f.backend_key);
  switch (f.mode) {
    case OpenMode::kMatrix:  // sparse::write_csc: two i32 + three spans
      body += 4 + 4 + span_bytes<offset_t>(f.matrix.col_ptr.size()) +
              span_bytes<index_t>(f.matrix.row_idx.size()) +
              span_bytes<value_t>(f.matrix.val.size());
      break;
    case OpenMode::kPlanBlob:
      body += span_bytes<std::uint8_t>(f.plan_blob.size());
      break;
    case OpenMode::kHashRef:
      body += 8 + 8;
      break;
  }
  BlobWriter w = begin_frame(FrameType::kOpenPlan, f.request_id, body);
  w.write_u8(static_cast<std::uint8_t>(f.mode));
  w.write_string(f.backend_key);
  switch (f.mode) {
    case OpenMode::kMatrix:
      sparse::write_csc(w, f.matrix);
      break;
    case OpenMode::kPlanBlob:
      w.write_span<std::uint8_t>(f.plan_blob);
      break;
    case OpenMode::kHashRef:
      w.write_u64(f.hash.pattern);
      w.write_u64(f.hash.values);
      break;
  }
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_open_ok(const OpenOkFrame& f) {
  BlobWriter w = begin_frame(FrameType::kOpenOk, f.request_id,
                             8 + 4 + 8 + 8 + string_bytes(f.source));
  w.write_u64(f.plan_id);
  w.write_i32(f.rows);
  w.write_u64(f.hash.pattern);
  w.write_u64(f.hash.values);
  w.write_string(f.source);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_solve(const SolveFrame& f) {
  FrameBytes buf;
  const std::span<const std::uint8_t> wire = encode_solve_into(buf, f, f.rhs);
  return {wire.begin(), wire.end()};
}

std::span<const std::uint8_t> encode_solve_into(FrameBytes& buf,
                                                const SolveFrame& f,
                                                std::span<const value_t> rhs) {
  InPlaceFrame w(buf, FrameType::kSolve, f.request_id,
                 8 + 4 + 1 + 8 + span_bytes<value_t>(rhs.size()) + 16);
  w.put(f.plan_id);
  w.put(static_cast<std::int32_t>(f.num_rhs));
  w.put(static_cast<std::uint8_t>(f.priority));
  w.put(f.deadline_us);
  value_t* at = w.put_array<value_t>(rhs.size());
  if (!rhs.empty()) std::memcpy(at, rhs.data(), rhs.size_bytes());
  // Optional tail: the trace id rides only when set, so untraced frames
  // are byte-identical to the pre-trace grammar.
  if (support::trace::trace_id_set(f.trace_id)) {
    for (const std::uint64_t half : trace_id_halves(f.trace_id)) w.put(half);
  }
  return w.seal();
}

std::vector<std::uint8_t> encode_solve_ok(const SolveOkFrame& f) {
  FrameBytes buf;
  SolveOkWriter w(buf, f.request_id, f.x.size());
  std::copy(f.x.begin(), f.x.end(), w.x().begin());
  const std::span<const std::uint8_t> wire =
      w.finish(f.server_us, f.has_phases ? &f.phases : nullptr);
  return {wire.begin(), wire.end()};
}

SolveOkWriter::SolveOkWriter(FrameBytes& buf, std::uint64_t request_id,
                             std::size_t x_len)
    : buf_(buf) {
  InPlaceFrame w(buf, FrameType::kSolveOk, request_id,
                 8 + span_bytes<value_t>(x_len) + 7 * 8);
  w.put(0.0);  // server_us, known at finish()
  x_ = {w.put_array<value_t>(x_len), x_len};
  tail_at_ = w.pos();
}

std::span<const std::uint8_t> SolveOkWriter::finish(
    double server_us, const support::trace::PhaseBreakdown* phases) {
  std::memcpy(buf_.data() + kServerUsAt, &server_us, sizeof(server_us));
  InPlaceFrame w(buf_, tail_at_);
  // Optional tail: seven f64 microsecond fields in PhaseBreakdown order.
  if (phases != nullptr) {
    w.put(phases->queue_us);
    w.put(phases->coalesce_us);
    w.put(phases->claim_us);
    w.put(phases->pack_us);
    w.put(phases->kernel_us);
    w.put(phases->unpack_us);
    w.put(phases->reply_us);
  }
  return w.seal();
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& f) {
  BlobWriter w = begin_frame(FrameType::kError, f.request_id,
                             1 + string_bytes(f.message));
  w.write_u8(static_cast<std::uint8_t>(f.status));
  w.write_string(f.message);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_stats(const StatsFrame& f) {
  BlobWriter w = begin_frame(FrameType::kStats, f.request_id, 1);
  w.write_u8(static_cast<std::uint8_t>(f.format));
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_stats_ok(const StatsOkFrame& f) {
  std::size_t body = 1;
  if (f.format == StatsFormat::kPrometheus) {
    body += string_bytes(f.text);
  } else {
    body += (14 + 6) * 8 + hist_bytes(f.stats.latency);
    for (const WireStats::PerClass& pc : f.stats.per_class) {
      body += 3 * 8 + hist_bytes(pc.latency);
    }
    for (const service::LatencyHistogramSnapshot& ph : f.stats.phases) {
      body += hist_bytes(ph);
    }
  }
  BlobWriter w = begin_frame(FrameType::kStatsOk, f.request_id, body);
  w.write_u8(static_cast<std::uint8_t>(f.format));
  if (f.format == StatsFormat::kPrometheus) {
    w.write_string(f.text);
  } else {
    const WireStats& s = f.stats;
    w.write_u64(s.submitted);
    w.write_u64(s.completed);
    w.write_u64(s.failed);
    w.write_u64(s.rejected);
    w.write_u64(s.shed);
    w.write_u64(s.batches);
    w.write_u64(s.coalesced_rhs);
    w.write_u64(s.queue_depth);
    w.write_u64(s.peak_queue_depth);
    w.write_u64(s.connections_accepted);
    w.write_u64(s.connections_active);
    w.write_u64(s.frames_received);
    w.write_u64(s.protocol_errors);
    w.write_u64(s.plans_open);
    write_hist(w, s.latency);
    for (const WireStats::PerClass& pc : s.per_class) {
      w.write_u64(pc.submitted);
      w.write_u64(pc.completed);
      w.write_u64(pc.shed);
      write_hist(w, pc.latency);
    }
    // Extension tail (decoded only when present, so pre-trace peers
    // still parse the prefix): plan-cache counters + per-phase hists.
    w.write_u64(s.cache_hits);
    w.write_u64(s.cache_misses);
    w.write_u64(s.cache_evictions);
    w.write_u64(s.cache_byte_evictions);
    w.write_u64(s.cache_disk_hits);
    w.write_u64(s.cache_disk_stores);
    for (const service::LatencyHistogramSnapshot& ph : s.phases) {
      write_hist(w, ph);
    }
  }
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_drain(const DrainFrame& f) {
  return seal(begin_frame(FrameType::kDrain, f.request_id));
}

std::vector<std::uint8_t> encode_drain_ok(const DrainOkFrame& f) {
  BlobWriter w = begin_frame(FrameType::kDrainOk, f.request_id, 8);
  w.write_u64(f.completed);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_ping(const PingFrame& f) {
  return seal(begin_frame(FrameType::kPing, f.request_id));
}

std::vector<std::uint8_t> encode_pong(const PongFrame& f) {
  return seal(begin_frame(FrameType::kPong, f.request_id));
}

std::vector<std::uint8_t> encode_failpoint(const FailpointFrame& f) {
  BlobWriter w = begin_frame(FrameType::kFailpoint, f.request_id,
                             string_bytes(f.name) + string_bytes(f.spec));
  w.write_string(f.name);
  w.write_string(f.spec);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_failpoint_ok(const FailpointOkFrame& f) {
  BlobWriter w = begin_frame(FrameType::kFailpointOk, f.request_id, 4);
  w.write_u32(f.armed);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_trace_dump(const TraceDumpFrame& f) {
  BlobWriter w = begin_frame(FrameType::kTraceDump, f.request_id,
                             string_bytes(f.filter) + 1);
  w.write_string(f.filter);
  w.write_u8(f.include_slow ? 1 : 0);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_trace_dump_ok(const TraceDumpOkFrame& f) {
  BlobWriter w =
      begin_frame(FrameType::kTraceDumpOk, f.request_id,
                  string_bytes(f.json) + string_bytes(f.slow_json));
  w.write_string(f.json);
  w.write_string(f.slow_json);
  return seal(std::move(w));
}

// ---- decoders --------------------------------------------------------------

Expected<FrameHead> peek_frame(std::span<const std::uint8_t> blob) {
  BlobReader r(blob, kProtocolVersion);
  const std::uint8_t type = r.read_u8();
  const std::uint64_t request_id = r.read_u64();
  if (!r.ok()) {
    return Expected<FrameHead>(SolveStatus::kProtocolError,
                               "bad frame: " + r.error());
  }
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kTraceDumpOk)) {
    return Expected<FrameHead>(SolveStatus::kProtocolError,
                               "unknown frame type " + std::to_string(type));
  }
  return FrameHead{static_cast<FrameType>(type), request_id, std::move(r)};
}

Expected<VerifiedFrame> VerifiedFrame::verify(FrameBytes blob) {
  Expected<FrameHead> head = peek_frame(blob);
  if (!head.ok()) return Expected<VerifiedFrame>(head.error());
  // The head's reader points into blob's heap buffer, which the move
  // hands to the new object unchanged.
  return VerifiedFrame(std::move(blob), std::move(head.value()));
}

Expected<HelloFrame> decode_hello(FrameHead& head) {
  HelloFrame f;
  f.request_id = head.request_id;
  f.min_version = head.reader.read_u16();
  f.max_version = head.reader.read_u16();
  f.client_name = head.reader.read_string();
  if (f.min_version > f.max_version) {
    head.reader.fail("hello with min_version > max_version");
  }
  return finish_decode(head, std::move(f), "hello");
}

Expected<HelloOkFrame> decode_hello_ok(FrameHead& head) {
  HelloOkFrame f;
  f.request_id = head.request_id;
  f.version = head.reader.read_u16();
  f.max_frame_bytes = head.reader.read_u64();
  f.server_name = head.reader.read_string();
  return finish_decode(head, std::move(f), "hello-ok");
}

Expected<OpenPlanFrame> decode_open_plan(FrameHead& head) {
  OpenPlanFrame f;
  f.request_id = head.request_id;
  const std::uint8_t mode = head.reader.read_u8();
  f.backend_key = head.reader.read_string();
  if (mode > static_cast<std::uint8_t>(OpenMode::kHashRef)) {
    head.reader.fail("unknown open mode " + std::to_string(mode));
    return finish_decode(head, std::move(f), "open-plan");
  }
  f.mode = static_cast<OpenMode>(mode);
  switch (f.mode) {
    case OpenMode::kMatrix:
      // read_csc bounds-checks shape, pointer monotonicity, and index
      // ranges -- a hostile matrix fails the reader, not the solver.
      f.matrix = sparse::read_csc(head.reader);
      break;
    case OpenMode::kPlanBlob:
      f.plan_blob = head.reader.read_vector<std::uint8_t>();
      break;
    case OpenMode::kHashRef:
      f.hash.pattern = head.reader.read_u64();
      f.hash.values = head.reader.read_u64();
      break;
  }
  return finish_decode(head, std::move(f), "open-plan");
}

Expected<OpenOkFrame> decode_open_ok(FrameHead& head) {
  OpenOkFrame f;
  f.request_id = head.request_id;
  f.plan_id = head.reader.read_u64();
  f.rows = head.reader.read_i32();
  f.hash.pattern = head.reader.read_u64();
  f.hash.values = head.reader.read_u64();
  f.source = head.reader.read_string();
  if (f.rows < 0) head.reader.fail("negative row count");
  return finish_decode(head, std::move(f), "open-ok");
}

namespace {

/// The solve frame's grammar; `read_rhs` consumes its array.
template <typename ReadRhs>
Expected<SolveFrame> decode_solve_with(FrameHead& head, ReadRhs read_rhs) {
  SolveFrame f;
  f.request_id = head.request_id;
  f.plan_id = head.reader.read_u64();
  f.num_rhs = head.reader.read_i32();
  const std::uint8_t priority = head.reader.read_u8();
  f.deadline_us = head.reader.read_u64();
  read_rhs(f);
  if (f.num_rhs < 1) {
    head.reader.fail("num_rhs must be >= 1 (got " +
                     std::to_string(f.num_rhs) + ")");
  }
  if (priority >= service::kNumPriorities) {
    head.reader.fail("unknown priority class " + std::to_string(priority));
  } else {
    f.priority = static_cast<service::Priority>(priority);
  }
  // Optional trace-id tail: absent in frames from pre-trace clients.
  if (head.reader.ok() && head.reader.remaining() > 0) {
    f.trace_id = read_trace_id(head.reader);
  }
  return finish_decode(head, std::move(f), "solve");
}

}  // namespace

Expected<SolveFrame> decode_solve(FrameHead& head) {
  return decode_solve_with(head, [&head](SolveFrame& f) {
    f.rhs = head.reader.read_vector<value_t>();
  });
}

Expected<SolveFrame> decode_solve_in_place(FrameHead& head,
                                           std::span<const value_t>& rhs) {
  return decode_solve_with(
      head, [&](SolveFrame&) { rhs = head.reader.read_view<value_t>(); });
}

Expected<SolveOkFrame> decode_solve_ok(FrameHead& head) {
  SolveOkFrame f;
  f.request_id = head.request_id;
  f.server_us = head.reader.read_f64();
  f.x = head.reader.read_vector<value_t>();
  // Optional phase-breakdown tail: absent in replies from pre-trace servers.
  if (head.reader.ok() && head.reader.remaining() > 0) {
    f.phases.queue_us = head.reader.read_f64();
    f.phases.coalesce_us = head.reader.read_f64();
    f.phases.claim_us = head.reader.read_f64();
    f.phases.pack_us = head.reader.read_f64();
    f.phases.kernel_us = head.reader.read_f64();
    f.phases.unpack_us = head.reader.read_f64();
    f.phases.reply_us = head.reader.read_f64();
    f.has_phases = head.reader.ok();
  }
  return finish_decode(head, std::move(f), "solve-ok");
}

Expected<ErrorFrame> decode_error(FrameHead& head) {
  ErrorFrame f;
  f.request_id = head.request_id;
  const std::uint8_t status = head.reader.read_u8();
  f.message = head.reader.read_string();
  if (status > static_cast<std::uint8_t>(SolveStatus::kInternalError)) {
    head.reader.fail("unknown status code " + std::to_string(status));
  } else {
    f.status = static_cast<SolveStatus>(status);
  }
  if (f.status == SolveStatus::kOk) {
    head.reader.fail("error frame carrying status ok");
  }
  return finish_decode(head, std::move(f), "error");
}

Expected<StatsFrame> decode_stats(FrameHead& head) {
  StatsFrame f;
  f.request_id = head.request_id;
  const std::uint8_t format = head.reader.read_u8();
  if (format > static_cast<std::uint8_t>(StatsFormat::kBinary)) {
    head.reader.fail("unknown stats format " + std::to_string(format));
  } else {
    f.format = static_cast<StatsFormat>(format);
  }
  return finish_decode(head, std::move(f), "stats");
}

Expected<StatsOkFrame> decode_stats_ok(FrameHead& head) {
  StatsOkFrame f;
  f.request_id = head.request_id;
  const std::uint8_t format = head.reader.read_u8();
  if (format > static_cast<std::uint8_t>(StatsFormat::kBinary)) {
    head.reader.fail("unknown stats format " + std::to_string(format));
    return finish_decode(head, std::move(f), "stats-ok");
  }
  f.format = static_cast<StatsFormat>(format);
  if (f.format == StatsFormat::kPrometheus) {
    f.text = head.reader.read_string();
  } else {
    WireStats& s = f.stats;
    s.submitted = head.reader.read_u64();
    s.completed = head.reader.read_u64();
    s.failed = head.reader.read_u64();
    s.rejected = head.reader.read_u64();
    s.shed = head.reader.read_u64();
    s.batches = head.reader.read_u64();
    s.coalesced_rhs = head.reader.read_u64();
    s.queue_depth = head.reader.read_u64();
    s.peak_queue_depth = head.reader.read_u64();
    s.connections_accepted = head.reader.read_u64();
    s.connections_active = head.reader.read_u64();
    s.frames_received = head.reader.read_u64();
    s.protocol_errors = head.reader.read_u64();
    s.plans_open = head.reader.read_u64();
    s.latency = read_hist(head.reader);
    for (WireStats::PerClass& pc : s.per_class) {
      pc.submitted = head.reader.read_u64();
      pc.completed = head.reader.read_u64();
      pc.shed = head.reader.read_u64();
      pc.latency = read_hist(head.reader);
    }
    if (head.reader.ok() && head.reader.remaining() > 0) {
      s.cache_hits = head.reader.read_u64();
      s.cache_misses = head.reader.read_u64();
      s.cache_evictions = head.reader.read_u64();
      s.cache_byte_evictions = head.reader.read_u64();
      s.cache_disk_hits = head.reader.read_u64();
      s.cache_disk_stores = head.reader.read_u64();
      for (service::LatencyHistogramSnapshot& ph : s.phases) {
        ph = read_hist(head.reader);
      }
    }
  }
  return finish_decode(head, std::move(f), "stats-ok");
}

Expected<DrainFrame> decode_drain(FrameHead& head) {
  DrainFrame f;
  f.request_id = head.request_id;
  return finish_decode(head, std::move(f), "drain");
}

Expected<DrainOkFrame> decode_drain_ok(FrameHead& head) {
  DrainOkFrame f;
  f.request_id = head.request_id;
  f.completed = head.reader.read_u64();
  return finish_decode(head, std::move(f), "drain-ok");
}

Expected<PingFrame> decode_ping(FrameHead& head) {
  PingFrame f;
  f.request_id = head.request_id;
  return finish_decode(head, std::move(f), "ping");
}

Expected<PongFrame> decode_pong(FrameHead& head) {
  PongFrame f;
  f.request_id = head.request_id;
  return finish_decode(head, std::move(f), "pong");
}

Expected<FailpointFrame> decode_failpoint(FrameHead& head) {
  FailpointFrame f;
  f.request_id = head.request_id;
  f.name = head.reader.read_string();
  f.spec = head.reader.read_string();
  return finish_decode(head, std::move(f), "failpoint");
}

Expected<FailpointOkFrame> decode_failpoint_ok(FrameHead& head) {
  FailpointOkFrame f;
  f.request_id = head.request_id;
  f.armed = head.reader.read_u32();
  return finish_decode(head, std::move(f), "failpoint-ok");
}

Expected<TraceDumpFrame> decode_trace_dump(FrameHead& head) {
  TraceDumpFrame f;
  f.request_id = head.request_id;
  f.filter = head.reader.read_string();
  if (!f.filter.empty()) {
    support::trace::TraceId parsed{};
    if (!support::trace::trace_id_parse(f.filter, &parsed)) {
      head.reader.fail("trace filter is not a 32-hex-char trace id");
    }
  }
  f.include_slow = head.reader.read_u8() != 0;
  return finish_decode(head, std::move(f), "trace-dump");
}

Expected<TraceDumpOkFrame> decode_trace_dump_ok(FrameHead& head) {
  TraceDumpOkFrame f;
  f.request_id = head.request_id;
  f.json = head.reader.read_string();
  f.slow_json = head.reader.read_string();
  return finish_decode(head, std::move(f), "trace-dump-ok");
}

// ---- socket framing --------------------------------------------------------

Expected<bool> write_frame(Socket& sock,
                           std::span<const std::uint8_t> wire) {
  return sock.send_all(wire);
}

Expected<bool> read_frame(Socket& sock, std::uint32_t max_frame_bytes,
                          FrameBytes& blob) {
  std::uint8_t prefix[4];
  bool eof = false;
  Expected<bool> got = sock.recv_exact(prefix, &eof);
  if (!got.ok()) return got;
  if (eof) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, prefix, 4);
  // Bounds on the ATTACKER-CHOSEN length, checked before any allocation:
  // too small to be a blob, or larger than the negotiated cap, is a
  // protocol violation -- never an allocation attempt.
  if (len < support::kBlobMinBytes + 9 || len > max_frame_bytes) {
    return Expected<bool>(
        SolveStatus::kProtocolError,
        "frame length " + std::to_string(len) + " outside [" +
            std::to_string(support::kBlobMinBytes + 9) + ", " +
            std::to_string(max_frame_bytes) + "]");
  }
  blob.clear();  // so a reallocation does not copy the previous frame
  blob.resize(len);
  got = sock.recv_exact(blob, &eof);
  if (!got.ok()) return got;
  if (eof) {
    return Expected<bool>(SolveStatus::kNetworkError,
                          "peer closed between length prefix and frame body");
  }
  return true;
}

}  // namespace msptrsv::net
