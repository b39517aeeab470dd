// Request-scoped tracing: spans from the wire down to the kernels.
//
// The service's histograms (PR 6) say THAT p99 moved; this layer says WHY:
// every solve can carry a 16-byte trace id from the client through the
// frame protocol, the request queue, the gang claim, the workspace packs,
// and each kernel level, and every layer it crosses records a SPAN
// {trace_id, span_id, parent, name, t0, t1, tid, args} into a lock-free
// per-thread ring buffer. A collector snapshots the rings into Chrome
// trace-event JSON (the format Perfetto and chrome://tracing load
// directly), so "why was THIS solve slow" is one dump away.
//
// The design copies the failpoint playbook (support/failpoint.hpp), which
// this repo already trusts on hot paths:
//
//  * compile-time gate: MSPTRSV_TRACE=OFF removes every macro site --
//    zero code, zero cost (trace_compiled() reports which build this is);
//  * runtime gate: one RELAXED atomic load when tracing is disarmed --
//    the production default. Arming is trace_set_enabled(true) or the
//    MSPTRSV_TRACE=1 environment variable (parsed lazily, like
//    MSPTRSV_FAILPOINTS);
//  * recording is wait-free: a span end is a handful of stores into the
//    calling thread's own ring plus one release store of the head index.
//    No locks, no allocation, no cross-thread traffic on the hot path.
//
// Rings are fixed-capacity and WRAP: tracing never blocks or grows, old
// events fall off. The collector may observe a torn slot on a ring whose
// owner is mid-write -- acceptable for observability (collection normally
// happens at dump time, quiesced or nearly so).
//
// Phase attribution (PhaseBreakdown / phase_scratch) is compiled
// UNCONDITIONALLY: the per-reply queue/coalesce/claim/pack/kernel/unpack/
// reply attribution feeds ServiceStats' per-phase histograms and the
// Prometheus summaries whether or not span recording is built in. Its
// cost is a few steady_clock reads per solve *batch*, not per row.
//
// Determinism: tracing only reads clocks and writes thread-local memory.
// It never touches operands, kernel scheduling, or reduction order, so
// solves are bit-for-bit identical with tracing armed, disarmed, or
// compiled out (pinned by tests/test_trace.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace msptrsv::support::trace {

/// 16-byte request-scoped identity, propagated over the wire as an
/// optional solve-frame field (docs/PROTOCOL.md). All-zero = "no trace".
using TraceId = std::array<std::uint8_t, 16>;

inline bool trace_id_set(const TraceId& id) {
  for (const std::uint8_t b : id) {
    if (b != 0) return true;
  }
  return false;
}

/// 32 lowercase hex chars; the human-facing form (CLI filters, JSON args).
std::string trace_id_hex(const TraceId& id);
/// Parses the hex form back (32 hex chars, case-insensitive). False on
/// malformed input, `out` untouched.
bool trace_id_parse(std::string_view hex, TraceId* out);
/// A fresh process-unique id (splitmix-scrambled counter; no global
/// coordination, collision-free within a process and overwhelmingly
/// unlikely across a fleet).
TraceId make_trace_id();

/// True when span recording is compiled in (MSPTRSV_TRACE=ON builds).
bool trace_compiled();
/// Arms / disarms span recording process-wide. No-op (false) when spans
/// are compiled out.
bool trace_set_enabled(bool enabled);
/// Armed right now? (Also consults the MSPTRSV_TRACE env var on first
/// call, like the failpoint registry.)
bool trace_enabled();

/// Monotonic nanoseconds (steady_clock); the time base of every span.
std::uint64_t trace_now_ns();

// ---- thread-bound context ---------------------------------------------------
// The current trace id + parent span travel with the THREAD: spans opened
// on this thread record under them, and nested spans re-parent naturally.
// Crossing a thread boundary (reader -> queue -> pool worker) is explicit:
// the request carries {trace_id, parent_span} and the executing side
// installs a ScopedTraceContext for the duration.

TraceId current_trace_id();
std::uint64_t current_parent_span();

class ScopedTraceContext {
 public:
  ScopedTraceContext(const TraceId& id, std::uint64_t parent_span = 0);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceId previous_id_;
  std::uint64_t previous_parent_;
};

// ---- recording --------------------------------------------------------------

/// Records a complete span with EXPLICIT timestamps and identity -- the
/// escape hatch for (a) synthetic spans reconstructed after the fact (the
/// queue-wait span is emitted at dispatch time from the request's stored
/// submit stamp) and (b) threads that hold a request's identity in hand
/// rather than in thread-local context (the server thread writing a
/// reply). `name` and arg names must be string literals (stored by
/// pointer). No-op unless compiled + armed.
void trace_emit(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                const TraceId& id, std::uint64_t parent_span,
                const char* a0_name = nullptr, std::int64_t a0 = 0,
                const char* a1_name = nullptr, std::int64_t a1 = 0);

/// As trace_emit but under the thread's current context (kernel leader
/// spans: the gang leader is the thread that carried the context in).
void trace_emit_here(const char* name, std::uint64_t t0_ns,
                     std::uint64_t t1_ns, const char* a0_name = nullptr,
                     std::int64_t a0 = 0, const char* a1_name = nullptr,
                     std::int64_t a1 = 0);

/// RAII span: stamps t0 at construction, records at destruction, and makes
/// itself the thread's parent span for its lifetime (so spans nest).
/// Construction is one relaxed load when tracing is disarmed.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) { maybe_begin(name); }
  TraceSpan(const char* name, const char* a0_name, std::int64_t a0) {
    maybe_begin(name);
    a0_name_ = a0_name;
    a0_ = a0;
  }
  ~TraceSpan() {
    if (active_) end();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches the second numeric arg (e.g. a result size learned late).
  void set_arg(const char* name, std::int64_t value) {
    a1_name_ = name;
    a1_ = value;
  }
  bool active() const { return active_; }
  /// This span's id (0 when inactive) -- what a request stores so OTHER
  /// threads can parent to it (SubmitOptions::parent_span).
  std::uint64_t span_id() const { return span_; }

 private:
  void maybe_begin(const char* name);
  void end();

  bool active_ = false;
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::uint64_t span_ = 0;
  std::uint64_t saved_parent_ = 0;
  const char* a0_name_ = nullptr;
  std::int64_t a0_ = 0;
  const char* a1_name_ = nullptr;
  std::int64_t a1_ = 0;
};

// ---- collection -------------------------------------------------------------

/// Snapshots every thread's ring into one Chrome trace-event JSON document
/// ({"traceEvents":[...]}; ts/dur in microseconds). Loadable as-is in
/// Perfetto / chrome://tracing. Empty document when compiled out.
std::string trace_collect_json();
/// Same, filtered to one trace id (what kTraceDump with a filter serves).
std::string trace_collect_json(const TraceId& id);
/// Drops every buffered event and retained slow trace (tests; also the
/// bench harness between studies).
void trace_clear();
/// Buffered events across all rings right now (observability/tests).
std::size_t trace_event_count();

// ---- slow-request sampler ---------------------------------------------------
// Always on while tracing is armed: every completion reports its latency
// here; completions slower than the configured threshold -- or, with no
// threshold, slower than a rolling high-percentile estimate -- get their
// full span tree copied OUT of the rings before it can wrap away. The
// retained trees ride along in kTraceDump replies and --trace-dir dumps,
// so "the slow one from an hour ago" is still there.

/// Explicit slowness threshold in microseconds; 0 (default) = automatic
/// (a rolling ~p99 estimate of reported latencies).
void trace_set_slow_threshold_us(double us);
/// Reports a completed solve; samples its span tree if slow (see above).
void trace_note_completion(const TraceId& id, double latency_us);
/// Retained slow traces as one trace-event JSON document (newest last).
std::string trace_slow_json();
std::size_t trace_slow_count();

// ---- per-solve phase attribution (always compiled) --------------------------

/// Wall-clock attribution of one reply's latency, in microseconds. The
/// first six are measured by the service/core layers; reply_us is stamped
/// by whichever server thread writes the reply. claim_us is measured
/// inside the kernel region but reported separately (kernel_us excludes
/// it), so the seven phases partition the observable latency. Rides the
/// solve-ok frame as an optional tail (docs/PROTOCOL.md) and feeds the
/// per-phase histograms in ServiceStats.
struct PhaseBreakdown {
  double queue_us = 0;     ///< submit -> dispatch start (total queue wait)
  double coalesce_us = 0;  ///< part of the wait spent gathering companions
  double claim_us = 0;     ///< shared-pool gang claim
  double pack_us = 0;      ///< always 0: no kernel transposes the batch
  double kernel_us = 0;    ///< the solve sweep itself (minus claim)
  double unpack_us = 0;    ///< always 0: no kernel transposes the batch
  double reply_us = 0;     ///< completion -> reply flushed on the socket
};

/// Names for the seven phases above, in field order (metrics labels,
/// JSON keys). kNumPhases == 7.
inline constexpr std::size_t kNumPhases = 7;
inline constexpr const char* kPhaseNames[kNumPhases] = {
    "queue", "coalesce", "claim", "pack", "kernel", "unpack", "reply"};

/// Thread-local deposit box the deep layers drop sub-phase durations into
/// (worker_pool's claim, plan.cpp's kernel): the layers below the service
/// have no request in hand, but they DO run on the submitting dispatch
/// thread, so a thread-local accumulator reaches the service without
/// widening any kernel signature. SolverPlan::run_batch resets it on
/// entry and copies it into the result's PhaseBreakdown.
struct PhaseScratch {
  double claim_us = 0;
  double kernel_us = 0;
  void reset() { claim_us = kernel_us = 0; }
};
PhaseScratch& phase_scratch();

namespace detail {
/// The macro fast path: one relaxed load (false forever when compiled
/// out; lazily consults the MSPTRSV_TRACE env var like the failpoints).
bool trace_armed();
}  // namespace detail

}  // namespace msptrsv::support::trace

// ---- macro sites ------------------------------------------------------------
// MSPTRSV_TRACE_SPAN(name[, arg_name, arg]) opens an anonymous RAII span
// for the enclosing scope. MSPTRSV_TRACE_ARMED() is the inline gate for
// hand-rolled sites (kernel leaders capture their own t0 and call
// trace_emit_here). Both vanish entirely under -DMSPTRSV_TRACE=OFF.
#if defined(MSPTRSV_TRACE) && MSPTRSV_TRACE

#define MSPTRSV_TRACE_CONCAT_INNER(a, b) a##b
#define MSPTRSV_TRACE_CONCAT(a, b) MSPTRSV_TRACE_CONCAT_INNER(a, b)
#define MSPTRSV_TRACE_SPAN(...)                          \
  ::msptrsv::support::trace::TraceSpan MSPTRSV_TRACE_CONCAT( \
      msptrsv_trace_span_, __LINE__)(__VA_ARGS__)
#define MSPTRSV_TRACE_ARMED() ::msptrsv::support::trace::detail::trace_armed()

#else

#define MSPTRSV_TRACE_SPAN(...) \
  do {                          \
  } while (false)
#define MSPTRSV_TRACE_ARMED() false

#endif
