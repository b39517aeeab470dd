#include "support/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace msptrsv::support::trace {

namespace {

/// One recorded span. `name` / arg names are string literals (stored by
/// pointer; they live for the process).
struct Event {
  TraceId trace{};
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t tid = 0;
  const char* a0_name = nullptr;
  std::int64_t a0 = 0;
  const char* a1_name = nullptr;
  std::int64_t a1 = 0;
};

/// Per-thread ring. The owner is the only writer of the slots; the
/// collector reads the head with acquire and the newest <= kCapacity slots
/// below it, but none below `floor`. A slot being overwritten concurrently
/// may tear under the reader -- tolerated: collection is an observability
/// snapshot, not a consensus protocol.
struct TraceRing {
  static constexpr std::size_t kCapacity = 8192;
  std::unique_ptr<Event[]> slots{new Event[kCapacity]};
  std::atomic<std::uint64_t> head{0};
  /// Events below this index were dropped by trace_clear(), which moves
  /// the floor instead of writing slots the owner may be writing.
  std::atomic<std::uint64_t> floor{0};
  std::uint32_t tid = 0;
};

/// Leaked (outlives static destructors -- worker threads may record during
/// teardown, exactly the failpoint Registry argument).
struct Registry {
  std::mutex mutex;
  std::vector<TraceRing*> rings;  ///< leaked with the registry
  std::uint32_t next_tid = 1;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

/// >0 armed, 0 disarmed, <0 env not parsed yet (the macro fast path is
/// one relaxed load of this).
std::atomic<int> g_enabled{-1};

std::atomic<std::uint64_t> g_next_span{1};

void init_from_env() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (g_enabled.load(std::memory_order_relaxed) >= 0) return;  // lost race
  const char* env = std::getenv("MSPTRSV_TRACE");
  const bool on = env != nullptr && env[0] != '\0' && env[0] != '0';
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

TraceRing& local_ring() {
  thread_local TraceRing* ring = [] {
    auto* fresh = new TraceRing();  // leaked via the registry
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    fresh->tid = r.next_tid++;
    r.rings.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

void write_event(const Event& e) {
  TraceRing& r = local_ring();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  Event& slot = r.slots[h % TraceRing::kCapacity];
  slot = e;
  slot.tid = r.tid;
  r.head.store(h + 1, std::memory_order_release);
}

struct ThreadContext {
  TraceId id{};
  std::uint64_t parent = 0;
};

ThreadContext& context() {
  thread_local ThreadContext ctx;
  return ctx;
}

bool hex_nibble(char c, std::uint8_t* out) {
  if (c >= '0' && c <= '9') {
    *out = static_cast<std::uint8_t>(c - '0');
  } else if (c >= 'a' && c <= 'f') {
    *out = static_cast<std::uint8_t>(c - 'a' + 10);
  } else if (c >= 'A' && c <= 'F') {
    *out = static_cast<std::uint8_t>(c - 'A' + 10);
  } else {
    return false;
  }
  return true;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Renders one event as a Chrome trace-event object. ts/dur are
/// microseconds (double); span ids render as decimal strings so a JSON
/// reader never rounds them through a double.
void append_event_json(std::string& out, const Event& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"msptrsv\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{",
                e.name != nullptr ? e.name : "?",
                static_cast<double>(e.t0_ns) / 1000.0,
                static_cast<double>(e.t1_ns - e.t0_ns) / 1000.0, e.tid);
  out += buf;
  out += "\"trace_id\":\"";
  out += trace_id_hex(e.trace);
  out += "\"";
  std::snprintf(buf, sizeof(buf), ",\"span\":\"%llu\",\"parent\":\"%llu\"",
                static_cast<unsigned long long>(e.span),
                static_cast<unsigned long long>(e.parent));
  out += buf;
  if (e.a0_name != nullptr) {
    std::snprintf(buf, sizeof(buf), ",\"%s\":%lld", e.a0_name,
                  static_cast<long long>(e.a0));
    out += buf;
  }
  if (e.a1_name != nullptr) {
    std::snprintf(buf, sizeof(buf), ",\"%s\":%lld", e.a1_name,
                  static_cast<long long>(e.a1));
    out += buf;
  }
  out += "}}";
}

/// Snapshots every ring's buffered events (optionally filtered by id).
std::vector<Event> snapshot_events(const TraceId* filter) {
  std::vector<Event> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (TraceRing* ring : r.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n =
        head < TraceRing::kCapacity ? head : TraceRing::kCapacity;
    const std::uint64_t floor = ring->floor.load(std::memory_order_relaxed);
    for (std::uint64_t i = std::max(head - n, floor); i < head; ++i) {
      const Event& e = ring->slots[i % TraceRing::kCapacity];
      if (e.name == nullptr) continue;  // torn or never-written slot
      if (filter != nullptr && e.trace != *filter) continue;
      out.push_back(e);
    }
  }
  return out;
}

std::string render_events(const std::vector<Event>& events) {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    append_event_json(out, events[i]);
  }
  out += "]}";
  return out;
}

// ---- slow sampler ----------------------------------------------------------

struct SlowTrace {
  TraceId id{};
  double latency_us = 0;
  std::vector<Event> events;
};

struct SlowSampler {
  std::mutex mutex;
  std::deque<SlowTrace> retained;
  std::uint64_t completions = 0;
  /// Rolling high-percentile latency estimate (asymmetric exponential
  /// update: chases exceedances fast, decays slowly -- an approximation
  /// of a high quantile, good enough to pick "the slow ones").
  double rolling_us = 0;
  static constexpr std::size_t kRetain = 8;
  /// Auto mode needs a few samples before "slower than rolling estimate"
  /// means anything.
  static constexpr std::uint64_t kWarmup = 32;
};

SlowSampler& sampler() {
  static SlowSampler* s = new SlowSampler();
  return *s;
}

/// Threshold in microseconds as a double bit-pattern (0 = auto).
std::atomic<std::uint64_t> g_slow_threshold_bits{0};

double slow_threshold_us() {
  const std::uint64_t bits =
      g_slow_threshold_bits.load(std::memory_order_relaxed);
  double v;
  static_assert(sizeof(v) == sizeof(bits));
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::string trace_id_hex(const TraceId& id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(32, '0');
  for (std::size_t i = 0; i < id.size(); ++i) {
    out[2 * i] = kHex[id[i] >> 4];
    out[2 * i + 1] = kHex[id[i] & 0xf];
  }
  return out;
}

bool trace_id_parse(std::string_view hex, TraceId* out) {
  if (hex.size() != 32) return false;
  TraceId id{};
  for (std::size_t i = 0; i < id.size(); ++i) {
    std::uint8_t hi, lo;
    if (!hex_nibble(hex[2 * i], &hi) || !hex_nibble(hex[2 * i + 1], &lo)) {
      return false;
    }
    id[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  *out = id;
  return true;
}

TraceId make_trace_id() {
  // Process-unique: a per-process random-ish base (ASLR of a static +
  // first-call clock) scrambled with a counter. No global lock.
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t base = [] {
    static int anchor;
    return splitmix64(
        reinterpret_cast<std::uintptr_t>(&anchor) ^
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()));
  }();
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t hi = splitmix64(base ^ n);
  const std::uint64_t lo = splitmix64(hi ^ ~n);
  TraceId id;
  for (int i = 0; i < 8; ++i) {
    id[i] = static_cast<std::uint8_t>(hi >> (8 * i));
    id[8 + i] = static_cast<std::uint8_t>(lo >> (8 * i));
  }
  if (!trace_id_set(id)) id[0] = 1;  // never hand out the "no trace" value
  return id;
}

bool trace_compiled() {
#if defined(MSPTRSV_TRACE) && MSPTRSV_TRACE
  return true;
#else
  return false;
#endif
}

bool trace_set_enabled(bool enabled) {
  if (!trace_compiled()) return false;
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
  return true;
}

bool trace_enabled() { return detail::trace_armed(); }

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceId current_trace_id() { return context().id; }

std::uint64_t current_parent_span() { return context().parent; }

ScopedTraceContext::ScopedTraceContext(const TraceId& id,
                                       std::uint64_t parent_span) {
  ThreadContext& ctx = context();
  previous_id_ = ctx.id;
  previous_parent_ = ctx.parent;
  ctx.id = id;
  ctx.parent = parent_span;
}

ScopedTraceContext::~ScopedTraceContext() {
  ThreadContext& ctx = context();
  ctx.id = previous_id_;
  ctx.parent = previous_parent_;
}

void trace_emit(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                const TraceId& id, std::uint64_t parent_span,
                const char* a0_name, std::int64_t a0, const char* a1_name,
                std::int64_t a1) {
  if (!detail::trace_armed()) return;
  Event e;
  e.trace = id;
  e.span = g_next_span.fetch_add(1, std::memory_order_relaxed);
  e.parent = parent_span;
  e.name = name;
  e.t0_ns = t0_ns;
  e.t1_ns = t1_ns >= t0_ns ? t1_ns : t0_ns;
  e.a0_name = a0_name;
  e.a0 = a0;
  e.a1_name = a1_name;
  e.a1 = a1;
  write_event(e);
}

void trace_emit_here(const char* name, std::uint64_t t0_ns,
                     std::uint64_t t1_ns, const char* a0_name,
                     std::int64_t a0, const char* a1_name, std::int64_t a1) {
  const ThreadContext& ctx = context();
  trace_emit(name, t0_ns, t1_ns, ctx.id, ctx.parent, a0_name, a0, a1_name,
             a1);
}

void TraceSpan::maybe_begin(const char* name) {
  if (!detail::trace_armed()) return;
  active_ = true;
  name_ = name;
  t0_ = trace_now_ns();
  span_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  ThreadContext& ctx = context();
  saved_parent_ = ctx.parent;
  ctx.parent = span_;  // children opened in this scope nest under us
}

void TraceSpan::end() {
  ThreadContext& ctx = context();
  ctx.parent = saved_parent_;
  Event e;
  e.trace = ctx.id;
  e.span = span_;
  e.parent = saved_parent_;
  e.name = name_;
  e.t0_ns = t0_;
  e.t1_ns = trace_now_ns();
  e.a0_name = a0_name_;
  e.a0 = a0_;
  e.a1_name = a1_name_;
  e.a1 = a1_;
  write_event(e);
}

std::string trace_collect_json() {
  return render_events(snapshot_events(nullptr));
}

std::string trace_collect_json(const TraceId& id) {
  return render_events(snapshot_events(&id));
}

void trace_clear() {
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (TraceRing* ring : r.rings) {
      ring->floor.store(ring->head.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
    }
  }
  SlowSampler& s = sampler();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.retained.clear();
  s.completions = 0;
  s.rolling_us = 0;
}

std::size_t trace_event_count() { return snapshot_events(nullptr).size(); }

void trace_set_slow_threshold_us(double us) {
  std::uint64_t bits;
  if (us < 0) us = 0;
  __builtin_memcpy(&bits, &us, sizeof(bits));
  g_slow_threshold_bits.store(bits, std::memory_order_relaxed);
}

void trace_note_completion(const TraceId& id, double latency_us) {
  if (!detail::trace_armed()) return;
  SlowSampler& s = sampler();
  bool sample = false;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.completions;
    const double threshold = slow_threshold_us();
    if (threshold > 0) {
      sample = latency_us >= threshold;
    } else {
      // Auto mode: chase exceedances fast, decay slowly -- the estimate
      // floats a little above typical latency, so only genuine outliers
      // sample once warmed up.
      sample = s.completions > SlowSampler::kWarmup &&
               latency_us > s.rolling_us;
      if (latency_us > s.rolling_us) {
        s.rolling_us += (latency_us - s.rolling_us) * 0.25;
      } else {
        s.rolling_us *= 0.999;
      }
    }
  }
  if (!sample || !trace_id_set(id)) return;
  // Copy the tree out of the rings BEFORE it wraps away. This path is
  // rare (slow solves only) so the snapshot cost is acceptable.
  std::vector<Event> events = snapshot_events(&id);
  if (events.empty()) return;
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.retained.size() >= SlowSampler::kRetain) s.retained.pop_front();
  SlowTrace slow;
  slow.id = id;
  slow.latency_us = latency_us;
  slow.events = std::move(events);
  s.retained.push_back(std::move(slow));
}

std::string trace_slow_json() {
  SlowSampler& s = sampler();
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const SlowTrace& t : s.retained) {
      events.insert(events.end(), t.events.begin(), t.events.end());
    }
  }
  return render_events(events);
}

std::size_t trace_slow_count() {
  SlowSampler& s = sampler();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.retained.size();
}

PhaseScratch& phase_scratch() {
  thread_local PhaseScratch scratch;
  return scratch;
}

namespace detail {

bool trace_armed() {
  if (!trace_compiled()) return false;
  const int n = g_enabled.load(std::memory_order_relaxed);
  if (n > 0) return true;
  if (n == 0) return false;
  init_from_env();
  return g_enabled.load(std::memory_order_relaxed) > 0;
}

}  // namespace detail

}  // namespace msptrsv::support::trace
