// Scheduling vocabulary of the solve service, shared by the request queue
// (which schedules on it), the stats (which aggregate per class), and the
// submit API (which stamps it on requests). Deliberately dependency-free:
// everything observability-side can name a Priority without pulling in the
// plan machinery.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "support/trace.hpp"

namespace msptrsv::service {

/// Scheduling class of a request. Order matters: smaller enum value =
/// more urgent; kNumPriorities sizes every per-class stats array. Classes
/// differ only in selection weight when a dispatch slot frees (16/4/1,
/// see request_queue.hpp) -- no class ever waits for company -- plus
/// kHigh's urgent submit to the worker pool.
enum class Priority : std::uint8_t {
  /// Latency-sensitive: wins selection at comparable wait and jumps the
  /// pool's task queue.
  kHigh = 0,
  /// The default.
  kNormal = 1,
  /// Throughput traffic: yields to the classes above while they are
  /// fresh, and wins once it has waited the weight ratio longer.
  kBackground = 2,
};
inline constexpr std::size_t kNumPriorities = 3;

constexpr std::string_view to_string(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kBackground: return "background";
  }
  return "unknown-priority";
}

/// Per-request scheduling knobs of submit/submit_batch.
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Relative SLO: the request should START executing within this much of
  /// submit time. 0 = no deadline. The deadline only sheds: it does not
  /// reorder the queue, and a request that starts late is answered with
  /// kDeadlineExceeded rather than solved for a client that has already
  /// given up.
  std::chrono::microseconds deadline{0};
  /// Request-scoped trace identity (all-zero = untraced) and the span the
  /// submitting side opened for this request: the dispatcher installs
  /// both as the executing thread's trace context so the server-side span
  /// tree (queue wait, gang claim, kernel levels) stitches under the
  /// caller's. See support/trace.hpp.
  support::trace::TraceId trace_id{};
  std::uint64_t parent_span = 0;
};

}  // namespace msptrsv::service
