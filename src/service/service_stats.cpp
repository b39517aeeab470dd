#include "service/service_stats.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "support/stats.hpp"

namespace msptrsv::service {

namespace {

/// Bucket index for a dispatch width: 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64,
/// 65+ (power-of-two edges past the first two).
std::size_t width_bucket(index_t width) {
  if (width <= 1) return 0;
  if (width <= 2) return 1;
  if (width <= 4) return 2;
  if (width <= 8) return 3;
  if (width <= 16) return 4;
  if (width <= 32) return 5;
  if (width <= 64) return 6;
  return 7;
}

/// Bucket index for plans per pool dispatch: 1, 2, 3-4, 5-8, 9+.
std::size_t pack_bucket(std::size_t plans) {
  if (plans <= 1) return 0;
  if (plans <= 2) return 1;
  if (plans <= 4) return 2;
  if (plans <= 8) return 3;
  return 4;
}

}  // namespace

ServiceStats::ServiceStats(std::size_t latency_ring)
    : ring_capacity_(std::max<std::size_t>(16, latency_ring)) {
  const auto init = [&](Ring& r) {
    r.slots = std::make_unique<std::atomic<std::uint64_t>[]>(ring_capacity_);
    for (std::size_t i = 0; i < ring_capacity_; ++i) {
      r.slots[i].store(0, std::memory_order_relaxed);
    }
  };
  init(overall_);
  for (Ring& r : class_ring_) init(r);
}

void ServiceStats::on_submit(Priority p, std::uint64_t num_rhs) {
  submitted_.fetch_add(num_rhs, std::memory_order_relaxed);
  class_[static_cast<std::size_t>(p)].submitted.fetch_add(
      num_rhs, std::memory_order_relaxed);
}

void ServiceStats::on_reject(std::uint64_t num_rhs) {
  rejected_.fetch_add(num_rhs, std::memory_order_relaxed);
}

void ServiceStats::on_dispatch(index_t width, std::size_t requests) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  dispatched_rhs_.fetch_add(static_cast<std::uint64_t>(width),
                            std::memory_order_relaxed);
  hist_[width_bucket(width)].fetch_add(1, std::memory_order_relaxed);
  // Coalesced means MERGED: a lone client's multi-rhs batch is wide but
  // shared with no one.
  if (requests > 1) {
    coalesced_rhs_.fetch_add(static_cast<std::uint64_t>(width),
                             std::memory_order_relaxed);
  }
}

void ServiceStats::on_pool_dispatch(std::size_t plans) {
  packed_hist_[pack_bucket(plans)].fetch_add(1, std::memory_order_relaxed);
  if (plans > 1) {
    packed_dispatches_.fetch_add(1, std::memory_order_relaxed);
    packed_plans_.fetch_add(static_cast<std::uint64_t>(plans),
                            std::memory_order_relaxed);
  }
}

void ServiceStats::record(Ring& ring, double latency_us) {
  const std::uint64_t slot =
      ring.next.fetch_add(1, std::memory_order_relaxed) % ring_capacity_;
  const std::uint64_t mine = std::bit_cast<std::uint64_t>(latency_us);
  ring.slots[slot].store(mine, std::memory_order_relaxed);
  // CAS max; latencies are non-negative, so the bit patterns order like
  // the doubles do.
  std::uint64_t seen = ring.max_bits.load(std::memory_order_relaxed);
  while (std::bit_cast<double>(seen) < latency_us &&
         !ring.max_bits.compare_exchange_weak(seen, mine,
                                              std::memory_order_relaxed)) {
  }
}

void ServiceStats::quantiles(const Ring& ring, double& p50, double& p99,
                             double& max) const {
  const std::uint64_t total = ring.next.load(std::memory_order_relaxed);
  const std::size_t have = static_cast<std::size_t>(
      std::min<std::uint64_t>(total, ring_capacity_));
  std::vector<double> latencies;
  latencies.reserve(have);
  for (std::size_t i = 0; i < have; ++i) {
    latencies.push_back(
        std::bit_cast<double>(ring.slots[i].load(std::memory_order_relaxed)));
  }
  p50 = support::percentile(latencies, 0.50);
  p99 = support::percentile(latencies, 0.99);
  max = std::bit_cast<double>(ring.max_bits.load(std::memory_order_relaxed));
}

void ServiceStats::on_complete(const void* plan, index_t rows,
                               std::uint64_t num_rhs, bool ok,
                               Priority priority, double latency_us) {
  (ok ? completed_ : failed_).fetch_add(num_rhs, std::memory_order_relaxed);
  ClassCounters& cls = class_[static_cast<std::size_t>(priority)];
  if (ok) cls.completed.fetch_add(num_rhs, std::memory_order_relaxed);

  record(overall_, latency_us);
  record(class_ring_[static_cast<std::size_t>(priority)], latency_us);
  hist_overall_.record(latency_us);
  hist_class_[static_cast<std::size_t>(priority)].record(latency_us);

  // Per-plan table: linear probe from a pointer-derived home slot; claim
  // an empty slot with CAS; overflow spills into other_.
  const std::size_t home =
      (reinterpret_cast<std::uintptr_t>(plan) >> 4) % kPlanSlots;
  for (std::size_t i = 0; i < kPlanSlots; ++i) {
    PlanSlot& s = plans_[(home + i) % kPlanSlots];
    const void* id = s.id.load(std::memory_order_acquire);
    if (id == nullptr) {
      const void* expected = nullptr;
      if (s.id.compare_exchange_strong(expected, plan,
                                       std::memory_order_acq_rel)) {
        s.rows.store(rows, std::memory_order_relaxed);
        s.solves.fetch_add(num_rhs, std::memory_order_relaxed);
        return;
      }
      id = expected;  // somebody else claimed it; fall through to compare
    }
    if (id == plan) {
      s.solves.fetch_add(num_rhs, std::memory_order_relaxed);
      return;
    }
  }
  other_.fetch_add(num_rhs, std::memory_order_relaxed);
}

void ServiceStats::on_phases(const support::trace::PhaseBreakdown& phases) {
  hist_phase_[0].record(phases.queue_us);
  hist_phase_[1].record(phases.coalesce_us);
  hist_phase_[2].record(phases.claim_us);
  hist_phase_[3].record(phases.pack_us);
  hist_phase_[4].record(phases.kernel_us);
  hist_phase_[5].record(phases.unpack_us);
  // [6] (reply) is recorded by on_reply_phase from the server thread that
  // writes the reply.
}

void ServiceStats::on_reply_phase(double reply_us) {
  hist_phase_[support::trace::kNumPhases - 1].record(reply_us);
}

void ServiceStats::on_shed(Priority priority, std::uint64_t num_rhs) {
  shed_.fetch_add(num_rhs, std::memory_order_relaxed);
  class_[static_cast<std::size_t>(priority)].shed.fetch_add(
      num_rhs, std::memory_order_relaxed);
}

void ServiceStats::on_queue_depth(
    std::uint64_t depth,
    const std::array<std::uint64_t, kNumPriorities>& depth_by_class) {
  queue_depth_.store(depth, std::memory_order_relaxed);
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    class_[c].queue_depth.store(depth_by_class[c],
                                std::memory_order_relaxed);
  }
  std::uint64_t peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak && !peak_queue_depth_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

ServiceStatsSnapshot ServiceStats::snapshot() const {
  ServiceStatsSnapshot out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.coalesced_rhs = coalesced_rhs_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < hist_.size(); ++i) {
    out.coalesce_hist[i] = hist_[i].load(std::memory_order_relaxed);
  }
  out.packed_dispatches =
      packed_dispatches_.load(std::memory_order_relaxed);
  out.packed_plans = packed_plans_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < packed_hist_.size(); ++i) {
    out.packed_hist[i] = packed_hist_[i].load(std::memory_order_relaxed);
  }
  out.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  out.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);

  quantiles(overall_, out.p50_latency_us, out.p99_latency_us,
            out.max_latency_us);
  out.latency_hist = hist_overall_.snapshot();
  for (std::size_t p = 0; p < hist_phase_.size(); ++p) {
    out.phase_hist[p] = hist_phase_[p].snapshot();
  }
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    PriorityClassStats& pc = out.per_class[c];
    pc.submitted = class_[c].submitted.load(std::memory_order_relaxed);
    pc.completed = class_[c].completed.load(std::memory_order_relaxed);
    pc.shed = class_[c].shed.load(std::memory_order_relaxed);
    pc.queue_depth = class_[c].queue_depth.load(std::memory_order_relaxed);
    quantiles(class_ring_[c], pc.p50_latency_us, pc.p99_latency_us,
              pc.max_latency_us);
    pc.latency_hist = hist_class_[c].snapshot();
  }

  // Both counters tick at dispatch time, so the ratio is coherent even
  // while dispatches are still executing.
  out.mean_coalesce_width =
      out.batches == 0
          ? 0.0
          : static_cast<double>(
                dispatched_rhs_.load(std::memory_order_relaxed)) /
                static_cast<double>(out.batches);

  for (const PlanSlot& s : plans_) {
    const void* id = s.id.load(std::memory_order_acquire);
    if (id == nullptr) continue;
    PlanActivity a;
    a.plan = id;
    a.rows = s.rows.load(std::memory_order_relaxed);
    a.solves = s.solves.load(std::memory_order_relaxed);
    out.per_plan.push_back(a);
  }
  std::sort(out.per_plan.begin(), out.per_plan.end(),
            [](const PlanActivity& a, const PlanActivity& b) {
              return a.solves > b.solves;
            });
  out.other_plan_solves = other_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace msptrsv::service
