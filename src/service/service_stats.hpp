// Live metrics of the solve service, recorded lock-free on the hot path.
//
// Every submit/dispatch/complete/shed event lands in plain atomic
// counters, latency rings (overall + one per priority class), a
// power-of-two coalesce-width histogram, a packed-dispatch histogram, and
// a small open-addressed per-plan table -- no mutex anywhere near a
// request, so a stats scrape (snapshot()) never stalls the data path and
// the data path never serializes on observability. snapshot() assembles a
// coherent-enough point-in-time view: counters are read individually
// (monotonic, so cross-counter skew is bounded by what arrived during the
// read) and the latency quantiles come from the most recent ring contents.
//
// LIMITATION -- the quantiles are ring-windowed, not lifetime-exact: each
// ring holds only the most recent `latency_ring` completions (per class),
// so p50/p99 describe a sliding window, old samples are overwritten
// silently, and a burst larger than the ring forgets its own head. The
// window is a constructor parameter (ServiceOptions::stats_latency_ring
// for the service); size it to at least a few seconds of peak completion
// rate if you scrape periodically. A real deployment that needs mergeable,
// full-history quantiles wants HDR-histogram-style state instead -- see
// docs/OPERATIONS.md ("Reading the stats") and the ROADMAP follow-up.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "service/latency_histogram.hpp"
#include "service/priority.hpp"
#include "support/trace.hpp"
#include "support/types.hpp"

namespace msptrsv::service {

/// Activity of one plan (keyed by SolverPlan::state_id()).
struct PlanActivity {
  const void* plan = nullptr;
  index_t rows = 0;
  /// Right-hand sides completed against this plan.
  std::uint64_t solves = 0;
};

/// Per-priority-class slice of the snapshot.
struct PriorityClassStats {
  /// Right-hand sides admitted / answered OK / shed past their deadline.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  /// Pending rhs of this class at snapshot time.
  std::uint64_t queue_depth = 0;
  /// Ring-windowed latency quantiles of this class (see file comment).
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// Full-history mergeable latency histogram of this class (HDR-style
  /// log-linear buckets; see latency_histogram.hpp) -- what the fleet
  /// aggregation path sums across shards.
  LatencyHistogramSnapshot latency_hist;
};

struct ServiceStatsSnapshot {
  /// Right-hand sides admitted past backpressure.
  std::uint64_t submitted = 0;
  /// Right-hand sides refused with kOverloaded.
  std::uint64_t rejected = 0;
  /// Right-hand sides answered successfully / with an error.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Right-hand sides shed with kDeadlineExceeded (counted in neither
  /// completed nor failed).
  std::uint64_t shed = 0;
  /// Fused dispatches executed (each is one solve_batch call; a packed
  /// dispatch counts once per PLAN sub-batch it carries).
  std::uint64_t batches = 0;
  /// Right-hand sides that shared their dispatch with at least one other
  /// (the coalescing win: these rode the fused path "for free").
  std::uint64_t coalesced_rhs = 0;
  /// Dispatch width histogram: buckets 1, 2, 3-4, 5-8, 9-16, 17-32,
  /// 33-64, 65+ right-hand sides per fused call.
  std::array<std::uint64_t, 8> coalesce_hist{};
  /// Mean rhs per dispatch (dispatched rhs over batches, both counted at
  /// dispatch time).
  double mean_coalesce_width = 0.0;
  /// Cross-plan packing: pool dispatches that carried more than one
  /// plan's sub-batch, and the total sub-batches they carried.
  std::uint64_t packed_dispatches = 0;
  std::uint64_t packed_plans = 0;
  /// Plans-per-dispatch histogram: buckets 1, 2, 3-4, 5-8, 9+.
  std::array<std::uint64_t, 5> packed_hist{};
  /// Pending right-hand sides at snapshot time / high-water mark.
  std::uint64_t queue_depth = 0;
  std::uint64_t peak_queue_depth = 0;
  /// Submit-to-completion latency over the most recent completions (ring-
  /// windowed, see file comment): the client-visible figure, the wait for
  /// a dispatch slot included.
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// Full-history latency histogram across all classes: unlike the ring
  /// quantiles above it never forgets a sample, and two snapshots (e.g.
  /// from two router shards) merge by bucket addition -- the server-side
  /// aggregation answer to the ring-window limitation.
  LatencyHistogramSnapshot latency_hist;
  /// Per-PHASE latency histograms, indexed in support::trace::kPhaseNames
  /// order (queue/coalesce/claim/pack/kernel/unpack/reply): where inside
  /// the pipeline the latency above actually went. Full-history and
  /// mergeable like latency_hist.
  std::array<LatencyHistogramSnapshot, support::trace::kNumPhases>
      phase_hist{};
  /// Per-class slices, indexed by static_cast<size_t>(Priority).
  std::array<PriorityClassStats, kNumPriorities> per_class{};
  /// Per-plan completion counts (plans beyond the table capacity are
  /// summed into `other_plan_solves`). Keyed by the plan's state address
  /// for the service's lifetime: if a counted plan is destroyed and the
  /// allocator reuses its address for a NEW plan, the new plan's solves
  /// continue the old slot -- acceptable for a live dashboard; don't use
  /// this as an audit log across plan churn.
  std::vector<PlanActivity> per_plan;
  std::uint64_t other_plan_solves = 0;
};

class ServiceStats {
 public:
  /// Default latency samples retained per quantile window (see the file
  /// comment for what the window means and when to size it up).
  static constexpr std::size_t kDefaultLatencyRing = 4096;
  /// Distinct plans tracked individually.
  static constexpr std::size_t kPlanSlots = 128;

  /// `latency_ring` is the per-ring sample capacity (overall ring plus
  /// one ring per priority class), clamped to >= 16.
  explicit ServiceStats(std::size_t latency_ring = kDefaultLatencyRing);

  void on_submit(Priority p, std::uint64_t num_rhs);
  void on_reject(std::uint64_t num_rhs);
  /// One fused dispatch of `width` total rhs merged from `requests`
  /// client requests (width counts into coalesced_rhs only when
  /// requests > 1 -- a lone multi-rhs batch coalesced with nothing).
  void on_dispatch(index_t width, std::size_t requests);
  /// One POOL dispatch carrying `plans` single-plan sub-batches (>= 1;
  /// > 1 is a cross-plan packed dispatch). Called once per pop, alongside
  /// one on_dispatch per sub-batch.
  void on_pool_dispatch(std::size_t plans);
  /// One completed REQUEST (num_rhs of its columns), with the end-to-end
  /// latency observed by that request's client.
  void on_complete(const void* plan, index_t rows, std::uint64_t num_rhs,
                   bool ok, Priority priority, double latency_us);
  /// One request shed with kDeadlineExceeded (not a completion).
  void on_shed(Priority priority, std::uint64_t num_rhs);
  /// Per-phase attribution of one completed request. The first six phases
  /// (queue..unpack) are known at completion time and recorded here;
  /// reply_us is ignored -- the reply phase ends on the SOCKET, after the
  /// service handed the result off, so the server thread that writes the
  /// reply reports it separately through on_reply_phase once the frame is
  /// flushed.
  void on_phases(const support::trace::PhaseBreakdown& phases);
  void on_reply_phase(double reply_us);
  /// Queue-depth gauge (pending rhs, total and per class); also tracks
  /// the high-water mark of the total.
  void on_queue_depth(std::uint64_t depth,
                      const std::array<std::uint64_t, kNumPriorities>&
                          depth_by_class);

  ServiceStatsSnapshot snapshot() const;
  std::size_t latency_ring_capacity() const { return ring_capacity_; }

 private:
  /// Lock-free sliding-window latency record: doubles stored as bit
  /// patterns so the slots are plain atomics. next only grows; the ring
  /// holds the last ring_capacity_ samples.
  struct Ring {
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> max_bits{0};
  };
  void record(Ring& ring, double latency_us);
  void quantiles(const Ring& ring, double& p50, double& p99,
                 double& max) const;

  const std::size_t ring_capacity_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> dispatched_rhs_{0};
  std::atomic<std::uint64_t> coalesced_rhs_{0};
  std::array<std::atomic<std::uint64_t>, 8> hist_{};
  std::atomic<std::uint64_t> packed_dispatches_{0};
  std::atomic<std::uint64_t> packed_plans_{0};
  std::array<std::atomic<std::uint64_t>, 5> packed_hist_{};
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> peak_queue_depth_{0};

  Ring overall_;
  /// Full-history mergeable histograms alongside the rings: the rings
  /// answer "recent" cheaply, the histograms answer "ever" mergeably.
  LatencyHistogram hist_overall_;
  std::array<LatencyHistogram, kNumPriorities> hist_class_{};
  /// Per-phase histograms (kPhaseNames order); lock-free like the rest.
  std::array<LatencyHistogram, support::trace::kNumPhases> hist_phase_{};
  /// Per-class counters and rings, indexed by static_cast<size_t>(Priority).
  struct ClassCounters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> queue_depth{0};
  };
  std::array<ClassCounters, kNumPriorities> class_{};
  std::array<Ring, kNumPriorities> class_ring_{};

  /// Open-addressed per-plan counters: slots claim their key with one CAS
  /// and count forever after (plans are few and long-lived in a service;
  /// overflow spills into other_).
  struct PlanSlot {
    std::atomic<const void*> id{nullptr};
    std::atomic<index_t> rows{0};
    std::atomic<std::uint64_t> solves{0};
  };
  std::array<PlanSlot, kPlanSlots> plans_{};
  std::atomic<std::uint64_t> other_{0};
};

}  // namespace msptrsv::service
