// Reusable per-plan solve state for the real host backends.
//
// The PR 1 kernels spawned threads AND allocated + zeroed O(n) arrays of
// atomics (left-sum accumulators, sync-free pending countdowns) on every
// solve -- exactly the per-solve overhead the analyze/solve split was
// supposed to hoist. A SolveWorkspace owns the persistent execution state
// for the lifetime of a plan:
//
//  * an execution context of up to `parties` threads per solve. In OWNED
//    mode that is a WorkerPool of parked threads materialized lazily on
//    the FIRST run -- a plan that is analyzed (or cached) but never solved
//    holds zero threads. In SHARED mode the workspace owns no threads at
//    all: each run claims a gang of idle workers from the process-wide
//    core::SharedWorkerPool and shrinks gracefully when the machine is
//    busy (the pull-based kernels are bit-identical at any party count),
//    which is what caps total host threads when many plans coexist;
//
//  * the reusable per-level barrier (resized to the actual gang width at
//    the start of each run);
//
//  * MONOTONIC delivery counters tagged by a per-workspace generation,
//    replacing the sync-free pending countdowns. Every solve (or fused
//    batch) delivers exactly in_degree(i) updates to component i -- one
//    per incoming edge, regardless of the batch width -- so in solve
//    generation g the component is ready when delivered[i] reaches
//    g * in_degree(i). The counters are never reset or re-copied; the
//    target moves instead.
//
// There are no left-sum accumulators anymore: the fused kernels gather a
// component's partial sums by READING the already-final x entries of its
// dependencies through the plan's cached row-form structure (the host
// analogue of the paper's read-only NVSHMEM gather, Algorithm 3), so no
// O(n) value scratch exists to zero in the first place.
//
// Concurrency: a workspace is single-tenant. WorkspacePool hands out
// exclusive leases (growing on demand), which is what makes concurrent
// plan.solve()/solve_batch() calls from many threads safe on the host
// backends -- each caller gets its own workspace, and the pool mutex gives
// the lease handoff a happens-before edge.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/worker_pool.hpp"
#include "support/types.hpp"

namespace msptrsv::core {

/// Thread-local cap on the gang width of shared-pool solves started from
/// the current thread while the guard lives (1 = solve alone). The solve
/// service's cross-plan packed dispatch runs several small tenants' solves
/// as sibling tasks of ONE claimed gang: each sibling pins its nested
/// solve to width 1 so the siblings do not fight each other (or the next
/// packed dispatch) for the very workers their own gang already holds.
/// Bits are unaffected -- the pull-based kernels are bit-identical at any
/// party count, width 1 included. Guards nest; the innermost (smallest)
/// cap wins. No effect on owned-pool (non-shared) workspaces, whose party
/// count is fixed at analysis.
class ScopedGangCap {
 public:
  explicit ScopedGangCap(int max_parties)
      : previous_(cap_) {
    cap_ = max_parties < 1 ? 1 : (max_parties < cap_ ? max_parties : cap_);
  }
  ~ScopedGangCap() { cap_ = previous_; }
  ScopedGangCap(const ScopedGangCap&) = delete;
  ScopedGangCap& operator=(const ScopedGangCap&) = delete;

  /// The width cap active on this thread (INT_MAX-ish sentinel when none).
  static int current() { return cap_; }

 private:
  static thread_local int cap_;
  int previous_;
};

class SolveWorkspace {
 public:
  /// Up to `parties` real threads cooperate on every solve run on this
  /// workspace (>= 1; the calling thread counts as one of them). With a
  /// non-null `shared`, runs execute as gangs claimed from that pool and
  /// the workspace never owns a thread; otherwise an owned WorkerPool of
  /// parties-1 threads is created lazily on the first run. `options`
  /// configures the owned pool's worker placement (kNone = pre-NUMA
  /// behavior, byte for byte).
  explicit SolveWorkspace(int parties, SharedWorkerPool* shared = nullptr,
                          PoolOptions options = {});

  SolveWorkspace(const SolveWorkspace&) = delete;
  SolveWorkspace& operator=(const SolveWorkspace&) = delete;

  /// The party-count CAP for runs on this workspace. Shared-mode runs
  /// may use fewer.
  int threads() const { return parties_; }

  /// True when this workspace gangs on the shared pool (observability).
  bool uses_shared_pool() const { return shared_ != nullptr; }
  /// True once an owned WorkerPool has materialized (always false in
  /// shared mode -- the lazy-pool guarantee the tests pin down). Safe to
  /// poll from other threads while the single tenant runs.
  bool owns_threads() const {
    return has_owned_pool_.load(std::memory_order_acquire);
  }

  /// Runs fn(tid, parties) on `parties` cooperating threads (caller is
  /// tid 0) and returns the party count used: exactly threads() in owned
  /// mode, 1..threads() in shared mode depending on how many shared
  /// workers were idle at claim time, on the pool's equal-share
  /// reservation cap, and on any ScopedGangCap active on the calling
  /// thread. level_barrier() is resized to the returned width before any
  /// party starts.
  template <typename F>
  int run_parallel(F&& fn) {
    if (shared_ != nullptr) {
      const int cap = ScopedGangCap::current();
      const int ask = (cap < parties_ ? cap : parties_) - 1;
      if (ask <= 0) {
        // Capped to a solo run: no claim, no barrier traffic at all.
        barrier_.reset(1);
        fn(0, 1);
        return 1;
      }
      return shared_->run_gang(
          ask, [this](int parties) { barrier_.reset(parties); },
          static_cast<F&&>(fn));
    }
    if (pool_ == nullptr) {
      pool_ = std::make_unique<WorkerPool>(parties_, options_);
      has_owned_pool_.store(true, std::memory_order_release);
    }
    barrier_.reset(parties_);
    pool_->run([&fn, this](int tid) { fn(tid, parties_); });
    return parties_;
  }

  /// Reusable per-level barrier, sized by run_parallel for each run.
  SpinBarrier& level_barrier() { return barrier_; }

  /// Monotonic per-component delivery counters (sync-free backend).
  /// Zero-initialized once on first use, never reset afterwards.
  std::atomic<std::uint64_t>* delivered(index_t n);

  /// Starts a new sync-free solve generation and returns it (>= 1). The
  /// ready target of component i this generation is
  /// generation * in_degree(i).
  std::uint64_t begin_generation() { return ++generation_; }

  /// Rewinds the delivery protocol after an ABORTED sync-free solve: a
  /// cancelled generation leaves the counters partially advanced, so the
  /// next generation's targets would never be reached. Zeroes every
  /// materialized counter and restarts the generation count. Must only be
  /// called by the lease holder with no solve running (single-tenant, like
  /// every other workspace mutation).
  void reset_delivery() {
    for (std::size_t i = 0; i < delivered_capacity_; ++i) {
      delivered_[i].store(0, std::memory_order_relaxed);
    }
    generation_ = 0;
  }

 private:
  int parties_;
  SharedWorkerPool* shared_;
  PoolOptions options_;
  /// Owned-mode gang, created on first run (lazy: idle plans hold zero
  /// threads). Null forever in shared mode.
  std::unique_ptr<WorkerPool> pool_;
  std::atomic<bool> has_owned_pool_{false};
  SpinBarrier barrier_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> delivered_;
  std::size_t delivered_capacity_ = 0;
  std::uint64_t generation_ = 0;
};

/// Lease-based pool of SolveWorkspaces, owned by a SolverPlan. A solve
/// checks a workspace out for its duration; concurrent solves get disjoint
/// workspaces (the pool grows on demand and retains every workspace until
/// the plan dies, so steady-state solving allocates nothing).
class WorkspacePool {
 public:
  /// `shared` (may be null) is handed to every workspace this pool
  /// creates: non-null routes all of the plan's kernel parallelism
  /// through the process-wide shared pool. `options` likewise (owned
  /// worker placement, see PoolOptions).
  explicit WorkspacePool(int parties_per_workspace,
                         SharedWorkerPool* shared = nullptr,
                         PoolOptions options = {});

  class Lease {
   public:
    Lease(WorkspacePool* pool, SolveWorkspace* ws) : pool_(pool), ws_(ws) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(ws_);
    }
    Lease(Lease&& o) noexcept : pool_(o.pool_), ws_(o.ws_) {
      o.pool_ = nullptr;
      o.ws_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    SolveWorkspace& ws() { return *ws_; }

   private:
    WorkspacePool* pool_;
    SolveWorkspace* ws_;
  };

  Lease acquire();
  /// Workspaces ever created (grows only under concurrent solves).
  std::size_t size() const;
  /// Owned worker threads currently alive across all workspaces: 0 until
  /// the first solve, and 0 forever in shared mode (the lazy-threads
  /// guarantee of the solve service).
  std::size_t owned_threads() const;
  bool uses_shared_pool() const { return shared_ != nullptr; }

 private:
  friend class Lease;
  void release(SolveWorkspace* ws);

  mutable std::mutex mutex_;
  int parties_;
  SharedWorkerPool* shared_;
  PoolOptions options_;
  std::vector<std::unique_ptr<SolveWorkspace>> all_;
  std::vector<SolveWorkspace*> idle_;
};

}  // namespace msptrsv::core
