#include "core/mg_engine.hpp"

#include <algorithm>
#include <queue>

#include "sparse/level_analysis.hpp"
#include "sparse/triangular.hpp"
#include "support/contracts.hpp"

namespace msptrsv::core {

namespace {

// The engine mirrors the execution semantics of the sync-free kernels:
// every GPU dispatches its components to warp slots IN ORDER (task launch
// order, ascending component id within a task) and a component OCCUPIES its
// slot for its entire lifetime -- lock-wait spin included -- until it
// retires. This dispatch-order admission is what makes the baseline block
// distribution suffer unidirectional waiting (a large-id GPU's resident
// warps all spin on small-id components owned by other GPUs), and what the
// round-robin task pool fixes.
//
// Progress/deadlock note (mirrors the real algorithm's argument): within a
// GPU, dispatch order is ascending in component id, so the globally
// smallest unsolved component is always already admitted, and its
// dependencies are solved; hence it can always retire. Cross-GPU waits
// cannot cycle for the same reason.

struct Event {
  sim_time_t t = 0.0;
  enum class Kind : int { kSlotFree = 0, kReady = 1 } kind = Kind::kSlotFree;
  index_t id = 0;  ///< gpu for kSlotFree, component for kReady

  bool operator>(const Event& o) const {
    if (t != o.t) return t > o.t;
    if (kind != o.kind) return static_cast<int>(kind) > static_cast<int>(o.kind);
    return id > o.id;
  }
};

}  // namespace

sim_time_t engine_analysis_us(const sparse::CscMatrix& lower,
                              const sparse::Partition& partition,
                              const sim::CostModel& cost) {
  std::vector<double> nnz_per_gpu(
      static_cast<std::size_t>(partition.num_gpus()), 0.0);
  for (index_t j = 0; j < lower.rows; ++j) {
    nnz_per_gpu[static_cast<std::size_t>(partition.owner_of(j))] +=
        static_cast<double>(lower.col_ptr[j + 1] - lower.col_ptr[j]);
  }
  double worst = 0.0;
  for (double w : nnz_per_gpu) {
    worst = std::max(worst, w * cost.indegree_per_nnz_us);
  }
  return worst;
}

EngineResult run_mg_engine(const sparse::CscMatrix& lower,
                           const sparse::Partition& partition,
                           const sim::Machine& machine, sim::Interconnect& net,
                           CommPolicy& comm, const EngineOptions& opts) {
  if (opts.in_degrees == nullptr) sparse::require_solvable_lower(lower);
  MSPTRSV_REQUIRE(opts.cost_rhs >= 1, "cost width must be >= 1");
  MSPTRSV_REQUIRE(partition.n() == lower.rows,
                  "partition built for a different matrix size");
  MSPTRSV_REQUIRE(partition.num_gpus() <= machine.num_gpus(),
                  "partition uses more GPUs than the machine has");
  MSPTRSV_REQUIRE(partition.num_gpus() <= 32,
                  "contributor tracking supports at most 32 GPUs");

  const index_t n = lower.rows;
  const int num_gpus = partition.num_gpus();
  const sim::CostModel& cost = machine.cost;

  EngineResult out;
  sim::RunReport& rep = out.report;
  rep.machine_name = machine.name;
  rep.num_gpus = num_gpus;
  rep.busy_us_per_gpu.assign(static_cast<std::size_t>(num_gpus), 0.0);

  // ---- analysis phase (in-degree count, local per GPU, no inter-GPU
  // traffic in the NVSHMEM design; the unified design has the same
  // streaming cost shape). A plan-provided in-degree vector replaces the
  // recomputation; the countdown copy is per-solve state either way. -------
  MSPTRSV_REQUIRE(opts.in_degrees == nullptr ||
                      opts.in_degrees->size() == static_cast<std::size_t>(n),
                  "precomputed in-degrees sized for a different matrix");
  std::vector<index_t> remaining = opts.in_degrees
                                       ? *opts.in_degrees
                                       : sparse::compute_in_degrees(lower);
  if (opts.include_analysis) {
    rep.analysis_us = engine_analysis_us(lower, partition, cost);
  }

  // ---- dispatch lists and kernel launches ---------------------------------
  // Each task is one kernel; launches serialize on the owning GPU's stream.
  // The dispatch list of a GPU enumerates its components in task launch
  // order (ranges ascend with seq_on_gpu, so the list ascends in id).
  std::vector<sim_time_t> launch_floor(static_cast<std::size_t>(n), 0.0);
  std::vector<std::vector<index_t>> dispatch(
      static_cast<std::size_t>(num_gpus));
  {
    std::vector<const sparse::TaskRange*> ordered;
    for (const sparse::TaskRange& task : partition.tasks()) {
      ordered.push_back(&task);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const sparse::TaskRange* a, const sparse::TaskRange* b) {
                if (a->gpu != b->gpu) return a->gpu < b->gpu;
                return a->seq_on_gpu < b->seq_on_gpu;
              });
    for (const sparse::TaskRange* task : ordered) {
      const sim_time_t launch =
          static_cast<double>(task->seq_on_gpu + 1) * cost.kernel_launch_us;
      for (index_t i = task->begin; i < task->end; ++i) {
        launch_floor[static_cast<std::size_t>(i)] = launch;
        dispatch[static_cast<std::size_t>(task->gpu)].push_back(i);
      }
      rep.kernel_launches += 1;
    }
  }

  // ---- event-driven solve --------------------------------------------------
  out.order.reserve(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> contributors(static_cast<std::size_t>(n), 0);
  /// Latest dependency-visibility time per component.
  std::vector<sim_time_t> ready_floor(static_cast<std::size_t>(n), 0.0);
  /// Slot-admission time; NaN-free sentinel -1 = not yet admitted.
  std::vector<sim_time_t> admit_time(static_cast<std::size_t>(n), -1.0);

  std::vector<std::size_t> cursor(static_cast<std::size_t>(num_gpus), 0);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;

  sim_time_t makespan = 0.0;
  index_t solved = 0;
  std::vector<int> remote_gpus;  // scratch, decoded from the bitmask

  // Solves component i; both its slot admission and its dependencies are
  // satisfied at `t`. Returns the slot-release time.
  auto solve_component = [&](index_t i, sim_time_t t) {
    const int gpu = partition.owner_of(i);

    remote_gpus.clear();
    const std::uint32_t mask = contributors[static_cast<std::size_t>(i)];
    for (int g = 0; g < num_gpus; ++g) {
      if (mask & (1u << g)) remote_gpus.push_back(g);
    }
    const sim_time_t gathered = comm.gather_before_solve(gpu, i, remote_gpus, t);

    const offset_t d = lower.col_ptr[i];
    const double fanout = static_cast<double>(lower.col_ptr[i + 1] - d - 1);
    // Fused batch: the warp activation + gather are per component, only
    // the floating-point work scales with the cost width.
    const sim_time_t solve_done =
        gathered + cost.solve_base_us +
        cost.solve_per_nnz_us * fanout * static_cast<double>(opts.cost_rhs);
    out.order.push_back(i);

    // Push updates to dependents. One warp issues them in sequence, so a
    // stalling update (fenced RMW chain) delays the rest -- `cursor_t`
    // threads the producer-side time through the fan-out. One update per
    // edge per batch: a fused update carries the whole RHS sweep.
    sim_time_t cursor_t = solve_done;
    for (offset_t e = d + 1; e < lower.col_ptr[i + 1]; ++e) {
      const index_t dep = lower.row_idx[e];
      const int dst = partition.owner_of(dep);
      const bool is_final = remaining[static_cast<std::size_t>(dep)] == 1;
      const UpdateTiming timing =
          comm.push_update(gpu, dst, dep, cursor_t, is_final);
      cursor_t = timing.producer_done;
      if (dst == gpu) {
        rep.local_updates += 1;
      } else {
        rep.remote_updates += 1;
        contributors[static_cast<std::size_t>(dep)] |=
            (1u << static_cast<unsigned>(gpu));
      }
      sim_time_t& floor = ready_floor[static_cast<std::size_t>(dep)];
      floor = std::max(floor, timing.visible);
      if (--remaining[static_cast<std::size_t>(dep)] == 0 &&
          admit_time[static_cast<std::size_t>(dep)] >= 0.0) {
        // The dependent is parked in a slot spinning; it proceeds once the
        // final update is visible (it is already admitted).
        events.push({std::max(floor, admit_time[static_cast<std::size_t>(dep)]),
                     Event::Kind::kReady, dep});
      }
    }

    const sim_time_t finish = cursor_t;  // the warp retires after its updates
    rep.busy_us_per_gpu[static_cast<std::size_t>(gpu)] += finish - t;
    makespan = std::max(makespan, finish);
    ++solved;
    return finish;
  };

  // Admission: a freed slot on `gpu` takes the next component in dispatch
  // order. If that component's dependencies are already satisfied it solves
  // right away; otherwise it parks (admitted, spinning) until its final
  // dependency's kReady fires.
  auto admit_next = [&](int gpu, sim_time_t t) {
    std::size_t& cur = cursor[static_cast<std::size_t>(gpu)];
    const std::vector<index_t>& list = dispatch[static_cast<std::size_t>(gpu)];
    if (cur >= list.size()) return;  // GPU fully dispatched; slot retires
    const index_t c = list[cur++];
    const sim_time_t admitted =
        std::max(t, launch_floor[static_cast<std::size_t>(c)]);
    admit_time[static_cast<std::size_t>(c)] = admitted;
    if (remaining[static_cast<std::size_t>(c)] == 0) {
      const sim_time_t start =
          std::max(admitted, ready_floor[static_cast<std::size_t>(c)]);
      const sim_time_t finish = solve_component(c, start);
      events.push({finish, Event::Kind::kSlotFree, static_cast<index_t>(gpu)});
    }
    // else: parked; its kReady event will retire it and free the slot.
  };

  for (int g = 0; g < num_gpus; ++g) {
    const std::size_t initial =
        std::min<std::size_t>(static_cast<std::size_t>(cost.warp_slots_per_gpu),
                              dispatch[static_cast<std::size_t>(g)].size());
    for (std::size_t s = 0; s < initial; ++s) {
      events.push({0.0, Event::Kind::kSlotFree, static_cast<index_t>(g)});
    }
  }

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    if (ev.kind == Event::Kind::kSlotFree) {
      admit_next(static_cast<int>(ev.id), ev.t);
    } else {
      const sim_time_t finish = solve_component(ev.id, ev.t);
      events.push({finish, Event::Kind::kSlotFree,
                   static_cast<index_t>(partition.owner_of(ev.id))});
    }
  }
  MSPTRSV_ENSURE(solved == n,
                 "engine deadlock: solved " + std::to_string(solved) + " of " +
                     std::to_string(n) + " components");

  rep.solve_us = makespan;
  comm.fill_report(rep);
  rep.link_bytes = net.total_bytes();
  rep.link_messages = net.total_messages();
  return out;
}

}  // namespace msptrsv::core
