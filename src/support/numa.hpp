// Minimal NUMA awareness for the host worker pools -- no libnuma.
//
// The host kernels are bandwidth-bound (the roofline study in bench_micro
// measures them against the machine's STREAM ceiling), and on a multi-socket
// box the achievable ceiling depends on WHERE the gang's threads run and
// where their pages landed: a worker chasing row-form values homed on the
// far socket pays the interconnect on every miss. Everything here is
// best-effort and degrades to a no-op -- single-node machines, containers
// with a masked /sys, or unsupported platforms behave exactly as before.
//
// Three primitives, composed by core::WorkerPool / core::SharedWorkerPool
// behind PoolOptions::numa_policy:
//
//  * topology discovery: /sys/devices/system/node parsed once per process
//    (one node with every CPU when the tree is absent);
//  * worker pinning: pthread affinity for worker index -> CPU under a
//    placement policy (compact fills a node before spilling to the next;
//    spread round-robins nodes so each socket's memory controllers see an
//    equal share of the gang);
//  * page placement: an mbind(MPOL_INTERLEAVE) hint for large shared
//    read-only arrays (row-form factor values) issued via raw syscall,
//    ignored wholesale on single-node machines.
#pragma once

#include <cstddef>
#include <vector>

namespace msptrsv::support {

/// Placement policy for pool worker threads. kNone (the default
/// everywhere) pins nothing and hints nothing: single-node machines and
/// policy-free deployments run byte-for-byte the pre-NUMA code path.
enum class NumaPolicy : unsigned char {
  kNone = 0,
  /// Fill node 0's CPUs in order, then node 1, ... -- keeps a small gang
  /// on one socket (minimum cross-socket barrier latency).
  kCompact = 1,
  /// Round-robin workers across nodes -- spreads a wide gang so every
  /// socket's memory controllers carry an equal share (maximum aggregate
  /// bandwidth for the pull-based gather).
  kSpread = 2,
};

struct NumaTopology {
  /// One entry per online node: the CPU ids belonging to it, ascending.
  std::vector<std::vector<int>> node_cpus;
  int num_nodes() const { return static_cast<int>(node_cpus.size()); }
};

/// The machine's node/CPU map, parsed from /sys once per process. Always
/// at least one node with at least one CPU (synthesized from
/// hardware_concurrency when /sys is unreadable).
const NumaTopology& numa_topology();

/// The CPU a pool worker of the given index should pin to under `policy`,
/// or -1 for "do not pin" (kNone, or more workers than CPUs -- an
/// oversubscribed pool must stay schedulable everywhere).
int numa_cpu_for_worker(NumaPolicy policy, int worker_index);

/// Pins the CALLING thread to one CPU. Returns false (thread untouched)
/// when cpu < 0 or the affinity call is refused (cpuset-restricted
/// container); callers treat pinning as a hint, never a requirement.
bool pin_current_thread(int cpu);

/// Best-effort MPOL_INTERLEAVE hint over [p, p+bytes): asks the kernel to
/// move/allocate the range's pages round-robin across all nodes, so a
/// shared read-only array (row-form values) is not homed entirely on the
/// analyzing thread's node. Raw mbind syscall with MPOL_MF_MOVE; a no-op
/// (returns false) on single-node machines, non-Linux builds, or when the
/// kernel refuses. Never required for correctness.
bool interleave_pages(void* p, std::size_t bytes);

}  // namespace msptrsv::support
