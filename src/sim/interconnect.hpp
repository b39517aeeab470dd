// Time-accounting layer over a Topology.
//
// A message costs its route's latency (hop count x hop latency) plus its
// serialization at the route's bottleneck bandwidth. Messages never queue
// behind each other: per-link occupancy is booked as statistics (bytes,
// messages, busy time), not as a timeline, so link stats expose hot links
// while the delivery time depends only on the route and the message size.
// The route is what makes the model sensitive to topology: DGX-1 GPUs
// without a direct NVLink pay a multi-hop path at its slowest link's
// bandwidth, DGX-2 messages cross the NVSwitch through the two GPUs' own
// ports.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "support/types.hpp"

namespace msptrsv::sim {

struct LinkStats {
  double bytes = 0.0;
  std::uint64_t messages = 0;
  sim_time_t busy_us = 0.0;
};

class Interconnect {
 public:
  Interconnect(const Topology& topo, const CostModel& cost);

  /// Books a message of `bytes` from src to dst entering the network at
  /// `now`; returns its delivery time, `now` plus the route's latency and
  /// serialization. Every link on the route books the message's bytes and
  /// serialization time in its statistics; no booking delays a later
  /// message.
  sim_time_t transfer(int src, int dst, double bytes, sim_time_t now);

  /// Contention-free estimate of the same message (no booking). Used for
  /// poll-loop visibility where charging every iteration would be
  /// unphysically pessimistic (polls coalesce in hardware).
  sim_time_t uncontended_latency(int src, int dst, double bytes) const;

  const Topology& topology() const { return topo_; }
  const LinkStats& link_stats(int link_id) const;
  const std::vector<LinkStats>& all_link_stats() const { return stats_; }

  double total_bytes() const;
  std::uint64_t total_messages() const;

  /// Resets the statistics (a fresh run on the same machine).
  void reset();

 private:
  const Topology& topo_;
  const CostModel& cost_;
  std::vector<LinkStats> stats_;
};

}  // namespace msptrsv::sim
