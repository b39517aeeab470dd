#include "sim/interconnect.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace msptrsv::sim {

Interconnect::Interconnect(const Topology& topo, const CostModel& cost)
    : topo_(topo), cost_(cost) {
  stats_.assign(static_cast<std::size_t>(topo_.num_links()), {});
}

sim_time_t Interconnect::transfer(int src, int dst, double bytes,
                                  sim_time_t now) {
  MSPTRSV_REQUIRE(bytes >= 0.0, "message size must be non-negative");
  if (src == dst) return now;  // local: no network involvement
  const std::vector<int>& route = topo_.route(src, dst);
  // Latency + serialization model. Per-link occupancy is tracked
  // statistically (bytes, busy time) rather than as a hard timeline: the
  // engine emits bookings in component-readiness order, not global time
  // order, so a shared timeline would let causally later messages delay
  // earlier ones. At this workload's message sizes (4 B gets to 4 KiB page
  // migrations) serialization never saturates an NVLink, so the
  // approximation costs little; link *stats* still expose hot links.
  const double bottleneck = topo_.route_bandwidth_gbs(src, dst);
  const sim_time_t serialize = bytes / bytes_per_us(bottleneck);
  const sim_time_t wire =
      cost_.hop_latency_us * static_cast<double>(route.size());
  for (int id : route) {
    LinkStats& s = stats_[static_cast<std::size_t>(id)];
    s.bytes += bytes;
    s.messages += 1;
    s.busy_us += serialize;
  }
  return now + serialize + wire;
}

sim_time_t Interconnect::uncontended_latency(int src, int dst,
                                             double bytes) const {
  if (src == dst) return 0.0;
  const std::vector<int>& route = topo_.route(src, dst);
  const double bw = topo_.route_bandwidth_gbs(src, dst);
  return bytes / bytes_per_us(bw) +
         cost_.hop_latency_us * static_cast<double>(route.size());
}

const LinkStats& Interconnect::link_stats(int link_id) const {
  MSPTRSV_REQUIRE(link_id >= 0 && link_id < topo_.num_links(),
                  "link id out of range");
  return stats_[static_cast<std::size_t>(link_id)];
}

double Interconnect::total_bytes() const {
  double b = 0.0;
  for (const LinkStats& s : stats_) b += s.bytes;
  return b;
}

std::uint64_t Interconnect::total_messages() const {
  std::uint64_t m = 0;
  for (const LinkStats& s : stats_) m += s.messages;
  return m;
}

void Interconnect::reset() {
  std::fill(stats_.begin(), stats_.end(), LinkStats{});
}

}  // namespace msptrsv::sim
