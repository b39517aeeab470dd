#include "sim/report.hpp"

#include <algorithm>
#include <sstream>

#include "support/stats.hpp"

namespace msptrsv::sim {

double RunReport::load_imbalance() const {
  return support::imbalance_factor(busy_us_per_gpu);
}

double RunReport::utilization() const {
  if (solve_us <= 0.0 || busy_us_per_gpu.empty()) return 0.0;
  return support::mean(busy_us_per_gpu) / solve_us;
}

std::string RunReport::summary() const {
  std::ostringstream os;
  os << solver_name << " on " << machine_name << " (" << num_gpus
     << " GPUs)\n";
  os << "  solve: " << solve_us << " us, analysis: " << analysis_us
     << " us";
  if (num_rhs > 1) {
    os << " (" << num_rhs << " rhs, slowest " << max_solve_us << " us)";
  }
  os << "\n";
  os << "  updates: " << local_updates << " local / " << remote_updates
     << " remote\n";
  if (page_faults > 0) {
    os << "  unified memory: " << page_faults << " faults, "
       << page_migrated_bytes / (1024.0 * 1024.0) << " MiB migrated\n";
  }
  if (nvshmem_gets + nvshmem_puts > 0) {
    os << "  nvshmem: " << nvshmem_gets << " gets, " << nvshmem_puts
       << " puts, " << gather_reductions << " gather-reductions, "
       << nvshmem_bytes / (1024.0 * 1024.0) << " MiB\n";
  }
  os << "  interconnect: " << link_bytes / (1024.0 * 1024.0) << " MiB in "
     << link_messages << " messages\n";
  os << "  kernels: " << kernel_launches
     << ", utilization: " << utilization()
     << ", imbalance: " << load_imbalance() << "\n";
  return os.str();
}

}  // namespace msptrsv::sim
