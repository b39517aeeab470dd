// Bit-pattern hashes of a solve's x and simulated report, for the golden
// tests that pin every bit a simulated backend answers with.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "sparse/generators.hpp"

namespace msptrsv::golden {

/// FNV-1a over raw bytes: doubles hash by bit pattern (-0.0 != 0.0).
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
  template <typename T>
  void add(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    add(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// One value over x and every numeric RunReport field.
inline std::uint64_t solve_hash(const core::SolveResult& s) {
  const sim::RunReport& r = s.report;
  Fnv1a h;
  h.add(s.x);
  h.add(r.num_gpus);
  h.add(r.num_rhs);
  h.add(r.solve_us);
  h.add(r.analysis_us);
  h.add(r.max_solve_us);
  h.add(r.busy_us_per_gpu);
  h.add(r.local_updates);
  h.add(r.remote_updates);
  h.add(r.page_faults);
  h.add(r.page_migrations);
  h.add(r.page_migrated_bytes);
  h.add(r.page_faults_per_gpu);
  h.add(r.page_pins);
  h.add(r.direct_remote_accesses);
  h.add(r.nvshmem_gets);
  h.add(r.nvshmem_puts);
  h.add(r.nvshmem_fences);
  h.add(r.gather_reductions);
  h.add(r.nvshmem_bytes);
  h.add(r.link_bytes);
  h.add(r.link_messages);
  h.add(r.kernel_launches);
  return h.value();
}

inline std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// `count` right-hand sides of length n, column-major: gen_solution at
/// seeds 10, 11, ... -- the golden tests' batch.
inline std::vector<value_t> golden_batch(index_t n, index_t count) {
  std::vector<value_t> batch;
  for (index_t j = 0; j < count; ++j) {
    const std::vector<value_t> col =
        sparse::gen_solution(n, 10 + static_cast<std::uint64_t>(j));
    batch.insert(batch.end(), col.begin(), col.end());
  }
  return batch;
}

}  // namespace msptrsv::golden
