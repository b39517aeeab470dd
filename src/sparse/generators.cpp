#include "sparse/generators.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "sparse/triangular.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace msptrsv::sparse {

using support::Xoshiro256;

namespace {

/// Assigns well-conditioned values to a fixed structure: diagonal in
/// [1, 2], off-diagonals scaled so each row is diagonally dominant.
CscMatrix finalize_structure(CooMatrix coo, std::uint64_t value_seed) {
  CscMatrix m = csc_from_coo(std::move(coo));
  // Row counts for dominance scaling.
  std::vector<index_t> row_nnz(static_cast<std::size_t>(m.rows), 0);
  for (index_t r : m.row_idx) row_nnz[static_cast<std::size_t>(r)]++;
  Xoshiro256 rng(value_seed ^ 0xD1B54A32D192ED03ULL);
  for (index_t j = 0; j < m.cols; ++j) {
    for (offset_t k = m.col_ptr[j]; k < m.col_ptr[j + 1]; ++k) {
      const index_t i = m.row_idx[k];
      if (i == j) {
        m.val[k] = rng.uniform_real(1.0, 2.0);
      } else {
        const double scale =
            1.0 / std::max<index_t>(1, row_nnz[static_cast<std::size_t>(i)]);
        m.val[k] = rng.uniform_real(-scale, scale);
        if (m.val[k] == 0.0) m.val[k] = 0.5 * scale;
      }
    }
  }
  require_solvable_lower(m);
  return m;
}

}  // namespace

CscMatrix gen_diagonal(index_t n) {
  MSPTRSV_REQUIRE(n > 0, "matrix size must be positive");
  CooMatrix coo;
  coo.rows = coo.cols = n;
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 0.0);
  return finalize_structure(std::move(coo), 11);
}

CscMatrix gen_chain(index_t n) {
  MSPTRSV_REQUIRE(n > 0, "matrix size must be positive");
  CooMatrix coo;
  coo.rows = coo.cols = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 0.0);
    if (i > 0) coo.add(i, i - 1, 0.0);
  }
  return finalize_structure(std::move(coo), 13);
}

CscMatrix gen_banded(index_t n, index_t bandwidth, double fill,
                     std::uint64_t seed) {
  MSPTRSV_REQUIRE(n > 0, "matrix size must be positive");
  MSPTRSV_REQUIRE(bandwidth >= 0, "bandwidth must be non-negative");
  MSPTRSV_REQUIRE(fill >= 0.0 && fill <= 1.0, "fill must be in [0,1]");
  Xoshiro256 rng(seed);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 0.0);
    const index_t lo = std::max<index_t>(0, i - bandwidth);
    for (index_t j = lo; j < i; ++j) {
      if (rng.bernoulli(fill)) coo.add(i, j, 0.0);
    }
  }
  return finalize_structure(std::move(coo), seed);
}

CscMatrix gen_random_lower(index_t n, double avg_row_degree,
                           std::uint64_t seed) {
  MSPTRSV_REQUIRE(n > 0, "matrix size must be positive");
  MSPTRSV_REQUIRE(avg_row_degree >= 0.0, "degree must be non-negative");
  Xoshiro256 rng(seed);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  // picked_by[j] == i marks column j as already drawn for row i.
  std::vector<index_t> picked_by(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 0.0);
    if (i == 0) continue;
    // Poisson-like count via rounding a uniform around the mean keeps the
    // generator branch-light and deterministic.
    const double want = avg_row_degree * rng.uniform_real(0.5, 1.5);
    const index_t degree =
        std::min<index_t>(i, static_cast<index_t>(std::llround(want)));
    for (index_t picked = 0; picked < degree;) {
      const auto j =
          static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(i)));
      if (picked_by[static_cast<std::size_t>(j)] == i) continue;
      picked_by[static_cast<std::size_t>(j)] = i;
      coo.add(i, j, 0.0);
      ++picked;
    }
  }
  return finalize_structure(std::move(coo), seed);
}

CscMatrix gen_layered_dag(index_t n, index_t num_levels, offset_t target_nnz,
                          double locality, std::uint64_t seed) {
  MSPTRSV_REQUIRE(n > 0, "matrix size must be positive");
  MSPTRSV_REQUIRE(num_levels >= 1 && num_levels <= n,
                  "need 1 <= num_levels <= n");
  MSPTRSV_REQUIRE(locality >= 0.0 && locality <= 1.0,
                  "locality must be in [0,1]");
  Xoshiro256 rng(seed);

  // Level boundaries: level l covers [bounds[l], bounds[l+1]); even split.
  std::vector<index_t> bounds(static_cast<std::size_t>(num_levels) + 1);
  for (index_t l = 0; l <= num_levels; ++l) {
    bounds[static_cast<std::size_t>(l)] = static_cast<index_t>(
        (static_cast<std::int64_t>(n) * l) / num_levels);
  }

  // Mandatory structure: diagonal plus one predecessor in the previous
  // level for every component outside level 0.
  const offset_t mandatory =
      static_cast<offset_t>(n) + (n - bounds[1]);
  const offset_t extra_budget = std::max<offset_t>(0, target_nnz - mandatory);
  // Extras are distributed over components of levels >= 1.
  const index_t eligible = n - bounds[1];
  const double extra_per_comp =
      eligible > 0 ? static_cast<double>(extra_budget) /
                         static_cast<double>(eligible)
                   : 0.0;

  CooMatrix coo;
  coo.rows = coo.cols = n;

  auto pick_predecessor = [&](index_t lo, index_t hi, double rel) -> index_t {
    // Chooses from [lo, hi); with probability `locality`, clustered around
    // the position in the range that mirrors the consumer's relative
    // position `rel` in its own level (banded / mesh-like structure).
    MSPTRSV_REQUIRE(lo < hi, "empty predecessor range");
    const index_t span = hi - lo;
    if (locality > 0.0 && rng.bernoulli(locality)) {
      const index_t center =
          lo + static_cast<index_t>(rel * static_cast<double>(span - 1));
      const std::uint64_t jump = rng.geometric(
          std::min(0.9, 16.0 / static_cast<double>(std::max<index_t>(1, span))));
      const index_t offset = static_cast<index_t>(std::min<std::uint64_t>(
          jump, static_cast<std::uint64_t>(span - 1)));
      index_t cand = rng.bernoulli(0.5) ? center - offset : center + offset;
      if (cand < lo) cand = lo + (lo - cand) % span;
      if (cand >= hi) cand = hi - 1 - (cand - hi) % span;
      return cand;
    }
    return lo + static_cast<index_t>(
                    rng.next_below(static_cast<std::uint64_t>(span)));
  };

  // (consumer, producer). Their order is free: the relabeling below pops
  // by (priority, id), and the COO is sorted when it is finalized.
  std::vector<std::pair<index_t, index_t>> edges;
  // picked_by[j] == i marks producer j as already taken by consumer i.
  std::vector<index_t> picked_by(static_cast<std::size_t>(n), -1);
  for (index_t l = 0; l < num_levels; ++l) {
    const index_t lv_begin = bounds[static_cast<std::size_t>(l)];
    const index_t lv_end = bounds[static_cast<std::size_t>(l) + 1];
    for (index_t i = lv_begin; i < lv_end; ++i) {
      if (l == 0) continue;
      const double rel =
          lv_end - lv_begin > 1
              ? static_cast<double>(i - lv_begin) /
                    static_cast<double>(lv_end - lv_begin - 1)
              : 0.5;
      index_t picked = 0;
      auto pick = [&](index_t j) {
        if (picked_by[static_cast<std::size_t>(j)] == i) return;
        picked_by[static_cast<std::size_t>(j)] = i;
        edges.emplace_back(i, j);
        ++picked;
      };
      // Mandatory predecessor from level l-1 pins the level of i.
      const index_t prev_begin = bounds[static_cast<std::size_t>(l) - 1];
      pick(pick_predecessor(prev_begin, lv_begin, rel));
      // Extra predecessors from strictly earlier LEVELS (an extra inside
      // level l would push i past its target level). Local draws come from
      // a window of recent levels (short dependency spans, banded/mesh
      // structure); non-local draws from anywhere earlier.
      const index_t avg_width = std::max<index_t>(1, n / num_levels);
      const index_t recent_lo =
          std::max<index_t>(0, lv_begin - 4 * avg_width);
      const double want = extra_per_comp * rng.uniform_real(0.5, 1.5);
      index_t extras = static_cast<index_t>(std::llround(want));
      extras = std::min<index_t>(extras, lv_begin - 1);
      int attempts = 0;
      while (picked < extras + 1 && attempts < 4 * (extras + 1)) {
        if (rng.bernoulli(locality) && recent_lo < lv_begin) {
          pick(pick_predecessor(recent_lo, lv_begin, rel));
        } else {
          pick(pick_predecessor(0, lv_begin, rel));
        }
        ++attempts;
      }
    }
  }

  // Relabel through a jittered topological order. Real factor matrices do
  // not store level sets contiguously -- components of different levels
  // interleave in the id space (a property both the block distribution and
  // the task model rely on). A Kahn sweep keyed by (original id + bounded
  // jitter) interleaves nearby levels while keeping the locality structure
  // at scales above a few level widths. Any linear extension of the DAG
  // preserves lower-triangularity and the exact level structure.
  std::vector<index_t> new_id(static_cast<std::size_t>(n));
  {
    std::vector<index_t> indeg(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<index_t>> out(static_cast<std::size_t>(n));
    for (const auto& [consumer, producer] : edges) {
      indeg[static_cast<std::size_t>(consumer)]++;
      out[static_cast<std::size_t>(producer)].push_back(consumer);
    }
    const double jitter_span =
        3.0 * static_cast<double>(n) / static_cast<double>(num_levels);
    std::vector<double> priority(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      priority[static_cast<std::size_t>(i)] =
          static_cast<double>(i) + rng.uniform_real(0.0, jitter_span);
    }
    using Entry = std::pair<double, index_t>;  // (priority, node)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (index_t i = 0; i < n; ++i) {
      if (indeg[static_cast<std::size_t>(i)] == 0) {
        heap.emplace(priority[static_cast<std::size_t>(i)], i);
      }
    }
    index_t next = 0;
    while (!heap.empty()) {
      const index_t u = heap.top().second;
      heap.pop();
      new_id[static_cast<std::size_t>(u)] = next++;
      for (index_t v : out[static_cast<std::size_t>(u)]) {
        if (--indeg[static_cast<std::size_t>(v)] == 0) {
          heap.emplace(priority[static_cast<std::size_t>(v)], v);
        }
      }
    }
    MSPTRSV_ENSURE(next == n, "layered DAG relabeling found a cycle");
  }

  for (index_t i = 0; i < n; ++i) {
    coo.add(new_id[static_cast<std::size_t>(i)],
            new_id[static_cast<std::size_t>(i)], 0.0);
  }
  for (const auto& [consumer, producer] : edges) {
    coo.add(new_id[static_cast<std::size_t>(consumer)],
            new_id[static_cast<std::size_t>(producer)], 0.0);
  }
  return finalize_structure(std::move(coo), seed);
}

CscMatrix gen_chain_heavy(index_t num_segments, index_t chain_len,
                          index_t fan_width, index_t extra_edges,
                          std::uint64_t seed) {
  MSPTRSV_REQUIRE(num_segments > 0 && chain_len > 0 && fan_width > 0,
                  "segment shape must be positive");
  MSPTRSV_REQUIRE(extra_edges >= 0, "extra_edges must be non-negative");
  Xoshiro256 rng(seed);
  const index_t seg = chain_len + fan_width;
  const index_t n = num_segments * seg;
  CooMatrix coo;
  coo.rows = coo.cols = n;
  for (index_t s = 0; s < num_segments; ++s) {
    const index_t base = s * seg;
    // The chain: each row depends on its predecessor; the first chain row
    // of segment s > 0 roots in the previous segment's first fan row, so
    // the critical path threads every segment.
    for (index_t c = 0; c < chain_len; ++c) {
      const index_t i = base + c;
      coo.add(i, i, 0.0);
      if (c > 0) {
        coo.add(i, i - 1, 0.0);
      } else if (s > 0) {
        coo.add(i, base - fan_width, 0.0);
      }
    }
    // The fan: fan_width mutually independent rows hanging off the chain
    // tail (one wide level), plus random extra dependencies on the chain
    // for gather weight.
    const index_t tail = base + chain_len - 1;
    for (index_t f = 0; f < fan_width; ++f) {
      const index_t i = base + chain_len + f;
      coo.add(i, i, 0.0);
      coo.add(i, tail, 0.0);
    }
    for (index_t e = 0; e < extra_edges; ++e) {
      const index_t i =
          base + chain_len +
          static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(fan_width)));
      const index_t j = base + static_cast<index_t>(rng.next_below(
                                   static_cast<std::uint64_t>(chain_len)));
      coo.add(i, j, 0.0);
    }
  }
  return finalize_structure(std::move(coo), seed);
}

CscMatrix gen_grid2d_lower(index_t nx, index_t ny) {
  MSPTRSV_REQUIRE(nx > 0 && ny > 0, "grid dimensions must be positive");
  CooMatrix coo;
  const index_t n = nx * ny;
  coo.rows = coo.cols = n;
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      const index_t i = y * nx + x;
      coo.add(i, i, 0.0);
      if (x > 0) coo.add(i, i - 1, 0.0);    // west
      if (y > 0) coo.add(i, i - nx, 0.0);   // south
    }
  }
  return finalize_structure(std::move(coo), 2020);
}

CscMatrix gen_grid3d_lower(index_t nx, index_t ny, index_t nz) {
  MSPTRSV_REQUIRE(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
  CooMatrix coo;
  const index_t n = nx * ny * nz;
  coo.rows = coo.cols = n;
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t i = (z * ny + y) * nx + x;
        coo.add(i, i, 0.0);
        if (x > 0) coo.add(i, i - 1, 0.0);
        if (y > 0) coo.add(i, i - nx, 0.0);
        if (z > 0) coo.add(i, i - nx * ny, 0.0);
      }
    }
  }
  return finalize_structure(std::move(coo), 3030);
}

CscMatrix gen_rmat_lower(index_t n_log2, offset_t target_edges,
                         std::uint64_t seed) {
  MSPTRSV_REQUIRE(n_log2 >= 1 && n_log2 < 31, "n_log2 must be in [1, 30]");
  MSPTRSV_REQUIRE(target_edges >= 0, "edge count must be non-negative");
  const index_t n = static_cast<index_t>(1) << n_log2;
  Xoshiro256 rng(seed);
  // Classic R-MAT quadrant probabilities (Graph500 defaults).
  const double a = 0.57, b = 0.19, c = 0.19;
  CooMatrix coo;
  coo.rows = coo.cols = n;
  std::unordered_set<std::uint64_t> seen;
  offset_t accepted = 0;
  offset_t attempts = 0;
  const offset_t max_attempts = target_edges * 8 + 64;
  while (accepted < target_edges && attempts < max_attempts) {
    ++attempts;
    index_t u = 0, v = 0;
    for (index_t bit = 0; bit < n_log2; ++bit) {
      const double r = rng.uniform01();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left quadrant: no bits set
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u == v) continue;
    const index_t row = std::max(u, v);
    const index_t col = std::min(u, v);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint32_t>(col);
    if (!seen.insert(key).second) continue;
    coo.add(row, col, 0.0);
    ++accepted;
  }
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 0.0);
  return finalize_structure(std::move(coo), seed);
}

std::vector<value_t> gen_solution(index_t n, std::uint64_t seed) {
  MSPTRSV_REQUIRE(n >= 0, "size must be non-negative");
  Xoshiro256 rng(seed ^ 0xA5A5A5A5DEADBEEFULL);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) {
    v = rng.uniform_real(-1.0, 1.0);
    if (std::abs(v) < 1e-3) v = 0.5;  // keep entries comfortably nonzero
  }
  return x;
}

std::vector<value_t> gen_rhs_for_solution(const CscMatrix& lower,
                                          const std::vector<value_t>& x_ref) {
  return multiply(lower, x_ref);
}

}  // namespace msptrsv::sparse
