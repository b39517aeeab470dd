#include "sparse/serialize.hpp"

#include <cstring>
#include <string>

namespace msptrsv::sparse {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a folded 8 input bytes per step: the hash runs on every
/// PlanCache lookup over the whole matrix, so the classic byte-at-a-time
/// loop would cost milliseconds on service-sized factors. Word-wise
/// folding keeps the determinism-across-processes property (the only one
/// the content address needs) at ~8x the throughput.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (bytes >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    h ^= chunk;
    h *= kFnvPrime;
    p += 8;
    bytes -= 8;
  }
  while (bytes-- > 0) {
    h ^= *p++;
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_span(std::uint64_t h, const std::vector<T>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(T));
}

/// Structural safety of a freshly read matrix: shape consistency plus the
/// bounds every consumer indexes through (monotone pointer array covering
/// exactly the stored nonzeros, row indices in range). read_csc fails the
/// reader (rather than throwing) on violation so corrupt records surface
/// as blob errors -- the CRC catches accidental damage, these checks make
/// even a resealed hostile blob memory-safe to solve with. Within-segment
/// sortedness is deliberately NOT re-checked (it cannot cause
/// out-of-bounds access, only wrong answers, and costs a full extra
/// branchy pass).
bool csc_ok(const CscMatrix& m) {
  const std::vector<offset_t>& ptr = m.col_ptr;
  // An all-default (0x0) matrix legitimately has an EMPTY pointer array
  // (never materialized), so accept both spellings of emptiness.
  const bool ptr_len_ok = ptr.size() == static_cast<std::size_t>(m.cols) + 1 ||
                          (m.cols == 0 && ptr.empty());
  if (m.rows < 0 || m.cols < 0 || !ptr_len_ok ||
      m.row_idx.size() != m.val.size() ||
      (!ptr.empty() && (ptr.front() != 0 || ptr.back() != m.nnz()))) {
    return false;
  }
  // Branchless accumulation so the two sweeps vectorize (the unsigned
  // cast folds the negative check into the upper bound).
  bool bad = false;
  for (std::size_t j = 1; j < ptr.size(); ++j) bad |= ptr[j - 1] > ptr[j];
  const auto bound = static_cast<std::uint32_t>(m.rows);
  for (const index_t i : m.row_idx) {
    bad |= static_cast<std::uint32_t>(i) >= bound;
  }
  return !bad;
}

}  // namespace

StructuralHash hash_csc(const CscMatrix& m) {
  std::uint64_t h = kFnvOffset;
  const std::int64_t dims[2] = {m.rows, m.cols};
  h = fnv1a(h, dims, sizeof(dims));
  h = fnv1a_span(h, m.col_ptr);
  h = fnv1a_span(h, m.row_idx);
  StructuralHash out;
  out.pattern = h;
  out.values = fnv1a_span(h, m.val);
  return out;
}

void write_csc(support::BlobWriter& w, const CscMatrix& m) {
  w.write_i32(m.rows);
  w.write_i32(m.cols);
  w.write_span(std::span<const offset_t>(m.col_ptr));
  w.write_span(std::span<const index_t>(m.row_idx));
  w.write_span(std::span<const value_t>(m.val));
}

CscMatrix read_csc(support::BlobReader& r) {
  CscMatrix m;
  m.rows = r.read_i32();
  m.cols = r.read_i32();
  m.col_ptr = r.read_vector<offset_t>();
  m.row_idx = r.read_vector<index_t>();
  m.val = r.read_vector<value_t>();
  if (!r.ok()) return {};
  if (!csc_ok(m)) {
    r.fail("CSC record has inconsistent structure");
    return {};
  }
  return m;
}

CscMatrix skip_csc(support::BlobReader& r) {
  CscMatrix m;
  m.rows = r.read_i32();
  m.cols = r.read_i32();
  const std::uint64_t ptr_count = r.skip_vector<offset_t>();
  const std::uint64_t idx_count = r.skip_vector<index_t>();
  const std::uint64_t val_count = r.skip_vector<value_t>();
  if (!r.ok()) return {};
  const bool ptr_ok =
      ptr_count == static_cast<std::uint64_t>(m.cols) + 1 ||
      (m.cols == 0 && ptr_count == 0);
  if (m.rows < 0 || m.cols < 0 || !ptr_ok || idx_count != val_count) {
    r.fail("CSC record has inconsistent structure");
    return {};
  }
  CscMatrix dims_only;
  dims_only.rows = m.rows;
  dims_only.cols = m.cols;
  return dims_only;
}

void write_levels(support::BlobWriter& w, const LevelAnalysis& a) {
  w.write_i32(a.n);
  w.write_i64(a.nnz);
  w.write_i32(a.num_levels);
  w.write_i32(a.max_level_width);
  w.write_span(std::span<const index_t>(a.level_of));
  w.write_span(std::span<const offset_t>(a.level_ptr));
  w.write_span(std::span<const index_t>(a.order));
  w.write_span(std::span<const index_t>(a.in_degree));
}

LevelAnalysis read_levels(support::BlobReader& r) {
  LevelAnalysis a;
  a.n = r.read_i32();
  a.nnz = r.read_i64();
  a.num_levels = r.read_i32();
  a.max_level_width = r.read_i32();
  a.level_of = r.read_vector<index_t>();
  a.level_ptr = r.read_vector<offset_t>();
  a.order = r.read_vector<index_t>();
  a.in_degree = r.read_vector<index_t>();
  if (!r.ok()) return {};
  const auto sz = [](const auto& v) { return v.size(); };
  bool ok = a.n >= 0 && a.num_levels >= 0 &&
            sz(a.level_of) == static_cast<std::size_t>(a.n) &&
            sz(a.order) == static_cast<std::size_t>(a.n) &&
            sz(a.level_ptr) == static_cast<std::size_t>(a.num_levels) + 1 &&
            sz(a.in_degree) == static_cast<std::size_t>(a.n);
  // The level schedule indexes `order` through level_ptr and `x` through
  // order: both must stay in bounds even for a resealed hostile blob.
  ok = ok && a.level_ptr.front() == 0 &&
       a.level_ptr.back() == static_cast<offset_t>(a.n);
  if (ok) {
    bool bad = false;
    for (std::size_t l = 1; l < a.level_ptr.size(); ++l) {
      bad |= a.level_ptr[l - 1] > a.level_ptr[l];
    }
    const auto bound = static_cast<std::uint32_t>(a.n);
    for (std::size_t i = 0; i < a.order.size(); ++i) {
      bad |= static_cast<std::uint32_t>(a.order[i]) >= bound;
    }
    ok = !bad;
  }
  if (!ok) {
    r.fail("level-analysis record has inconsistent structure");
    return {};
  }
  return a;
}

}  // namespace msptrsv::sparse
