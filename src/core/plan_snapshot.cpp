#include "core/plan_snapshot.hpp"

#include "core/registry.hpp"
#include "support/contracts.hpp"

namespace msptrsv::core {

namespace {

/// The v2+ rhs-layout byte. Its values were auto (0), column-major (1)
/// and interleaved (2); every host kernel now reads column-major, so the
/// writer stores kLayoutColumnMajor and the reader only range-checks.
constexpr std::uint8_t kLayoutColumnMajor = 1;
constexpr std::uint8_t kLayoutMax = 2;

/// Section presence flags (bitmask so the format stays self-describing as
/// backends grow state).
enum SectionFlags : std::uint32_t {
  kHasInDegrees = 1u << 0,
  kHasLevels = 1u << 1,
  /// v1 and fat v2 streams: a natural-order CSR copy of the factor. No
  /// writer emits it any more; the reader skips it.
  kHasRowForm = 1u << 2,
  /// v3+: the analyze-time tuned decision (autotuner choice + features +
  /// coarsening thresholds). Never set by v1/v2 streams.
  kHasTuned = 1u << 3,
};

void write_tuned(support::BlobWriter& w, const TunedDecision& d) {
  w.write_u8(d.autotuned ? 1 : 0);
  // The chosen backend travels as its registry key, like the identity
  // section's backend: enumerator reordering must never flip a decision.
  w.write_string(registry::entry_of(d.backend).key);
  w.write_u8(d.schedule);
  w.write_i32(d.gang_width);
  w.write_i32(static_cast<std::int32_t>(d.coarsen.narrow_width));
  w.write_i32(static_cast<std::int32_t>(d.coarsen.block_rows));
  w.write_f64(d.features.nnz_per_row);
  w.write_i32(static_cast<std::int32_t>(d.features.num_levels));
  w.write_i32(static_cast<std::int32_t>(d.features.max_level_width));
  w.write_f64(d.features.avg_level_width);
  w.write_f64(d.features.narrow_level_fraction);
  w.write_i32(static_cast<std::int32_t>(d.features.longest_narrow_run));
  w.write_f64(d.features.avg_narrow_run);
}

std::string read_tuned(support::BlobReader& r, TunedDecision& d) {
  d.autotuned = r.read_u8() != 0;
  const std::string backend_key = r.read_string();
  d.schedule = r.read_u8();
  d.gang_width = r.read_i32();
  d.coarsen.narrow_width = static_cast<index_t>(r.read_i32());
  d.coarsen.block_rows = static_cast<index_t>(r.read_i32());
  d.features.nnz_per_row = r.read_f64();
  d.features.num_levels = static_cast<index_t>(r.read_i32());
  d.features.max_level_width = static_cast<index_t>(r.read_i32());
  d.features.avg_level_width = r.read_f64();
  d.features.narrow_level_fraction = r.read_f64();
  d.features.longest_narrow_run = static_cast<index_t>(r.read_i32());
  d.features.avg_narrow_run = r.read_f64();
  if (!r.ok()) return r.error();
  const Expected<Backend> backend = registry::parse_backend(backend_key);
  if (!backend.ok()) {
    return "tuned section names unknown backend '" + backend_key + "'";
  }
  d.backend = backend.value();
  if (d.schedule > 1) {
    return "tuned section carries unknown schedule value " +
           std::to_string(d.schedule);
  }
  if (d.coarsen.narrow_width < 0 || d.coarsen.block_rows < 0 ||
      d.gang_width < 0) {
    return "tuned section carries negative thresholds";
  }
  return {};
}

}  // namespace

std::vector<std::uint8_t> serialize_snapshot(const PlanSnapshot& snap,
                                             const sparse::CscMatrix& factor,
                                             SnapshotWriteOptions options) {
  MSPTRSV_REQUIRE(options.format_version >= 1 &&
                      options.format_version <= kPlanBlobVersion,
                  "unsupported plan blob format version");
  support::BlobWriter w(options.format_version);

  // Identity section. The backend travels as its canonical registry key,
  // not the enum value, so enumerator reordering can never misload a blob.
  w.write_string(registry::entry_of(snap.backend).key);
  w.write_i32(snap.tasks_per_gpu);
  w.write_i32(snap.num_gpus);
  w.write_u8(snap.upper ? 1 : 0);
  if (options.format_version >= 2) {
    // v2: the rhs-layout byte, immediately after the identity byte it
    // extends. v1 streams carry none.
    w.write_u8(kLayoutColumnMajor);
  }
  w.write_f64(snap.analysis_us);

  const sparse::StructuralHash hash = sparse::hash_csc(factor);
  w.write_u64(hash.pattern);
  w.write_u64(hash.values);

  sparse::write_csc(w, factor);

  // The row form is never stored: it duplicates every factor value, and
  // its execution order is a function of the stored levels, so the load
  // path rebuilds it. The tuned decision is a v3 section: older-format
  // writes drop it (a v1/v2 reader would choke on an unknown flag bit).
  const bool store_tuned =
      snap.tuned.has_value() && options.format_version >= 3;
  std::uint32_t flags = 0;
  if (!snap.in_degrees.empty()) flags |= kHasInDegrees;
  if (snap.levels.has_value()) flags |= kHasLevels;
  if (store_tuned) flags |= kHasTuned;
  w.write_u32(flags);
  if (flags & kHasInDegrees) {
    w.write_span(std::span<const index_t>(snap.in_degrees));
  }
  if (flags & kHasLevels) sparse::write_levels(w, *snap.levels);
  if (flags & kHasTuned) write_tuned(w, *snap.tuned);

  return std::move(w).finish();
}

std::string deserialize_snapshot(std::span<const std::uint8_t> bytes,
                                 SnapshotBlob& out, SnapshotRead mode) {
  // Version acceptance: the header pins the stored version at bytes 4-5
  // (little-endian, after the 4-byte magic). BlobReader hard-rejects any
  // version other than the one it is told to expect -- the right contract
  // for a cache format -- so to accept BOTH the current format and the
  // still-loadable v1, peek the stored version first and construct the
  // reader against it when it is one we understand; unknown versions fall
  // through to the reader's canonical mismatch diagnostic.
  std::uint16_t stored = kPlanBlobVersion;
  if (bytes.size() >= 6) {
    stored = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(bytes[4]) |
        (static_cast<std::uint16_t>(bytes[5]) << 8));
  }
  const bool known = stored >= 1 && stored <= kPlanBlobVersion;
  support::BlobReader r(bytes, known ? stored : kPlanBlobVersion);
  if (!r.ok()) return r.error();

  const std::string backend_key = r.read_string();
  out.snapshot.tasks_per_gpu = r.read_i32();
  out.snapshot.num_gpus = r.read_i32();
  out.snapshot.upper = r.read_u8() != 0;
  if (r.version() >= 2) {
    // Outside input: an out-of-range byte is corruption. Any valid value
    // loads; the plan solves column-major either way, to the same bits.
    const std::uint8_t layout = r.read_u8();
    if (layout > kLayoutMax) {
      return "snapshot carries unknown rhs-layout value " +
             std::to_string(layout);
    }
  }
  out.snapshot.analysis_us = r.read_f64();
  out.factor_hash.pattern = r.read_u64();
  out.factor_hash.values = r.read_u64();
  if (mode == SnapshotRead::kSkipFactor) {
    out.factor = sparse::skip_csc(r, out.factor_nnz);
  } else {
    out.factor = sparse::read_csc(r);
    out.factor_nnz = out.factor.nnz();
  }
  if (!r.ok()) return r.error();

  const Expected<Backend> backend = registry::parse_backend(backend_key);
  if (!backend.ok()) {
    return "snapshot names unknown backend '" + backend_key + "'";
  }
  out.snapshot.backend = backend.value();

  const std::uint32_t flags = r.read_u32();
  if (r.version() < 3 && (flags & kHasTuned)) {
    return "pre-v3 snapshot carries a tuned-decision section";
  }
  if (flags & kHasInDegrees) {
    out.snapshot.in_degrees = r.read_vector<index_t>();
  }
  if (flags & kHasLevels) out.snapshot.levels = sparse::read_levels(r);
  // An old blob's row form is in natural row order, not the execution
  // order the kernels walk: parse it (the stream must stay well-formed)
  // and drop it; the load path rebuilds the form.
  if (flags & kHasRowForm) (void)sparse::read_csr(r);
  if (flags & kHasTuned) {
    TunedDecision d;
    const std::string err = read_tuned(r, d);
    if (!err.empty()) return err;
    out.snapshot.tuned = d;
  }
  if (!r.ok()) return r.error();
  if (!r.at_end()) return "trailing bytes after the last snapshot section";

  // Cross-section consistency: per-component arrays must cover the factor.
  const auto n = static_cast<std::size_t>(out.factor.rows);
  if (!out.snapshot.in_degrees.empty() &&
      out.snapshot.in_degrees.size() != n) {
    return "in-degree section does not match the factor dimension";
  }
  if (out.snapshot.levels.has_value() &&
      static_cast<std::size_t>(out.snapshot.levels->n) != n) {
    return "level-analysis section does not match the factor dimension";
  }
  if (out.snapshot.tuned.has_value() &&
      out.snapshot.tuned->backend != out.snapshot.backend) {
    return "tuned section disagrees with the snapshot backend";
  }
  return {};
}

}  // namespace msptrsv::core
