#include "core/plan_snapshot.hpp"

#include "core/registry.hpp"
#include "support/contracts.hpp"

namespace msptrsv::core {

namespace {

/// Section presence flags (bitmask so the format stays self-describing as
/// backends grow state).
enum SectionFlags : std::uint32_t {
  kHasInDegrees = 1u << 0,
  kHasLevels = 1u << 1,
  kHasLevelPtr = 1u << 2,
  kHasTuned = 1u << 3,
};
/// The sections each kind of blob may carry.
constexpr std::uint32_t kHostSections = kHasLevelPtr | kHasTuned;
constexpr std::uint32_t kSimulatedSections = kHasInDegrees | kHasLevels;

/// The tuned section: autotuned byte, backend key, gang width.
void write_tuned(support::BlobWriter& w, const TunedDecision& d) {
  w.write_u8(d.autotuned ? 1 : 0);
  // The chosen backend travels as its registry key, like the identity
  // section's backend: enumerator reordering must never flip a decision.
  w.write_string(registry::entry_of(d.backend).key);
  w.write_i32(d.gang_width);
}

std::string read_tuned(support::BlobReader& r, TunedDecision& d) {
  d.autotuned = r.read_u8() != 0;
  const std::string backend_key = r.read_string();
  d.gang_width = r.read_i32();
  if (!r.ok()) return r.error();
  const Expected<Backend> backend = registry::parse_backend(backend_key);
  if (!backend.ok()) {
    return "tuned section names unknown backend '" + backend_key + "'";
  }
  d.backend = backend.value();
  if (d.gang_width < 0) return "tuned section carries a negative gang width";
  return {};
}

void write_row_form(support::BlobWriter& w, const RowForm& rf) {
  w.write_span(std::span<const offset_t>(rf.row_ptr));
  w.write_span(std::span<const index_t>(rf.col_idx));
  w.write_span(std::span<const value_t>(rf.val));
  w.write_span(std::span<const index_t>(rf.row_of));
}

/// Reads a write_row_form record, its values left empty under
/// kSkipValues. Checks only the array lengths: is_row_schedule proves the
/// contents before any kernel runs them.
RowForm read_row_form(support::BlobReader& r, SnapshotRead mode) {
  RowForm rf;
  rf.row_ptr = r.read_vector<offset_t>();
  rf.col_idx = r.read_vector<index_t>();
  std::uint64_t values = 0;
  if (mode == SnapshotRead::kSkipValues) {
    values = r.skip_vector<value_t>();
  } else {
    rf.val = r.read_vector<value_t>();
    values = rf.val.size();
  }
  rf.row_of = r.read_vector<index_t>();
  if (r.ok() && (rf.row_ptr.size() != rf.row_of.size() + 1 ||
                 values != rf.col_idx.size())) {
    r.fail("row-form record has inconsistent structure");
  }
  return rf;
}

}  // namespace

std::vector<std::uint8_t> serialize_snapshot(const PlanSnapshot& snap,
                                             const sparse::StructuralHash& hash,
                                             const sparse::CscMatrix& factor) {
  support::BlobWriter w(kPlanBlobVersion);

  // Identity section. The backend travels as its canonical registry key,
  // not the enum value, so enumerator reordering can never misload a blob.
  w.write_string(registry::entry_of(snap.backend).key);
  w.write_i32(snap.tasks_per_gpu);
  w.write_i32(snap.num_gpus);
  w.write_u8(snap.upper ? 1 : 0);
  w.write_f64(snap.analysis_us);
  w.write_u64(hash.pattern);
  w.write_u64(hash.values);

  // The factor, as the plan holds it: a host plan's row form, in its
  // execution order, or a simulated plan's CSC.
  if (is_simulated(snap.backend)) {
    sparse::write_csc(w, factor);
  } else {
    MSPTRSV_REQUIRE(snap.row_form.has_value(),
                    "a host snapshot carries its row form");
    write_row_form(w, *snap.row_form);
  }

  std::uint32_t flags = 0;
  if (!snap.in_degrees.empty()) flags |= kHasInDegrees;
  if (snap.levels.has_value()) flags |= kHasLevels;
  if (!snap.level_ptr.empty()) flags |= kHasLevelPtr;
  if (snap.tuned.has_value()) flags |= kHasTuned;
  w.write_u32(flags);
  if (flags & kHasInDegrees) {
    w.write_span(std::span<const index_t>(snap.in_degrees));
  }
  if (flags & kHasLevels) sparse::write_levels(w, *snap.levels);
  if (flags & kHasLevelPtr) {
    w.write_span(std::span<const offset_t>(snap.level_ptr));
  }
  if (flags & kHasTuned) write_tuned(w, *snap.tuned);

  return std::move(w).finish();
}

std::string deserialize_snapshot(std::span<const std::uint8_t> bytes,
                                 SnapshotBlob& out, SnapshotRead mode) {
  // One format: the reader refuses every other version, naming it.
  support::BlobReader r(bytes, kPlanBlobVersion);
  if (!r.ok()) return r.error();

  const std::string backend_key = r.read_string();
  out.snapshot.tasks_per_gpu = r.read_i32();
  out.snapshot.num_gpus = r.read_i32();
  out.snapshot.upper = r.read_u8() != 0;
  out.snapshot.analysis_us = r.read_f64();
  out.factor_hash.pattern = r.read_u64();
  out.factor_hash.values = r.read_u64();
  if (!r.ok()) return r.error();
  const Expected<Backend> backend = registry::parse_backend(backend_key);
  if (!backend.ok()) {
    return "snapshot names unknown backend '" + backend_key + "'";
  }
  out.snapshot.backend = backend.value();

  const bool host = !is_simulated(out.snapshot.backend);
  if (host) {
    out.snapshot.row_form = read_row_form(r, mode);
    out.rows = out.snapshot.row_form->rows();
  } else {
    out.factor = mode == SnapshotRead::kSkipValues ? sparse::skip_csc(r)
                                                   : sparse::read_csc(r);
    out.rows = out.factor.rows;
  }

  const std::uint32_t flags = r.read_u32();
  if (!r.ok()) return r.error();
  if ((flags & ~(host ? kHostSections : kSimulatedSections)) != 0) {
    return "snapshot carries a section its backend does not use";
  }
  if (flags & kHasInDegrees) {
    out.snapshot.in_degrees = r.read_vector<index_t>();
  }
  if (flags & kHasLevels) out.snapshot.levels = sparse::read_levels(r);
  if (flags & kHasLevelPtr) {
    out.snapshot.level_ptr = r.read_vector<offset_t>();
  }
  if (flags & kHasTuned) {
    TunedDecision d;
    const std::string err = read_tuned(r, d);
    if (!err.empty()) return err;
    out.snapshot.tuned = d;
  }
  if (!r.ok()) return r.error();
  if (!r.at_end()) return "trailing bytes after the last snapshot section";

  // Cross-section consistency: per-component arrays must cover the factor.
  const auto n = static_cast<std::size_t>(out.rows);
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
