// The explicit, serializable form of a SolverPlan's symbolic state.
//
// Everything the analysis phase derives from the matrix STRUCTURE lives
// here -- the host row form and its level boundaries, a simulated plan's
// level sets or per-component in-degrees, the partition, and the one-time
// simulated analysis charge -- keyed by the configuration that produced it
// (backend, task granularity, GPU count). SolverPlan::State owns one
// PlanSnapshot; save()/load() round-trip it through the versioned blob
// format (support/blob.hpp) together with the factor's content hash, which
// is what turns cold-start for a known matrix from O(analysis) into
// O(read).
//
// A host plan's row form is its only copy of the factor, so its blob
// stores exactly that: a load reads it and proves it (is_row_schedule)
// instead of scattering a CSC into it. A simulated blob stores the CSC its
// engines walk plus its level or in-degree state. The partition is
// deliberately NOT serialized: it is a deterministic O(n) function of
// (backend, n, num_gpus, tasks_per_gpu) -- partition_for -- and rebuilding
// it at load keeps the blob free of Partition's internal layout.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/row_form.hpp"
#include "core/solver.hpp"
#include "sparse/level_analysis.hpp"
#include "sparse/partition.hpp"
#include "sparse/serialize.hpp"

namespace msptrsv::core {

/// The analyze-time schedule decision of an autotuned plan, persisted in
/// its blob so a loaded plan reports -- and replays -- exactly the choice
/// the analysis made, instead of re-tuning against whatever the loading
/// machine measures.
struct TunedDecision {
  /// The decision came from the autotuner (always set by it).
  bool autotuned = false;
  /// Chosen backend (== PlanSnapshot::backend after analysis).
  Backend backend = Backend::kSerial;
  /// Chosen gang width (SolveOptions::cpu_threads semantics; 0 = hw).
  int gang_width = 0;
};

struct PlanSnapshot {
  /// Configuration identity: the load path refuses to marry this snapshot
  /// to SolveOptions that would have produced a different analysis.
  Backend backend = Backend::kSerial;
  int tasks_per_gpu = 1;
  int num_gpus = 1;
  /// Built by analyze_upper: the analyzed factor is the REVERSED lower
  /// form. Every row form is mirrored into the caller's numbering.
  bool upper = false;

  /// Component-to-GPU distribution (multi-GPU backends; rebuilt at load).
  std::optional<sparse::Partition> partition;
  /// Per-component in-degrees (multi-GPU backends).
  std::vector<index_t> in_degrees;
  /// Level-set analysis (gpu-levelset: its cost model walks the levels).
  std::optional<sparse::LevelAnalysis> levels;
  /// The host backends' gather view and their only copy of the factor,
  /// rows stored in the order the backend executes them
  /// (serial_row_order for serial, level order for cpu-levelset) in the
  /// caller's numbering. Carries values, so value refreshes rebuild it.
  std::optional<RowForm> row_form;
  /// cpu-levelset: its gang's level boundaries, positions in row_form.
  std::vector<offset_t> level_ptr;
  /// One-time simulated analysis charge (comm/analysis sizing; 0 for the
  /// real host backends and for LOADED plans, which never paid it).
  sim_time_t analysis_us = 0.0;
  /// Analyze-time schedule decision (autotuned plans; absent otherwise).
  std::optional<TunedDecision> tuned;
};

/// On-disk format version of plan blobs. The reader accepts this version
/// only; any other is rejected (kBadSnapshot), and PlanCache turns the
/// refusal into one re-analysis that overwrites the file.
/// v4: a host blob stores its row form (and cpu-levelset's level
///     boundaries) instead of the factor's CSC and level analysis; the
///     tuned section keeps the autotuned byte, backend key and gang width.
inline constexpr std::uint16_t kPlanBlobVersion = 4;

/// Seals `snap` into a blob image ready for write_file, recording `hash`
/// as its factor's content hash. A host snapshot stores its row form
/// (`factor` is ignored); a simulated one stores `factor`, the CSC its
/// engines walk.
std::vector<std::uint8_t> serialize_snapshot(
    const PlanSnapshot& snap, const sparse::StructuralHash& hash,
    const sparse::CscMatrix& factor = {});

/// Parse result of a plan blob.
struct SnapshotBlob {
  PlanSnapshot snapshot;
  /// A simulated blob's factor; only its dims under kSkipValues.
  sparse::CscMatrix factor;
  /// The plan's row count.
  index_t rows = 0;
  /// Content hash of the factor as recorded at save time; borrowed loads
  /// check a caller-supplied matrix against it, and PlanCache and the
  /// server check it against the key a blob is filed under.
  sparse::StructuralHash factor_hash;
};

enum class SnapshotRead {
  kFull,
  /// Skip materializing the stored values -- a simulated blob's whole
  /// factor, a host row form's val -- for loads whose caller supplies the
  /// matrix, and for fsck, which needs only the identity.
  kSkipValues,
};

/// Parses a plan blob image. Returns the empty string on success, else a
/// diagnostic (truncation, corruption, version/endianness mismatch,
/// unknown backend key, inconsistent record shapes).
std::string deserialize_snapshot(std::span<const std::uint8_t> bytes,
                                 SnapshotBlob& out,
                                 SnapshotRead mode = SnapshotRead::kFull);

}  // namespace msptrsv::core
