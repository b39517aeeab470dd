// The explicit, serializable form of a SolverPlan's symbolic state.
//
// Everything the analysis phase derives from the matrix STRUCTURE lives
// here -- level sets, per-component in-degrees, the row-form gather view,
// the partition, and the one-time simulated analysis charge -- keyed by the
// configuration that produced it (backend, task granularity, GPU count).
// SolverPlan::State owns one PlanSnapshot; save()/load() round-trip it
// through the versioned blob format (support/blob.hpp) together with the
// analyzed factor and its structural hash, which is what turns cold-start
// for a known matrix from O(analysis) into O(read).
//
// The partition is deliberately NOT serialized: it is a deterministic O(n)
// function of (backend, n, num_gpus, tasks_per_gpu) -- partition_for --
// and rebuilding it at load keeps the blob free of Partition's internal
// layout. The row form and the task graph are not serialized either: they
// are O(nnz) functions of the factor and the stored levels. Everything
// branchy (levels, in-degrees, the tuned decision) is stored verbatim and
// restored by memcpy-speed reads.
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
#include "sparse/task_graph.hpp"

namespace msptrsv::core {

/// The analyze-time schedule decision (autotuned plans and every
/// cpu-taskgraph plan), persisted as a v3 blob section so a loaded plan
/// reports -- and replays -- exactly the choice the analysis made, instead
/// of re-tuning against whatever the loading machine measures.
struct TunedDecision {
  /// The decision came from the autotuner (vs an explicit cpu-taskgraph
  /// request, which records only its coarsening parameters here).
  bool autotuned = false;
  /// Chosen backend (== PlanSnapshot::backend after analysis).
  Backend backend = Backend::kSerial;
  /// 0 = flat (backend-native) schedule, 1 = coarsened task graph.
  std::uint8_t schedule = 0;
  /// Chosen gang width (SolveOptions::cpu_threads semantics; 0 = hw).
  int gang_width = 0;
  /// Coarsening thresholds the task graph was (or would be) built with.
  /// Pinned in the blob: the per-process host-cost measurement may
  /// differ on the loading machine, and the rebuilt graph must be THIS
  /// one.
  sparse::CoarsenOptions coarsen;
  /// Structural features of the factor at the recorded narrow cut
  /// (observability).
  sparse::ScheduleFeatures features;
};

struct PlanSnapshot {
  /// Configuration identity: the load path refuses to marry this snapshot
  /// to SolveOptions that would have produced a different analysis.
  Backend backend = Backend::kSerial;
  int tasks_per_gpu = 1;
  int num_gpus = 1;
  /// Built by analyze_upper: the factor is the REVERSED lower form. Host
  /// backends solve it through the mirrored row form, in the caller's
  /// numbering; only the simulated backends apply the O(n) vector
  /// reversal around their engines.
  bool upper = false;

  /// Component-to-GPU distribution (multi-GPU backends; rebuilt at load).
  std::optional<sparse::Partition> partition;
  /// Per-component in-degrees (sync-free backends).
  std::vector<index_t> in_degrees;
  /// Level-set analysis (every host backend, and gpu-levelset): the
  /// source of the row form's execution order.
  std::optional<sparse::LevelAnalysis> levels;
  /// The host backends' gather view, rows stored in the order the
  /// backend executes them (serial_row_order for serial, level order
  /// for the parallel schedules) in the caller's numbering. Carries
  /// values, so value refreshes rebuild it. NEVER serialized: it is an
  /// O(nnz) function of the factor and the levels, and the load path
  /// rebuilds it. Row forms stored by v1 and fat v2 blobs are in natural
  /// row order; the reader skips them.
  std::optional<RowForm> row_form;
  /// One-time simulated analysis charge (comm/analysis sizing; 0 for the
  /// real host backends and for LOADED plans, which never paid it).
  sim_time_t analysis_us = 0.0;
  /// Analyze-time schedule decision (autotune / cpu-taskgraph plans;
  /// absent otherwise). Serialized by v3 blobs; older formats drop it and
  /// the load path falls back to default coarsening thresholds.
  std::optional<TunedDecision> tuned;
  /// Coarsened task DAG of the cpu-taskgraph backend. NOT serialized --
  /// like the lean row form, it is a deterministic O(n + nnz) function of
  /// the levels and the (persisted) coarsening thresholds, and the load
  /// path rebuilds it.
  std::optional<sparse::TaskGraph> tasks;
};

/// On-disk format version of plan blobs. The reader accepts the current
/// version AND every older one back to v1 -- a plan cache must outlive a
/// binary upgrade; anything else is rejected (kBadSnapshot).
/// v2: adds the rhs-layout byte, stops storing the row-form section by
///     default (no writer stores it any more; readers skip it). Every
///     host kernel is column-major now: writers store 1 (column-major)
///     and readers validate the byte (0..2) but ignore its value.
/// v3: adds the tuned-decision section (autotuner choice + features +
///     coarsening thresholds; the task graph itself is rebuilt at load).
inline constexpr std::uint16_t kPlanBlobVersion = 3;

/// Serialization knobs, defaulted to the production format. Tests use
/// them to produce older-format blobs for the compatibility studies.
struct SnapshotWriteOptions {
  /// 1..kPlanBlobVersion. Version 1 writes the pre-v2 byte stream (no
  /// layout byte); version 2 the pre-v3 stream (no tuned section).
  std::uint16_t format_version = kPlanBlobVersion;
};

/// Serializes `snap` plus the analyzed factor (and its structural hash)
/// into a sealed blob image ready for write_file.
std::vector<std::uint8_t> serialize_snapshot(
    const PlanSnapshot& snap, const sparse::CscMatrix& factor,
    SnapshotWriteOptions options = {});

/// Parse result of a plan blob.
struct SnapshotBlob {
  PlanSnapshot snapshot;
  /// The embedded factor. Under kSkipFactor only the dims are filled --
  /// the arrays are never materialized.
  sparse::CscMatrix factor;
  /// Stored nonzero count (factor.nnz() under kFull; survives the skip).
  offset_t factor_nnz = 0;
  /// Structural hash of `factor` as recorded at save time; borrowed-mode
  /// loads check a caller-supplied matrix against it.
  sparse::StructuralHash factor_hash;
};

enum class SnapshotRead {
  kFull,
  /// Skip materializing the embedded factor (borrowed loads: the caller
  /// supplies the matrix, so reading ~half the blob into vectors that
  /// are immediately freed would be pure waste).
  kSkipFactor,
};

/// Parses a plan blob image. Returns the empty string on success, else a
/// diagnostic (truncation, corruption, version/endianness mismatch,
/// unknown backend key, inconsistent record shapes).
std::string deserialize_snapshot(std::span<const std::uint8_t> bytes,
                                 SnapshotBlob& out,
                                 SnapshotRead mode = SnapshotRead::kFull);

}  // namespace msptrsv::core
