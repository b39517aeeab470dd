// String-keyed backend registry.
//
// Every bench/example binary used to hand-roll its own Backend dispatch;
// the registry centralizes the key -> backend mapping, per-backend default
// SolveOptions, and the catalogue used for --help text and report tables.
//
//   auto b = registry::parse_backend("mg-zerocopy");      // Expected<Backend>
//   core::SolveOptions opt = registry::default_options(b.value());
//   for (const auto& e : registry::backends()) { ... }    // the catalogue
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/plan.hpp"
#include "core/solver.hpp"
#include "core/status.hpp"

namespace msptrsv::core::registry {

struct BackendEntry {
  Backend backend;
  /// Canonical CLI/config key ("mg-zerocopy").
  const char* key;
  /// One-line description for --help and docs.
  const char* summary;
  /// Runs on the simulated machine (vs real host threads).
  bool simulated;
  /// Distributes components across multiple simulated GPUs.
  bool multi_gpu;
};

/// The full catalogue, one entry per Backend enumerator, in enum order.
std::span<const BackendEntry> backends();

/// Catalogue entry for a backend (never null: every enumerator is listed).
const BackendEntry& entry_of(Backend b);

/// Resolves a key to a backend. Case-insensitive; accepts the canonical
/// keys, the display names produced by backend_name(), a few common
/// short aliases ("zerocopy", "unified", "csrsv2", ...), and the keys of
/// the retired host schedules ("cpu-syncfree", "syncfree",
/// "cpu-taskgraph", "taskgraph", "task-graph"), which name serial. Unknown keys come
/// back as SolveStatus::kUnknownBackend with a message listing the
/// canonical keys.
Expected<Backend> parse_backend(std::string_view key);

/// Factory of per-backend default SolveOptions: the paper's reference
/// configuration for each design point (4-GPU DGX-1 + 8 tasks/GPU for the
/// multi-GPU designs, single-GPU machine for the host/single-GPU ones).
SolveOptions default_options(Backend b);

/// parse_backend + default_options in one step (the common bench path).
/// Additionally accepts the preset key "auto": default host options with
/// SolveOptions::autotune set, so the analyze phase picks the backend and
/// gang width from the matrix structure.
Expected<SolveOptions> options_for(std::string_view key);

/// Comma-separated canonical key list ("serial, cpu-levelset, ...") for
/// help text and error messages.
std::string backend_keys();

// ---- plan cache ------------------------------------------------------------

/// Cache-backed analysis: consults the process-wide core::PlanCache, so a
/// repeated analyze() of the same matrix content under the same
/// configuration is an O(1) hit instead of a re-analysis (and, when the
/// cache has a blob directory, a cross-process O(read)). The returned plan
/// owns its matrix; copies share the symbolic state.
Expected<SolverPlan> analyze_cached(const sparse::CscMatrix& lower,
                                    const SolveOptions& options);

/// parse_backend + default_options + analyze_cached in one step. (A
/// caller with its own PlanCache -- e.g. a solve service with a private
/// byte budget -- calls cache.get_or_analyze directly.)
Expected<SolverPlan> analyze_cached(const sparse::CscMatrix& lower,
                                    std::string_view key);

// ---- solve service ---------------------------------------------------------

/// Options for plans that will be SERVED: options_for(key) with
/// use_shared_pool set, so every served plan's kernel parallelism comes
/// from the process-wide SharedWorkerPool instead of plan-owned threads.
/// This is what service::SolveService stamps on analyze-on-first-use.
Expected<SolveOptions> service_options(std::string_view key);

/// preset_options + use_shared_pool: serve a pre-tuned deployment.
Expected<SolveOptions> service_preset_options(
    std::string_view preset_key, Backend backend = Backend::kMgZeroCopy);

// ---- machine presets -------------------------------------------------------

/// A pre-tuned machine configuration: topology + task granularity of a
/// named deployment, applied on top of a backend's default options.
struct MachinePreset {
  /// Canonical config key ("dgx1x8").
  const char* key;
  /// One-line description for --help and docs.
  const char* summary;
  int num_gpus;
  int tasks_per_gpu;
};

/// The preset catalogue (currently the two reference deployments of the
/// paper's Fig. 8 study at full machine scale plus their 4-GPU slices).
std::span<const MachinePreset> machine_presets();

/// Resolves a preset key ("dgx1x8", "dgx2x16", ...) into SolveOptions for
/// `backend`: the preset's machine and tuned tasks_per_gpu over the
/// backend defaults. Unknown keys are kInvalidOptions with the catalogue
/// in the message.
Expected<SolveOptions> preset_options(std::string_view preset_key,
                                      Backend backend = Backend::kMgZeroCopy);

/// Comma-separated preset key list for help text.
std::string preset_keys();

}  // namespace msptrsv::core::registry
