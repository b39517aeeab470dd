#include "core/registry.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "core/plan_cache.hpp"

namespace msptrsv::core::registry {

namespace {

constexpr std::array<BackendEntry, 9> kBackends{{
    {Backend::kSerial, "serial",
     "host reference, Algorithm 1 column sweep", false, false, true},
    {Backend::kCpuLevelSet, "cpu-levelset",
     "real-thread level-set (Naumov on the host)", false, false, true},
    {Backend::kCpuSyncFree, "cpu-syncfree",
     "real-thread sync-free (Liu on the host)", false, false, true},
    {Backend::kCpuTaskGraph, "cpu-taskgraph",
     "real-thread coarsened task DAG (chain-fused levels)", false, false,
     true},
    {Backend::kGpuLevelSet, "gpu-levelset",
     "simulated cuSPARSE csrsv2 level-set baseline", true, false, true},
    {Backend::kMgUnified, "mg-unified",
     "Algorithm 2: Unified Memory, block distribution", true, true, true},
    {Backend::kMgUnifiedTask, "mg-unified-task",
     "Algorithm 2 + round-robin task pool", true, true, true},
    {Backend::kMgShmem, "mg-shmem",
     "Algorithm 3: NVSHMEM read-only, block distribution", true, true, true},
    {Backend::kMgZeroCopy, "mg-zerocopy",
     "Algorithm 3 + task pool (the paper's design)", true, true, true},
}};

std::string lower_key(std::string_view key) {
  std::string out(key);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

std::span<const BackendEntry> backends() { return kBackends; }

const BackendEntry& entry_of(Backend b) {
  for (const BackendEntry& e : kBackends) {
    if (e.backend == b) return e;
  }
  // Unreachable for valid enumerators; fall back to the reference design.
  return kBackends.front();
}

Expected<Backend> parse_backend(std::string_view key) {
  const std::string k = lower_key(key);
  for (const BackendEntry& e : kBackends) {
    if (k == e.key) return e.backend;
  }
  // Display names from backend_name() and common shorthand.
  if (k == "gpu-levelset(csrsv2)" || k == "csrsv2" || k == "levelset") {
    return Backend::kGpuLevelSet;
  }
  if (k == "mg-unified+task" || k == "unified-task" || k == "unified+task") {
    return Backend::kMgUnifiedTask;
  }
  if (k == "unified") return Backend::kMgUnified;
  if (k == "shmem") return Backend::kMgShmem;
  if (k == "zerocopy" || k == "zero-copy") return Backend::kMgZeroCopy;
  if (k == "syncfree") return Backend::kCpuSyncFree;
  if (k == "taskgraph" || k == "task-graph") return Backend::kCpuTaskGraph;
  return Expected<Backend>(SolveStatus::kUnknownBackend,
                           "unknown backend '" + std::string(key) +
                               "'; known backends: " + backend_keys());
}

SolveOptions default_options(Backend b) {
  SolveOptions opt;
  opt.backend = b;
  const BackendEntry& e = entry_of(b);
  // The paper's reference configuration: multi-GPU designs on a 4-GPU
  // DGX-1 with 8 tasks/GPU; everything else on a single GPU / the host.
  opt.machine = e.multi_gpu ? sim::Machine::dgx1(4) : sim::Machine::dgx1(1);
  opt.tasks_per_gpu = 8;
  // Batch-aware default: every catalogued backend that supports the fused
  // multi-RHS kernel gets it out of the box.
  opt.fuse_batch = e.fused_batch;
  return opt;
}

Expected<SolveOptions> options_for(std::string_view key) {
  // "auto" is a PRESET, not a backend: the analyze-time autotuner picks
  // the backend (and schedule, and gang width) per matrix and overwrites
  // options.backend with the decision. The placeholder backend only names
  // what a 0x0 matrix (which has no features) falls back to.
  if (lower_key(key) == "auto") {
    SolveOptions opt = default_options(Backend::kCpuLevelSet);
    opt.autotune = true;
    return opt;
  }
  Expected<Backend> b = parse_backend(key);
  if (!b.ok()) return Expected<SolveOptions>(b.error());
  return default_options(b.value());
}

std::string backend_keys() {
  std::string out;
  for (const BackendEntry& e : kBackends) {
    if (!out.empty()) out += ", ";
    out += e.key;
  }
  return out;
}

Expected<SolverPlan> analyze_cached(const sparse::CscMatrix& lower,
                                    const SolveOptions& options) {
  return PlanCache::instance().get_or_analyze(lower, options);
}

Expected<SolverPlan> analyze_cached(const sparse::CscMatrix& lower,
                                    std::string_view key) {
  Expected<SolveOptions> opt = options_for(key);
  if (!opt.ok()) return Expected<SolverPlan>(opt.error());
  return analyze_cached(lower, opt.value());
}

Expected<SolveOptions> service_options(std::string_view key) {
  Expected<SolveOptions> opt = options_for(key);
  if (!opt.ok()) return opt;
  opt.value().use_shared_pool = true;
  return opt;
}

Expected<SolveOptions> service_preset_options(std::string_view preset_key,
                                              Backend backend) {
  Expected<SolveOptions> opt = preset_options(preset_key, backend);
  if (!opt.ok()) return opt;
  opt.value().use_shared_pool = true;
  return opt;
}

namespace {

// Pre-tuned deployments. Task granularity follows the paper's Fig. 9
// sweet spot (total task count a small multiple of the GPU count, ~32-64
// launches per pass): the 4-GPU slices and the 8-GPU DGX-1 keep the
// reference 8 tasks/GPU; the 16-GPU DGX-2 halves it so the per-GPU launch
// streams stay short.
constexpr std::array<MachinePreset, 4> kPresets{{
    {"dgx1x4", "DGX-1, 4-GPU fully-connected NVLink quad (paper config)", 4,
     8},
    {"dgx1x8", "DGX-1, all 8 GPUs (hybrid-cube-mesh NVLink)", 8, 8},
    {"dgx2x4", "DGX-2, 4 GPUs over NVSwitch", 4, 8},
    {"dgx2x16", "DGX-2, all 16 GPUs over NVSwitch", 16, 4},
}};

bool preset_is_dgx2(std::string_view key) {
  return key.substr(0, 4) == "dgx2";
}

}  // namespace

std::span<const MachinePreset> machine_presets() { return kPresets; }

Expected<SolveOptions> preset_options(std::string_view preset_key,
                                      Backend backend) {
  const std::string k = lower_key(preset_key);
  for (const MachinePreset& p : kPresets) {
    if (k != p.key) continue;
    SolveOptions opt = default_options(backend);
    opt.machine = preset_is_dgx2(p.key) ? sim::Machine::dgx2(p.num_gpus)
                                        : sim::Machine::dgx1(p.num_gpus);
    opt.tasks_per_gpu = p.tasks_per_gpu;
    return opt;
  }
  return Expected<SolveOptions>(SolveStatus::kInvalidOptions,
                                "unknown machine preset '" +
                                    std::string(preset_key) +
                                    "'; known presets: " + preset_keys());
}

std::string preset_keys() {
  std::string out;
  for (const MachinePreset& p : kPresets) {
    if (!out.empty()) out += ", ";
    out += p.key;
  }
  return out;
}

}  // namespace msptrsv::core::registry
