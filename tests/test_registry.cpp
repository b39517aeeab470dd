// The backend registry: the catalogue must cover every Backend enumerator
// with a unique key, keys and display names must parse back, defaults must
// match each design point's reference configuration, and unknown keys must
// come back as kUnknownBackend through the status channel.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/msptrsv.hpp"

namespace msptrsv {
namespace {

namespace registry = core::registry;

TEST(Registry, CatalogueCoversEveryBackendWithUniqueKeys) {
  ASSERT_EQ(registry::backends().size(), 7u);
  std::set<std::string> keys;
  std::set<core::Backend> seen;
  for (const registry::BackendEntry& e : registry::backends()) {
    EXPECT_TRUE(keys.insert(e.key).second) << "duplicate key " << e.key;
    EXPECT_TRUE(seen.insert(e.backend).second);
    EXPECT_EQ(registry::entry_of(e.backend).key, std::string(e.key));
    EXPECT_EQ(e.simulated, core::is_simulated(e.backend));
  }
}

TEST(Registry, CanonicalKeysParseRoundTrip) {
  for (const registry::BackendEntry& e : registry::backends()) {
    const auto parsed = registry::parse_backend(e.key);
    ASSERT_TRUE(parsed.ok()) << e.key;
    EXPECT_EQ(parsed.value(), e.backend);
  }
}

TEST(Registry, ParsingIsCaseInsensitive) {
  const auto parsed = registry::parse_backend("MG-ZeroCopy");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), core::Backend::kMgZeroCopy);
}

TEST(Registry, DisplayNamesParseToo) {
  for (const registry::BackendEntry& e : registry::backends()) {
    const auto parsed = registry::parse_backend(core::backend_name(e.backend));
    ASSERT_TRUE(parsed.ok()) << core::backend_name(e.backend);
    EXPECT_EQ(parsed.value(), e.backend);
  }
}

TEST(Registry, UnknownKeyReportsStatusWithCatalogue) {
  const auto parsed = registry::parse_backend("not-a-backend");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), core::SolveStatus::kUnknownBackend);
  EXPECT_NE(parsed.message().find("mg-zerocopy"), std::string::npos);
  // value() on an error escalates to the legacy throwing contract.
  EXPECT_THROW(parsed.value(), support::PreconditionError);
}

TEST(Registry, DefaultOptionsMatchReferenceConfigurations) {
  for (const registry::BackendEntry& e : registry::backends()) {
    const core::SolveOptions opt = registry::default_options(e.backend);
    EXPECT_EQ(opt.backend, e.backend);
    EXPECT_EQ(opt.machine.num_gpus(), e.multi_gpu ? 4 : 1) << e.key;
    EXPECT_EQ(opt.tasks_per_gpu, 8);
  }
}

TEST(Registry, OptionsForResolvesKeyOrReportsError) {
  const auto opt = registry::options_for("mg-unified-task");
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt.value().backend, core::Backend::kMgUnifiedTask);

  EXPECT_EQ(registry::options_for("nope").status(),
            core::SolveStatus::kUnknownBackend);
}

TEST(Registry, RetiredHostScheduleKeysAreAliasesOfSerial) {
  // Blobs, wire clients and cache configurations that name the retired
  // sync-free and task-graph schedules keep working: they get serial,
  // with serial's options.
  const core::SolveOptions serial = registry::options_for("serial").value();
  for (const char* key : {"cpu-syncfree", "syncfree", "cpu-taskgraph",
                          "taskgraph", "task-graph", "CPU-SyncFree"}) {
    SCOPED_TRACE(key);
    const auto parsed = registry::parse_backend(key);
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    EXPECT_EQ(parsed.value(), core::Backend::kSerial);
    const auto opt = registry::options_for(key);
    ASSERT_TRUE(opt.ok()) << opt.message();
    EXPECT_EQ(opt.value().backend, serial.backend);
    EXPECT_EQ(opt.value().machine.name, serial.machine.name);
    EXPECT_EQ(opt.value().machine.num_gpus(), serial.machine.num_gpus());
    EXPECT_EQ(opt.value().tasks_per_gpu, serial.tasks_per_gpu);
    EXPECT_EQ(opt.value().cpu_threads, serial.cpu_threads);
    EXPECT_EQ(opt.value().numa_policy, serial.numa_policy);
    EXPECT_EQ(opt.value().include_analysis, serial.include_analysis);
    EXPECT_EQ(opt.value().use_shared_pool, serial.use_shared_pool);
    EXPECT_EQ(opt.value().time_budget, serial.time_budget);
    EXPECT_EQ(opt.value().autotune, serial.autotune);
  }
  // The catalogue lists canonical keys only.
  EXPECT_EQ(registry::backend_keys().find("syncfree"), std::string::npos);
  EXPECT_EQ(registry::backend_keys().find("taskgraph"), std::string::npos);
}

TEST(Registry, EveryBackendDefaultConfigurationSolves) {
  const sparse::CscMatrix l = sparse::gen_layered_dag(400, 10, 2000, 0.5, 3);
  const std::vector<value_t> x_ref = sparse::gen_solution(l.rows, 17);
  const std::vector<value_t> b = sparse::gen_rhs_for_solution(l, x_ref);
  for (const registry::BackendEntry& e : registry::backends()) {
    const core::SolveResult r =
        core::solve(l, b, registry::default_options(e.backend));
    EXPECT_LT(core::max_relative_difference(r.x, x_ref), 1e-9) << e.key;
  }
}

TEST(Registry, MachinePresetsResolveToTunedConfigs) {
  const auto d1 = registry::preset_options("dgx1x8");
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1->machine.num_gpus(), 8);
  EXPECT_EQ(d1->tasks_per_gpu, 8);
  EXPECT_EQ(d1->backend, core::Backend::kMgZeroCopy);

  const auto d2 = registry::preset_options("DGX2X16", core::Backend::kMgUnified);
  ASSERT_TRUE(d2.ok());  // case-insensitive like backend keys
  EXPECT_EQ(d2->machine.num_gpus(), 16);
  EXPECT_EQ(d2->tasks_per_gpu, 4);
  EXPECT_EQ(d2->backend, core::Backend::kMgUnified);
  EXPECT_NE(d2->machine.name, d1->machine.name);

  // The catalogue is enumerable and every entry resolves and solves.
  const sparse::CscMatrix l = sparse::gen_layered_dag(300, 8, 1500, 0.5, 4);
  const std::vector<value_t> x_ref = sparse::gen_solution(l.rows, 5);
  const std::vector<value_t> b = sparse::gen_rhs_for_solution(l, x_ref);
  EXPECT_GE(registry::machine_presets().size(), 2u);
  for (const registry::MachinePreset& p : registry::machine_presets()) {
    const auto opt = registry::preset_options(p.key);
    ASSERT_TRUE(opt.ok()) << p.key;
    const core::SolveResult r = core::solve(l, b, opt.value());
    EXPECT_LT(core::max_relative_difference(r.x, x_ref), 1e-9) << p.key;
  }

  const auto bad = registry::preset_options("dgx9x99");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), core::SolveStatus::kInvalidOptions);
  EXPECT_NE(registry::preset_keys().find("dgx1x8"), std::string::npos);
  EXPECT_NE(bad.message().find("dgx2x16"), std::string::npos);
}

}  // namespace
}  // namespace msptrsv
