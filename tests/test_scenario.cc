/** @file Tests for the scenario registry and a representative scenario
 *  run end to end through the SweepRunner (the smartinf_bench path). */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "csd/smartssd.h"
#include "exp/scenario.h"
#include "train/calibration.h"

namespace smartinf::exp {
namespace {

TEST(ScenarioRegistry, BuiltinsRegisterOnceAndIdempotently)
{
    registerBuiltinScenarios();
    registerBuiltinScenarios(); // second call must not duplicate
    const auto all = ScenarioRegistry::instance().all();
    // 17 migrated bench binaries + the 3 serving studies + the 3
    // KV/mix/closed-loop serving-fidelity studies + the 2 paged-KV
    // studies + the 2 fault/recovery studies.
    EXPECT_EQ(all.size(), 32u);

    // Sorted by name, every paper artifact present.
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
    for (const char *name :
         {"fig03a", "fig03b", "fig09", "fig10", "fig11", "fig12", "fig13",
          "fig14", "fig15", "fig16", "fig17", "table1", "table3", "table4",
          "ablation_handler", "ablation_compression", "scaleout",
          "serve_smart", "serve_baseline", "serve_batching",
          "serve_kv_pressure", "serve_mixes", "serve_closed_loop",
          "serve_paged_kv", "serve_prefix_cache"})
        EXPECT_NE(ScenarioRegistry::instance().find(name), nullptr)
            << name;
    EXPECT_EQ(ScenarioRegistry::instance().find("nope"), nullptr);
}

TEST(ScenarioRegistry, RunsAScenarioEndToEnd)
{
    registerBuiltinScenarios();
    const auto *scenario = ScenarioRegistry::instance().find("fig03b");
    ASSERT_NE(scenario, nullptr);

    SweepRunner runner(SweepRunner::Options{.jobs = 4, .cache = true});
    ScenarioContext ctx{runner};
    const auto result = scenario->run(ctx);

    ASSERT_EQ(result.tables.size(), 1u);
    EXPECT_EQ(result.tables[0].rowCount(), 6u); // 1,2,4,6,8,10 SSDs
    EXPECT_EQ(result.records.size(), 6u);
    EXPECT_FALSE(result.notes.empty());
    EXPECT_EQ(runner.executedRuns(), 6u);

    // Running it again through the same context is pure cache.
    scenario->run(ctx);
    EXPECT_EQ(runner.executedRuns(), 6u);
    EXPECT_EQ(runner.cacheHits(), 6u);
}

TEST(ScenarioRegistry, JsonWriterEmitsTheFullDocument)
{
    registerBuiltinScenarios();
    const auto *scenario = ScenarioRegistry::instance().find("table1");
    ASSERT_NE(scenario, nullptr);
    SweepRunner runner;
    ScenarioContext ctx{runner};
    const auto result = scenario->run(ctx);

    std::ostringstream oss;
    writeScenarioJson(oss, scenario->name, scenario->title, result);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"scenario\":\"table1\""), std::string::npos);
    EXPECT_NE(json.find("\"tables\":["), std::string::npos);
    EXPECT_NE(json.find("\"records\":["), std::string::npos);
    EXPECT_NE(json.find("\"notes\":["), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ScenarioRegistry, DuplicateNamesAreFatal)
{
    registerBuiltinScenarios();
    EXPECT_THROW(ScenarioRegistry::instance().add(
                     {"fig09", "dup", [](ScenarioContext &) {
                          return ScenarioResult{};
                      }}),
                 std::runtime_error);
}

TEST(Fig14, SmartSsdConstantsMatchThePaper)
{
    EXPECT_EQ(csd::smartssd::kSsdRead, 3.2e9);
    EXPECT_EQ(csd::smartssd::kSsdWrite, 2.0e9);
    EXPECT_EQ(csd::smartssd::kFpgaDram, 4.0 * 1024 * 1024 * 1024);
    EXPECT_EQ(csd::smartssd::kAdamUpdater, 7.2e9);
    EXPECT_EQ(csd::smartssd::kTopKDecompressor, 3.6e9);
}

TEST(Fig14, ModeledTablePrintsTheRatesTheSimulatorRunsOn)
{
    registerBuiltinScenarios();
    const auto *scenario = ScenarioRegistry::instance().find("fig14");
    ASSERT_NE(scenario, nullptr);
    SweepRunner runner;
    ScenarioContext ctx{runner};
    const auto result = scenario->run(ctx);
    ASSERT_FALSE(result.tables.empty());
    const Table &modeled = result.tables[0];

    const auto &cal = train::Calibration::defaults();
    const std::pair<const char *, double> expected[] = {
        {"SSD read", cal.ssd_read},
        {"SSD write", cal.ssd_write},
        {"updater", cal.fpga_updater},
        {"decomp+update path", cal.fpga_decomp},
    };
    const auto &header = modeled.header();
    ASSERT_GT(modeled.rowCount(), 0u);
    for (const auto &[column, rate] : expected) {
        const auto it = std::find(header.begin(), header.end(), column);
        ASSERT_NE(it, header.end()) << column;
        const auto col = static_cast<std::size_t>(it - header.begin());
        for (const auto &row : modeled.rows())
            EXPECT_EQ(row[col], Table::num(rate / 1e9, 2))
                << column << " in row " << row[0];
    }
}

} // namespace
} // namespace smartinf::exp
