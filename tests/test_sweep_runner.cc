/** @file Tests for the parallel SweepRunner: bit-identical parallel vs
 *  serial execution over a mixed single-node + multi-node sweep, result
 *  caching with run-count accounting, and input-order preservation. */
#include <gtest/gtest.h>

#include <map>

#include "exp/experiment.h"
#include "exp/sweep_runner.h"

namespace smartinf::exp {
namespace {

using train::ModelSpec;
using train::Strategy;

/** A mixed sweep: single-node and 2-node points, two strategies. Small
 *  models keep each simulation in the tens of milliseconds. */
std::vector<RunSpec>
mixedSweep()
{
    return ExperimentBuilder()
        .models({ModelSpec::gpt2(0.34), ModelSpec::bert(0.34)})
        .strategies({Strategy::Baseline, Strategy::SmartUpdateOpt})
        .devices({2, 4})
        .nodes({1, 2})
        .build();
}

void
expectBitIdentical(const RunRecord &a, const RunRecord &b)
{
    EXPECT_EQ(a.spec_hash, b.spec_hash);
    EXPECT_EQ(a.engine_name, b.engine_name);
    // EXPECT_EQ on doubles is exact comparison — bit-identical is the bar,
    // not approximately-equal.
    EXPECT_EQ(a.result.iteration_time, b.result.iteration_time);
    EXPECT_EQ(a.result.phases.forward, b.result.phases.forward);
    EXPECT_EQ(a.result.phases.backward, b.result.phases.backward);
    EXPECT_EQ(a.result.phases.update, b.result.phases.update);
    EXPECT_EQ(a.result.traffic.sharedTotal(), b.result.traffic.sharedTotal());
    EXPECT_EQ(a.result.traffic.internode_tx, b.result.traffic.internode_tx);
    EXPECT_EQ(a.result.traffic.internode_rx, b.result.traffic.internode_rx);
}

TEST(SweepRunner, ParallelIsBitIdenticalToSerial)
{
    const auto specs = mixedSweep();
    ASSERT_EQ(specs.size(), 16u);

    SweepRunner serial(SweepRunner::Options{.jobs = 1, .cache = true});
    const auto serial_records = serial.run(specs);

    SweepRunner parallel(SweepRunner::Options{.jobs = 8, .cache = true});
    const auto parallel_records = parallel.run(specs);

    ASSERT_EQ(serial_records.size(), parallel_records.size());
    for (std::size_t i = 0; i < serial_records.size(); ++i)
        expectBitIdentical(serial_records[i], parallel_records[i]);
}

TEST(SweepRunner, RecordsComeBackInInputOrder)
{
    const auto specs = mixedSweep();
    SweepRunner runner(SweepRunner::Options{.jobs = 8, .cache = true});
    const auto records = runner.run(specs);
    ASSERT_EQ(records.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(records[i].spec_hash, specs[i].hash());
        EXPECT_EQ(records[i].spec.label, specs[i].label);
    }
}

TEST(SweepRunner, DuplicateSpecsRunOnce)
{
    auto specs = mixedSweep();
    const std::size_t unique = specs.size();
    // Duplicate the whole sweep (same configs, fresh labels).
    auto dup = specs;
    for (auto &spec : dup)
        spec.label += " (again)";
    specs.insert(specs.end(), dup.begin(), dup.end());

    SweepRunner runner(SweepRunner::Options{.jobs = 8, .cache = true});
    const auto records = runner.run(specs);
    EXPECT_EQ(runner.executedRuns(), unique);
    EXPECT_EQ(runner.cacheHits(), unique);

    // Hits return the requesting spec's own label, not the first one's.
    EXPECT_EQ(records[unique].spec.label, specs[unique].label);
    expectBitIdentical(records[0], records[unique]);
}

TEST(SweepRunner, SecondRunIsAllCacheHits)
{
    const auto specs = mixedSweep();
    SweepRunner runner(SweepRunner::Options{.jobs = 4, .cache = true});
    const auto first = runner.run(specs);
    EXPECT_EQ(runner.executedRuns(), specs.size());
    EXPECT_EQ(runner.cacheHits(), 0u);

    const auto second = runner.run(specs);
    EXPECT_EQ(runner.executedRuns(), specs.size()); // no new engine runs
    EXPECT_EQ(runner.cacheHits(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectBitIdentical(first[i], second[i]);
}

TEST(SweepRunner, ClearCacheForcesReExecution)
{
    const auto specs = mixedSweep();
    SweepRunner runner(SweepRunner::Options{.jobs = 2, .cache = true});
    runner.run(specs);
    runner.clearCache();
    runner.run(specs);
    EXPECT_EQ(runner.executedRuns(), 2 * specs.size());
}

TEST(SweepRunner, CacheDisabledReRunsEverything)
{
    auto specs = ExperimentBuilder()
                     .model(ModelSpec::gpt2(0.34))
                     .devices({2})
                     .build();
    specs.push_back(specs.front()); // duplicate
    SweepRunner runner(SweepRunner::Options{.jobs = 1, .cache = false});
    runner.run(specs);
    EXPECT_EQ(runner.executedRuns(), 2u);
}

TEST(SweepRunner, CacheDisabledReRunsConcurrentDuplicates)
{
    // Duplicates in flight at the same time must not dedupe through the
    // single-flight machinery when caching is off.
    auto specs = ExperimentBuilder()
                     .model(ModelSpec::gpt2(0.34))
                     .devices({2})
                     .build();
    for (int i = 0; i < 7; ++i)
        specs.push_back(specs.front());
    SweepRunner runner(SweepRunner::Options{.jobs = 8, .cache = false});
    const auto records = runner.run(specs);
    EXPECT_EQ(runner.executedRuns(), 8u);
    EXPECT_EQ(runner.cacheHits(), 0u);
    for (const auto &rec : records)
        EXPECT_EQ(rec.result.iteration_time,
                  records.front().result.iteration_time);
}

TEST(SweepRunner, InvalidSpecPropagatesTheError)
{
    auto specs = mixedSweep();
    specs[3].system.num_devices = 0;
    SweepRunner runner(SweepRunner::Options{.jobs = 4, .cache = true});
    EXPECT_THROW(runner.run(specs), std::runtime_error);
}

/** The builder trusts RunSpec::hash() to decide which axes alias, so
 *  equal hashes must mean equal results — checked uncached, so every
 *  aliased spec really runs its own engine. */
TEST(SweepRunner, AliasedSpecsAreBitIdenticalUncached)
{
    // Fig 16's shape: the two BASE rows alias across the ratio axis.
    auto specs =
        ExperimentBuilder()
            .model(ModelSpec::gpt2(0.34))
            .strategies({Strategy::Baseline, Strategy::SmartUpdateOptComp})
            .devices({2})
            .compressionFractions({0.02, 0.10})
            .build();
    // Serving: the stored-weight ratio only shapes SU+O+C, so two SU+O
    // specs whose base configs differ only in it alias.
    for (double fraction : {0.25, 0.5}) {
        serve::ServeConfig config;
        config.weight_wire_fraction = fraction;
        const auto serving = ExperimentBuilder()
                                 .model(ModelSpec::gpt2(0.34))
                                 .serving(config)
                                 .strategy(Strategy::SmartUpdateOpt)
                                 .devices({2})
                                 .build();
        specs.insert(specs.end(), serving.begin(), serving.end());
    }

    SweepRunner runner(SweepRunner::Options{.jobs = 4, .cache = false});
    const auto records = runner.run(specs);
    EXPECT_EQ(runner.executedRuns(), specs.size());

    std::map<std::uint64_t, std::vector<const RunRecord *>> groups;
    for (const auto &rec : records)
        groups[rec.spec_hash].push_back(&rec);
    std::size_t aliased = 0;
    for (const auto &[hash, group] : groups) {
        aliased += group.size() > 1;
        for (const RunRecord *rec : group) {
            expectBitIdentical(*group.front(), *rec);
            EXPECT_EQ(group.front()->tokensPerSecond(),
                      rec->tokensPerSecond());
        }
    }
    EXPECT_EQ(aliased, 2u);
}

/** Config validation lives with the workload, not the builder: an
 *  admission axis over a config with no SLO target builds, and the run
 *  refuses it with the offending field named. */
TEST(SweepRunner, AdmissionWithoutATargetFailsAtRunTime)
{
    serve::ServeConfig config;
    config.ctrl.enabled = true;
    config.ctrl.slo.target_p99_s = 0.0;
    const auto specs = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.34))
                           .serving(config)
                           .admissionModes({ctrl::AdmissionMode::Off,
                                            ctrl::AdmissionMode::Reject})
                           .build();
    ASSERT_EQ(specs.size(), 2u);
    SweepRunner runner(SweepRunner::Options{.jobs = 1, .cache = true});
    try {
        runner.run(specs);
        ADD_FAILURE() << "Reject admission ran without a p99 target";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("ctrl.slo.target_p99_s"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace smartinf::exp
