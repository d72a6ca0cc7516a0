/** @file Tests for the declarative ExperimentBuilder: cross-product
 *  expansion, deterministic ordering, base-config seeding (the old
 *  bench_util footgun), and RunSpec hashing. */
#include <gtest/gtest.h>

#include <set>

#include "exp/experiment.h"

namespace smartinf::exp {
namespace {

using train::ModelSpec;
using train::Strategy;

TEST(ExperimentBuilder, SingleAxisDefaultsToOneSpec)
{
    const auto specs =
        ExperimentBuilder().model(ModelSpec::gpt2(1.0)).build();
    ASSERT_EQ(specs.size(), 1u);
    const auto &sys = specs[0].system;
    const train::SystemConfig defaults;
    EXPECT_EQ(sys.strategy, defaults.strategy);
    EXPECT_EQ(sys.num_devices, defaults.num_devices);
    EXPECT_EQ(sys.num_nodes, defaults.num_nodes);
}

TEST(ExperimentBuilder, ExpandsTheCrossProduct)
{
    ExperimentBuilder b;
    b.models({ModelSpec::gpt2(1.0), ModelSpec::bert(0.34)})
        .strategies({Strategy::Baseline, Strategy::SmartUpdateOpt})
        .devices({2, 6, 10})
        .nodes({1, 2});
    EXPECT_EQ(b.size(), 2u * 2u * 3u * 2u);
    const auto specs = b.build();
    ASSERT_EQ(specs.size(), b.size());

    // Every combination appears exactly once.
    std::set<std::tuple<std::string, int, int, int>> seen;
    for (const auto &spec : specs)
        seen.insert({spec.model.name,
                     static_cast<int>(spec.system.strategy),
                     spec.system.num_devices, spec.system.num_nodes});
    EXPECT_EQ(seen.size(), specs.size());
}

TEST(ExperimentBuilder, OrderIsDeterministicAndNested)
{
    ExperimentBuilder b;
    b.model(ModelSpec::gpt2(1.0))
        .strategies({Strategy::Baseline, Strategy::SmartUpdateOpt})
        .devices({4, 8});
    const auto specs = b.build();
    ASSERT_EQ(specs.size(), 4u);
    // strategies outer, devices inner.
    EXPECT_EQ(specs[0].system.strategy, Strategy::Baseline);
    EXPECT_EQ(specs[0].system.num_devices, 4);
    EXPECT_EQ(specs[1].system.strategy, Strategy::Baseline);
    EXPECT_EQ(specs[1].system.num_devices, 8);
    EXPECT_EQ(specs[2].system.strategy, Strategy::SmartUpdateOpt);
    EXPECT_EQ(specs[2].system.num_devices, 4);

    const auto again = b.build();
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(specs[i].hash(), again[i].hash());
}

/** Regression for the bench_util::runIteration footgun: helpers that
 *  default-construct the fields they don't parameterize silently drop
 *  caller intent. The builder must carry every base field through. */
TEST(ExperimentBuilder, BaseConfigFieldsSurviveTheSweep)
{
    train::SystemConfig base;
    base.num_nodes = 4;
    base.congested_topology = true;
    base.nic_latency = 42e-6;
    base.overlap_grad_sync = false;
    const auto specs = ExperimentBuilder()
                           .base(base)
                           .model(ModelSpec::gpt2(1.0))
                           .strategies({Strategy::Baseline,
                                        Strategy::SmartUpdateOpt})
                           .devices({2, 6})
                           .build();
    ASSERT_EQ(specs.size(), 4u);
    for (const auto &spec : specs) {
        EXPECT_EQ(spec.system.num_nodes, 4);
        EXPECT_TRUE(spec.system.congested_topology);
        EXPECT_DOUBLE_EQ(spec.system.nic_latency, 42e-6);
        EXPECT_FALSE(spec.system.overlap_grad_sync);
    }
}

TEST(ExperimentBuilder, NeedsAtLeastOneModel)
{
    EXPECT_THROW(ExperimentBuilder().devices({2}).build(),
                 std::runtime_error);
}

TEST(RunSpecHash, EqualSpecsHashEqually)
{
    RunSpec a, b;
    a.model = b.model = ModelSpec::gpt2(4.0);
    a.label = "first";
    b.label = "second"; // labels must not affect the hash
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(RunSpecHash, ResultAffectingFieldsChangeTheHash)
{
    RunSpec base;
    base.model = ModelSpec::gpt2(4.0);

    auto hash_with = [&](auto mutate) {
        RunSpec spec = base;
        mutate(spec);
        return spec.hash();
    };
    const auto h0 = base.hash();
    EXPECT_NE(h0, hash_with([](RunSpec &s) { s.system.num_devices = 7; }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) { s.system.num_nodes = 2; }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) {
                  s.system.strategy = Strategy::SmartUpdateOpt;
              }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) { s.train.batch_size = 8; }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) {
                  s.system.calib.fpga_dram_usable = 0.2;
              }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) {
                  s.model = ModelSpec::gpt2(8.4);
              }));
}

TEST(RunSpecHash, NormalizesFieldsThatCannotAffectTheResult)
{
    // The compression ratio only matters under SU+O+C, and NIC/overlap
    // fields only matter with more than one node — shared baselines across
    // figure sweeps must land on one cache entry.
    RunSpec a, b;
    a.model = b.model = ModelSpec::gpt2(4.0);
    a.system.compression_wire_fraction = 0.02;
    b.system.compression_wire_fraction = 0.10;
    EXPECT_EQ(a.hash(), b.hash());

    a.system.strategy = b.system.strategy = Strategy::SmartUpdateOptComp;
    EXPECT_NE(a.hash(), b.hash());

    RunSpec c, d;
    c.model = d.model = ModelSpec::gpt2(4.0);
    c.system.overlap_grad_sync = true;
    d.system.overlap_grad_sync = false;
    EXPECT_EQ(c.hash(), d.hash()); // num_nodes == 1: no sync at all
    c.system.num_nodes = d.system.num_nodes = 2;
    EXPECT_NE(c.hash(), d.hash());
}

TEST(ExperimentBuilder, ServingAxesSweepTheServeConfig)
{
    serve::ServeConfig config;
    const auto specs = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.5))
                           .serving(config)
                           .schedulers(serve::allSchedulerPolicies())
                           .maxBatches({1, 8})
                           .build();
    ASSERT_EQ(specs.size(), 4u);
    for (const auto &spec : specs)
        EXPECT_EQ(spec.workload, train::WorkloadKind::Serving);
    EXPECT_EQ(specs[0].serve.scheduler, serve::SchedulerPolicy::Fifo);
    EXPECT_EQ(specs[0].serve.max_batch, 1);
    EXPECT_EQ(specs[3].serve.scheduler, serve::SchedulerPolicy::Continuous);
    EXPECT_EQ(specs[3].serve.max_batch, 8);
}

TEST(ExperimentBuilder, ServingAxesOnATrainingSweepAreFatal)
{
    // The hash normalizes serving knobs out of training runs, so such a
    // sweep would emit duplicate specs — build() refuses instead.
    auto builder = ExperimentBuilder()
                       .model(ModelSpec::gpt2(0.5))
                       .arrivalRates({0.1, 0.2});
    EXPECT_THROW(builder.build(), std::runtime_error);
}

TEST(ExperimentBuilder, ModeGatedAxesNeedTheirModeEnabled)
{
    // Same duplicate-hash failure mode per axis: concurrency is
    // normalized out of open-loop specs and the KV budgets out of
    // kv-disabled specs, so sweeping them without the enabling mode
    // would hand back one aliased cached result per row.
    serve::ServeConfig open_loop;
    auto closed_axis = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.5))
                           .serving(open_loop)
                           .concurrencies({1, 2, 4});
    EXPECT_THROW(closed_axis.build(), std::runtime_error);

    auto kv_axis = ExperimentBuilder()
                       .model(ModelSpec::gpt2(0.5))
                       .serving(open_loop)
                       .hbmBudgets({GiB(1.0), GiB(4.0)});
    EXPECT_THROW(kv_axis.build(), std::runtime_error);

    // With the modes enabled both axes expand normally.
    serve::ServeConfig closed = open_loop;
    closed.client_mode = serve::ClientMode::ClosedLoop;
    EXPECT_EQ(ExperimentBuilder()
                  .model(ModelSpec::gpt2(0.5))
                  .serving(closed)
                  .concurrencies({1, 2, 4})
                  .build()
                  .size(),
              3u);
    serve::ServeConfig kv = open_loop;
    kv.kv.enabled = true;
    EXPECT_EQ(ExperimentBuilder()
                  .model(ModelSpec::gpt2(0.5))
                  .serving(kv)
                  .hbmBudgets({GiB(1.0), GiB(4.0)})
                  .build()
                  .size(),
              2u);
}

TEST(ExperimentBuilder, FaultAxesSweepTheFaultConfig)
{
    fault::FaultConfig base;
    base.enabled = true;
    base.node_mtbf = 300.0;
    const auto specs = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.5))
                           .faults(base)
                           .devices({2, 4})
                           .checkpointIntervals({1, 2, 4})
                           .build();
    ASSERT_EQ(specs.size(), 6u);
    // devices outer, checkpointIntervals inner; the base survives.
    EXPECT_EQ(specs[0].system.num_devices, 2);
    EXPECT_EQ(specs[0].fault.checkpoint_interval, 1);
    EXPECT_EQ(specs[2].fault.checkpoint_interval, 4);
    EXPECT_EQ(specs[3].system.num_devices, 4);
    for (const auto &spec : specs) {
        EXPECT_TRUE(spec.fault.enabled);
        EXPECT_DOUBLE_EQ(spec.fault.node_mtbf, 300.0);
    }

    // Every combination lands on its own cache entry.
    std::set<std::uint64_t> hashes;
    for (const auto &spec : specs)
        hashes.insert(spec.hash());
    EXPECT_EQ(hashes.size(), specs.size());

    // retryPolicies writes fault.retry_limit of a serving sweep.
    const auto serving = ExperimentBuilder()
                             .model(ModelSpec::gpt2(0.5))
                             .serving(serve::ServeConfig{})
                             .faults(base)
                             .retryPolicies({1, 3})
                             .build();
    ASSERT_EQ(serving.size(), 2u);
    EXPECT_EQ(serving[0].fault.retry_limit, 1);
    EXPECT_EQ(serving[1].fault.retry_limit, 3);
    EXPECT_DOUBLE_EQ(serving[1].fault.node_mtbf, 300.0);
    EXPECT_NE(serving[0].hash(), serving[1].hash());
}

TEST(ExperimentBuilder, FaultAxesNeedTheirModeEnabled)
{
    // Fault axes without an enabled fault base would expand to aliased
    // duplicates (the hash normalizes everything out while disabled).
    auto no_base = ExperimentBuilder()
                       .model(ModelSpec::gpt2(0.5))
                       .checkpointIntervals({1, 2});
    EXPECT_THROW(no_base.build(), std::runtime_error);

    fault::FaultConfig enabled;
    enabled.enabled = true;

    // checkpointIntervals is training-only (serving normalizes it out).
    auto ckpt_on_serving = ExperimentBuilder()
                               .model(ModelSpec::gpt2(0.5))
                               .serving(serve::ServeConfig{})
                               .faults(enabled)
                               .checkpointIntervals({1, 2});
    EXPECT_THROW(ckpt_on_serving.build(), std::runtime_error);

    // retryPolicies needs a serving sweep with an armed crash process.
    auto retry_on_training = ExperimentBuilder()
                                 .model(ModelSpec::gpt2(0.5))
                                 .faults(enabled)
                                 .retryPolicies({1, 3});
    EXPECT_THROW(retry_on_training.build(), std::runtime_error);
    auto retry_unarmed = ExperimentBuilder()
                             .model(ModelSpec::gpt2(0.5))
                             .serving(serve::ServeConfig{})
                             .faults(enabled)
                             .retryPolicies({1, 3});
    EXPECT_THROW(retry_unarmed.build(), std::runtime_error);

    // A base with node_mtbf set arms the crash process for retryPolicies.
    fault::FaultConfig armed = enabled;
    armed.node_mtbf = 120.0;
    EXPECT_EQ(ExperimentBuilder()
                  .model(ModelSpec::gpt2(0.5))
                  .serving(serve::ServeConfig{})
                  .faults(armed)
                  .retryPolicies({1, 3})
                  .build()
                  .size(),
              2u);
}

/** The one inert-axis rule: a swept axis whose every value leaves every
 *  spec's hash unchanged would hand back one aliased result per row, so
 *  build() refuses it and names the axis. None of these sweeps had a
 *  hand-written guard of its own. */
TEST(ExperimentBuilder, InertAxesAreRefused)
{
    const auto gpt2 = ModelSpec::gpt2(0.5);
    serve::ServeConfig closed;
    closed.client_mode = serve::ClientMode::ClosedLoop;
    serve::ServeConfig uniform_out;
    uniform_out.output_lengths.kind = serve::LengthDistKind::Uniform;
    struct Case {
        const char *axis;
        ExperimentBuilder builder;
    };
    const std::vector<Case> cases = {
        // The gradient ratio only shapes SU+O+C training.
        {"compressionFractions",
         ExperimentBuilder()
             .model(gpt2)
             .strategy(Strategy::Baseline)
             .compressionFractions({0.02, 0.10})},
        // One node exchanges no gradients.
        {"overlapGradSync",
         ExperimentBuilder().model(gpt2).overlapGradSync({true, false})},
        // Closed-loop arrivals are reactive.
        {"arrivalRates",
         ExperimentBuilder().model(gpt2).serving(closed).arrivalRates(
             {0.05, 0.1})},
        // A Uniform output distribution ignores the fixed token count.
        {"outputTokenCounts",
         ExperimentBuilder()
             .model(gpt2)
             .serving(uniform_out)
             .outputTokenCounts({16, 32})},
        // Serving runs no optimizer.
        {"optimizers",
         ExperimentBuilder()
             .model(gpt2)
             .serving(serve::ServeConfig{})
             .optimizers({optim::OptimizerKind::Adam,
                          optim::OptimizerKind::SgdMomentum})},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.axis);
        EXPECT_EQ(c.builder.size(), 2u);
        try {
            c.builder.build();
            ADD_FAILURE() << "an inert " << c.axis << " axis expanded";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(c.axis), std::string::npos)
                << e.what();
        }
    }
}

/** The converse: an axis the hash consumes expands, even when only some
 *  of its values matter (partly inert axes alias only where they must). */
TEST(ExperimentBuilder, AxesTheHashConsumesExpand)
{
    // The admission mode is consumed once the control plane is on.
    serve::ServeConfig attainment;
    attainment.ctrl.enabled = true;
    attainment.ctrl.autoscale.enabled = true;
    attainment.ctrl.slo.target_p99_s = 0.5;
    const auto slo = ExperimentBuilder()
                         .model(ModelSpec::gpt2(0.5))
                         .serving(attainment)
                         .admissionModes({ctrl::AdmissionMode::Reject,
                                          ctrl::AdmissionMode::Defer})
                         .build();
    ASSERT_EQ(slo.size(), 2u);
    EXPECT_NE(slo[0].hash(), slo[1].hash());

    // Fig 16's shape: the ratio axis matters for SU+O+C only, so the two
    // BASE rows share one hash.
    const auto fig16 =
        ExperimentBuilder()
            .model(ModelSpec::gpt2(0.5))
            .strategies({Strategy::Baseline, Strategy::SmartUpdateOptComp})
            .compressionFractions({0.02, 0.10})
            .build();
    ASSERT_EQ(fig16.size(), 4u);
    std::set<std::uint64_t> hashes;
    for (const auto &spec : fig16)
        hashes.insert(spec.hash());
    EXPECT_EQ(hashes.size(), 3u);
    EXPECT_EQ(fig16[0].hash(), fig16[1].hash());
}

TEST(RunSpec, DescribeNamesTheInterestingFields)
{
    RunSpec spec;
    spec.model = ModelSpec::gpt2(4.0);
    spec.system.strategy = Strategy::SmartUpdateOpt;
    spec.system.num_devices = 8;
    spec.system.num_nodes = 4;
    const auto text = spec.describe();
    EXPECT_NE(text.find("SU+O"), std::string::npos);
    EXPECT_NE(text.find("d8"), std::string::npos);
    EXPECT_NE(text.find("n4"), std::string::npos);
}

} // namespace
} // namespace smartinf::exp
