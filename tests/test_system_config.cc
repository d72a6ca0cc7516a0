/** @file Tests for the strategy list and the actionable config validation
 *  added with the unified experiment API. */
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/smart_infinity.h"
#include "train/system_config.h"

namespace smartinf::train {
namespace {

TEST(StrategyName, AllStrategiesCoversTheEnum)
{
    // Exhaustiveness guard: update allStrategies() when the enum grows.
    const auto all = allStrategies();
    EXPECT_EQ(all.size(), 4u);
    EXPECT_EQ(all.front(), Strategy::Baseline);
    EXPECT_EQ(all.back(), Strategy::SmartUpdateOptComp);
}

TEST(SystemConfigValidate, DefaultIsValid)
{
    EXPECT_TRUE(SystemConfig{}.validate().empty());
}

TEST(SystemConfigValidate, ReportsEveryViolation)
{
    SystemConfig sc;
    sc.num_devices = 0;
    sc.num_gpus = -1;
    sc.num_nodes = 0;
    const auto errors = sc.validate();
    ASSERT_EQ(errors.size(), 3u);
    EXPECT_NE(errors[0].find("num_devices"), std::string::npos);
    EXPECT_NE(errors[0].find("got 0"), std::string::npos);
    EXPECT_NE(errors[1].find("num_gpus"), std::string::npos);
    EXPECT_NE(errors[2].find("num_nodes"), std::string::npos);
}

TEST(SystemConfigValidate, ChecksCompressionOnlyForSmartComp)
{
    SystemConfig sc;
    sc.compression_wire_fraction = 0.0;
    EXPECT_TRUE(sc.validate().empty()); // Baseline ignores the fraction
    sc.strategy = Strategy::SmartUpdateOptComp;
    const auto errors = sc.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("compression_wire_fraction"),
              std::string::npos);
}

TEST(SystemConfigValidate, ChecksNicSpecsOnlyForMultiNode)
{
    SystemConfig sc;
    sc.nic_bandwidth = 0.0;
    EXPECT_TRUE(sc.validate().empty()); // single node never touches NICs
    sc.num_nodes = 4;
    const auto errors = sc.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("nic_bandwidth"), std::string::npos);

    // An infinite NIC latency would make every multi-node iteration
    // infinite.
    sc.nic_bandwidth = SystemConfig{}.nic_bandwidth;
    sc.nic_latency = std::numeric_limits<double>::infinity();
    const auto latency_errors = sc.validate();
    ASSERT_EQ(latency_errors.size(), 1u);
    EXPECT_NE(latency_errors[0].find("nic_latency"), std::string::npos);
}

TEST(SystemConfigValidate, ChecksEveryCalibrationField)
{
    // Each hole here once passed validate() and then died inside the run
    // (negative job latency, a resource panic, link construction) or
    // returned an infinite iteration time.
    struct Field {
        const char *name;
        double Calibration::*member;
        bool zero_ok; ///< latencies may be 0
    };
    const Field fields[] = {
        {"ssd_read", &Calibration::ssd_read, false},
        {"ssd_write", &Calibration::ssd_write, false},
        {"raid_efficiency", &Calibration::raid_efficiency, false},
        {"device_link", &Calibration::device_link, false},
        {"host_shared", &Calibration::host_shared, false},
        {"host_memory", &Calibration::host_memory, false},
        {"gpu_link", &Calibration::gpu_link, false},
        {"p2p_read", &Calibration::p2p_read, false},
        {"p2p_write", &Calibration::p2p_write, false},
        {"cpu_update", &Calibration::cpu_update, false},
        {"gpu_compress", &Calibration::gpu_compress, false},
        {"fpga_updater", &Calibration::fpga_updater, false},
        {"fpga_decomp", &Calibration::fpga_decomp, false},
        {"transfer_latency", &Calibration::transfer_latency, true},
        {"kernel_launch", &Calibration::kernel_launch, true},
        {"fpga_dram_usable", &Calibration::fpga_dram_usable, false},
    };
    static_assert(sizeof(Calibration) == 16 * sizeof(double),
                  "a Calibration field was added: list it here and in "
                  "SystemConfig::validate()");
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {std::numeric_limits<double>::quiet_NaN(), inf,
                             -inf, 0.0, -1.0};
    for (const Field &field : fields) {
        for (double v : values) {
            SystemConfig sc;
            sc.calib.*field.member = v;
            const auto errors = sc.validate();
            if (v == 0.0 && field.zero_ok) {
                EXPECT_TRUE(errors.empty()) << field.name << " = 0";
                continue;
            }
            ASSERT_EQ(errors.size(), 1u) << field.name << " = " << v;
            EXPECT_NE(errors[0].find(std::string("calib.") + field.name),
                      std::string::npos)
                << errors[0];
        }
    }
}

TEST(SystemConfigValidate, EngineConstructionRejectsInvalidConfigs)
{
    SystemConfig sc;
    sc.num_devices = 0;
    EXPECT_THROW(makeEngine(ModelSpec::gpt2(1.0), TrainConfig{}, sc),
                 std::runtime_error);
}

} // namespace
} // namespace smartinf::train

namespace smartinf {
namespace {

TEST(ClusterConfigValidate, DefaultIsValid)
{
    EXPECT_TRUE(ClusterConfig{}.validate().empty());
}

TEST(ClusterConfigValidate, ReportsActionableErrors)
{
    ClusterConfig config;
    config.num_csds = 0;
    config.keep_fraction = 1.5;
    config.subgroup_elems = 0;
    const auto errors = config.validate();
    ASSERT_EQ(errors.size(), 3u);
    EXPECT_NE(errors[0].find("num_csds"), std::string::npos);
    EXPECT_NE(errors[1].find("keep_fraction"), std::string::npos);
    EXPECT_NE(errors[2].find("subgroup_elems"), std::string::npos);
}

TEST(ClusterConfigValidate, ConstructorUsesValidate)
{
    ClusterConfig config;
    config.keep_fraction = 0.0;
    EXPECT_THROW(SmartInfinityCluster{config}, std::runtime_error);
}

} // namespace
} // namespace smartinf
