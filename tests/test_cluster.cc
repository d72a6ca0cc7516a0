/** @file Tests for the SmartInfinityCluster functional backend. */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/topk.h"
#include "core/smart_infinity.h"

namespace smartinf {
namespace {

std::vector<float>
randomVector(std::size_t n, uint64_t seed, double scale = 1.0)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, scale));
    return v;
}

TEST(Cluster, ShardsCoverAllParameters)
{
    ClusterConfig config;
    config.num_csds = 3;
    SmartInfinityCluster cluster(config);
    const auto params = randomVector(1000, 1);
    cluster.initialize(params.data(), params.size());
    EXPECT_EQ(cluster.numCsds(), 3);
    std::size_t total = 0;
    for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(cluster.shardOffset(d), total);
        total += cluster.shardLength(d);
    }
    EXPECT_EQ(total, 1000u);
}

TEST(Cluster, ShardBoundariesFollowTheCeilRule)
{
    // Where every shard can take ceil(n/c) elements, the boundaries are
    // the ceil rule's: shard d starts at d * ceil(n/c).
    const std::size_t n = 10007;
    const auto params = randomVector(n, 1);
    for (int csds = 1; csds <= 8; ++csds) {
        ClusterConfig config;
        config.num_csds = csds;
        SmartInfinityCluster cluster(config);
        cluster.initialize(params.data(), n);
        const std::size_t per = (n + csds - 1) / csds;
        for (int d = 0; d < csds; ++d) {
            const std::size_t offset = std::min(d * per, n);
            EXPECT_EQ(cluster.shardOffset(d), offset) << csds << "/" << d;
            EXPECT_EQ(cluster.shardLength(d), std::min(per, n - offset))
                << csds << "/" << d;
        }
    }
}

TEST(Cluster, UnevenShardCountsMatchHost)
{
    // The ceil rule alone would leave a later shard empty here (9 on 4 is
    // 3, 3, 3, 0); each shard instead keeps at least one element.
    struct Case {
        std::size_t n;
        int csds;
    };
    for (const Case c : {Case{9, 4}, Case{6, 4}, Case{4, 3}}) {
        SCOPED_TRACE(::testing::Message() << c.n << " on " << c.csds);
        const auto params = randomVector(c.n, 41);
        ClusterConfig config;
        config.num_csds = c.csds;
        SmartInfinityCluster cluster(config);
        cluster.initialize(params.data(), c.n);
        nn::HostBackend host(optim::OptimizerKind::Adam, optim::Hyperparams{});
        host.initialize(params.data(), c.n);
        for (uint64_t t = 1; t <= 3; ++t) {
            const auto grads = randomVector(c.n, 50 + t, 0.01);
            cluster.step(grads.data(), c.n, t);
            host.step(grads.data(), c.n, t);
        }
        for (std::size_t i = 0; i < c.n; ++i)
            EXPECT_EQ(std::bit_cast<uint32_t>(cluster.masterParams()[i]),
                      std::bit_cast<uint32_t>(host.masterParams()[i]))
                << i;
    }
}

TEST(Cluster, FewerParametersThanCsdsAreRefused)
{
    const auto params = randomVector(3, 42);
    ClusterConfig config;
    config.num_csds = 4;
    SmartInfinityCluster cluster(config);
    try {
        cluster.initialize(params.data(), params.size());
        ADD_FAILURE() << "3 parameters on 4 CSDs were accepted";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("3 parameters"), std::string::npos) << what;
        EXPECT_NE(what.find("4 CSDs"), std::string::npos) << what;
    }
}

TEST(Cluster, SmartUpdateIsAlgorithmicallyIdenticalToHost)
{
    // The paper SVII-J: "SmartUpdate is algorithmically identical to the
    // baseline training, so the accuracy is exactly the same."
    const std::size_t n = 5000;
    const auto params = randomVector(n, 2);

    ClusterConfig config;
    config.num_csds = 4;
    config.subgroup_elems = 333;
    SmartInfinityCluster cluster(config);
    cluster.initialize(params.data(), n);

    nn::HostBackend host(optim::OptimizerKind::Adam, optim::Hyperparams{});
    host.initialize(params.data(), n);

    for (uint64_t t = 1; t <= 4; ++t) {
        const auto grads = randomVector(n, 100 + t, 0.01);
        cluster.step(grads.data(), n, t);
        host.step(grads.data(), n, t);
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(cluster.masterParams()[i], host.masterParams()[i]) << i;
}

TEST(Cluster, CompressionReducesWireBytes)
{
    const std::size_t n = 10000;
    const auto params = randomVector(n, 5);
    const auto grads = randomVector(n, 6, 0.01);

    ClusterConfig dense_cfg;
    dense_cfg.num_csds = 2;
    SmartInfinityCluster dense(dense_cfg);
    dense.initialize(params.data(), n);
    dense.step(grads.data(), n, 1);
    EXPECT_DOUBLE_EQ(dense.lastGradWireBytes(), n * 4.0);

    ClusterConfig comp_cfg = dense_cfg;
    comp_cfg.compression = true;
    comp_cfg.keep_fraction = 0.01;
    SmartInfinityCluster comp(comp_cfg);
    comp.initialize(params.data(), n);
    comp.step(grads.data(), n, 1);
    // Top 1% -> 2% wire volume (paper's convention).
    EXPECT_NEAR(comp.lastGradWireBytes() / dense.lastGradWireBytes(), 0.02,
                0.002);
}

TEST(Cluster, CompressionApproximatesDenseUpdate)
{
    const std::size_t n = 4000;
    const auto params = randomVector(n, 7);
    const auto grads = randomVector(n, 8, 0.01);

    ClusterConfig comp_cfg;
    comp_cfg.num_csds = 2;
    comp_cfg.compression = true;
    comp_cfg.keep_fraction = 0.25;
    SmartInfinityCluster comp(comp_cfg);
    comp.initialize(params.data(), n);
    comp.step(grads.data(), n, 1);

    nn::HostBackend host(optim::OptimizerKind::Adam, optim::Hyperparams{});
    host.initialize(params.data(), n);
    host.step(grads.data(), n, 1);

    // Parameters whose gradient was kept move identically; dropped ones
    // stay put. Either way the drift vs. dense is bounded by one lr step.
    const float lr = optim::Hyperparams{}.lr;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(comp.masterParams()[i], host.masterParams()[i],
                    1.05 * lr);
    }
}

/**
 * The shards run concurrently, each on its own worker; that must change
 * nothing. A stepped cluster equals a host backend fed each shard's Top-K
 * gradients, bit for bit, and so does the same cluster re-initialized
 * (which restarts its workers) and stepped again.
 */
TEST(Cluster, CompressedStepMatchesPerShardHostReference)
{
    const std::size_t n = 10007; // divisible by none of the CSD counts
    const double keep = 0.05;
    for (int csds : {1, 3, 4, 7}) {
        for (auto kind : {optim::OptimizerKind::Adam,
                          optim::OptimizerKind::SgdMomentum}) {
            SCOPED_TRACE(::testing::Message()
                         << "csds=" << csds << " "
                         << optim::optimizerName(kind));
            ClusterConfig config;
            config.num_csds = csds;
            config.optimizer = kind;
            config.compression = true;
            config.keep_fraction = keep;
            config.subgroup_elems = 500;
            SmartInfinityCluster cluster(config);

            for (uint64_t init_seed : {20, 21}) {
                const auto params = randomVector(n, init_seed);
                cluster.initialize(params.data(), n);
                nn::HostBackend host(kind, optim::Hyperparams{});
                host.initialize(params.data(), n);

                for (uint64_t t = 1; t <= 3; ++t) {
                    const auto grads = randomVector(n, 30 + t, 0.01);
                    std::vector<float> dense(n);
                    double wire = 0.0;
                    for (int d = 0; d < csds; ++d) {
                        const std::size_t off = cluster.shardOffset(d);
                        const std::size_t len = cluster.shardLength(d);
                        const auto sparse =
                            compress::TopKCompressor(keep).compress(
                                grads.data() + off, len);
                        compress::TopKCompressor::decompress(
                            sparse, dense.data() + off, len);
                        wire += static_cast<double>(sparse.wireBytes());
                    }
                    cluster.step(grads.data(), n, t);
                    host.step(dense.data(), n, t);
                    ASSERT_EQ(cluster.lastGradWireBytes(), wire);
                    for (std::size_t i = 0; i < n; ++i)
                        ASSERT_EQ(
                            std::bit_cast<uint32_t>(cluster.masterParams()[i]),
                            std::bit_cast<uint32_t>(host.masterParams()[i]))
                            << "step " << t << " param " << i;
                }
            }
        }
    }
}

TEST(Cluster, InstallsDecompressorOnlyWhenCompressing)
{
    const auto params = randomVector(100, 9);
    ClusterConfig plain;
    plain.num_csds = 1;
    SmartInfinityCluster a(plain);
    a.initialize(params.data(), params.size());
    EXPECT_EQ(a.csd(0).decompressor(), nullptr);

    ClusterConfig comp = plain;
    comp.compression = true;
    SmartInfinityCluster b(comp);
    b.initialize(params.data(), params.size());
    EXPECT_NE(b.csd(0).decompressor(), nullptr);
}

TEST(Cluster, OtherOptimizersSupported)
{
    const std::size_t n = 1500;
    const auto params = randomVector(n, 11);
    const auto grads = randomVector(n, 12, 0.01);
    for (auto kind :
         {optim::OptimizerKind::SgdMomentum, optim::OptimizerKind::AdaGrad,
          optim::OptimizerKind::AdamW}) {
        ClusterConfig config;
        config.num_csds = 2;
        config.optimizer = kind;
        SmartInfinityCluster cluster(config);
        cluster.initialize(params.data(), n);
        cluster.step(grads.data(), n, 1);

        nn::HostBackend host(kind, optim::Hyperparams{});
        host.initialize(params.data(), n);
        host.step(grads.data(), n, 1);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(cluster.masterParams()[i], host.masterParams()[i])
                << optim::optimizerName(kind) << " " << i;
    }
}

/** FNV-1a (64-bit) over the bit patterns of @p n floats. */
uint64_t
fnv1a(const float *v, std::size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        uint32_t bits = std::bit_cast<uint32_t>(v[i]);
        for (int b = 0; b < 4; ++b, bits >>= 8)
            h = (h ^ (bits & 0xffu)) * 0x100000001b3ull;
    }
    return h;
}

/**
 * Pins the functional SU+O+C path's exact bits. The host-identity tests
 * compare the updater with the host reference, so a kernel change that
 * moves both together passes them; this committed hash does not. Inputs
 * come from Rng::uniform (no libm), so only the Adam kernel's own powf
 * and sqrt shape the result.
 */
TEST(Cluster, FunctionalStepBitsArePinned)
{
    const std::size_t n = std::size_t{1} << 16;
    Rng rng(2024);
    std::vector<float> params(n), grads(n);
    for (float &p : params)
        p = static_cast<float>(rng.uniform(-0.05, 0.05));

    ClusterConfig config;
    config.num_csds = 3;
    config.compression = true;
    SmartInfinityCluster cluster(config);
    cluster.initialize(params.data(), n);
    std::vector<double> wire;
    for (uint64_t t = 1; t <= 10; ++t) {
        for (float &g : grads)
            g = static_cast<float>(rng.uniform(-1e-2, 1e-2));
        cluster.step(grads.data(), n, t);
        wire.push_back(cluster.lastGradWireBytes());
    }
    EXPECT_EQ(wire, std::vector<double>(10, 5256.0));
    EXPECT_EQ(fnv1a(cluster.masterParams(), n), 0x152bf20066eddafeull);
}

/**
 * With SmartComp the dense gradient never reaches the SSD: set-up writes
 * the master parameters and the zeroed aux states, and every step reads
 * and writes exactly those, so the shard's gradient region is never
 * touched (and, being unwritten, costs no host memory).
 */
TEST(Cluster, CompressedStepsMoveOnlyStateBytes)
{
    const std::size_t n = 10007;
    const auto params = randomVector(n, 21);
    const auto grads = randomVector(n, 22, 0.01);
    for (auto kind :
         {optim::OptimizerKind::Adam, optim::OptimizerKind::SgdMomentum}) {
        const double states = 1.0 + optim::auxStateCount(kind);
        for (int csds : {1, 3}) {
            ClusterConfig config;
            config.num_csds = csds;
            config.optimizer = kind;
            config.compression = true;
            config.subgroup_elems = 1000;
            SmartInfinityCluster cluster(config);
            cluster.initialize(params.data(), n);
            for (uint64_t t = 0; t <= 3; ++t) {
                if (t > 0)
                    cluster.step(grads.data(), n, t);
                for (int d = 0; d < csds; ++d) {
                    const auto &ssd = cluster.csd(d).ssd();
                    const double shard =
                        states * cluster.shardLength(d) * sizeof(float);
                    EXPECT_EQ(ssd.bytesWritten(), shard * (1 + t))
                        << optim::optimizerName(kind) << " " << csds << "/"
                        << d << " after step " << t;
                    EXPECT_EQ(ssd.bytesRead(), shard * t)
                        << optim::optimizerName(kind) << " " << csds << "/"
                        << d << " after step " << t;
                }
            }
        }
    }
}

/** An updater kernel that always throws. */
class FaultyUpdater final : public accel::UpdaterModule
{
  public:
    optim::OptimizerKind kind() const override
    {
        return optim::OptimizerKind::Adam;
    }
    void
    processSubgroup(float *, const float *, float *const *, std::size_t,
                    uint64_t) const override
    {
        throw std::runtime_error("kernel fault");
    }
    accel::ModuleFootprint footprint() const override { return {}; }
    BytesPerSec modelThroughput() const override { return 0.0; }
};

TEST(Cluster, WorkerKernelExceptionIsRethrownOnTheCaller)
{
    // A kernel fault on a worker's shard reaches step()'s caller; the
    // workers stay parked, so later steps run and the cluster destructs
    // cleanly.
    const std::size_t n = 3000;
    const auto params = randomVector(n, 21);
    const auto grads = randomVector(n, 22, 0.01);
    ClusterConfig config;
    config.num_csds = 3;
    config.subgroup_elems = 256;
    SmartInfinityCluster cluster(config);
    cluster.initialize(params.data(), n);
    cluster.csd(2).installUpdater(std::make_unique<FaultyUpdater>());
    EXPECT_THROW(cluster.step(grads.data(), n, 1), std::runtime_error);
    EXPECT_THROW(cluster.step(grads.data(), n, 2), std::runtime_error);
    cluster.csd(2).installUpdater(
        accel::makeUpdater(config.optimizer, config.hyperparams));
    cluster.step(grads.data(), n, 3);
}

TEST(Cluster, StepZeroIsRejectedBeforeAnyParameterMoves)
{
    // Adam's bias correction divides by 1 - beta^t: a step at t = 0 would
    // turn every parameter into NaN. Both backends refuse it up front.
    const std::size_t n = 1024;
    const auto params = randomVector(n, 31);
    const auto grads = randomVector(n, 32, 0.01);
    auto expectUntouched = [&](const float *master) {
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(std::bit_cast<uint32_t>(master[i]),
                      std::bit_cast<uint32_t>(params[i]))
                << i;
    };

    nn::HostBackend host(optim::OptimizerKind::Adam, optim::Hyperparams{});
    host.initialize(params.data(), n);
    EXPECT_THROW(host.step(grads.data(), n, 0), std::runtime_error);
    expectUntouched(host.masterParams());

    ClusterConfig config;
    config.num_csds = 2;
    SmartInfinityCluster cluster(config);
    cluster.initialize(params.data(), n);
    EXPECT_THROW(cluster.step(grads.data(), n, 0), std::runtime_error);
    expectUntouched(cluster.masterParams());
}

TEST(Cluster, HyperparamsThatDestroyEveryParameterAreRefused)
{
    // Each of these would turn every parameter non-finite on the first
    // step. Both backends refuse them up front, naming the field.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    struct Case {
        const char *field;
        optim::OptimizerKind kind;
        float optim::Hyperparams::*member;
        float value;
    };
    using K = optim::OptimizerKind;
    using H = optim::Hyperparams;
    const Case cases[] = {
        {"lr", K::Adam, &H::lr, nan},
        {"lr", K::Adam, &H::lr, inf},
        {"beta1", K::Adam, &H::beta1, nan},
        {"beta1", K::Adam, &H::beta1, 1.0f},
        {"beta2", K::Adam, &H::beta2, 1.0f},
        {"weight_decay", K::AdamW, &H::weight_decay, nan},
        {"momentum", K::SgdMomentum, &H::momentum, nan},
        {"epsilon", K::Adam, &H::epsilon, 0.0f},
        {"epsilon", K::AdaGrad, &H::epsilon, 0.0f},
    };
    auto expectRefused = [](const auto &construct, const std::string &name) {
        try {
            construct();
            ADD_FAILURE() << "accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message() << optim::optimizerName(c.kind)
                                          << " " << c.field << " = "
                                          << c.value);
        optim::Hyperparams hp;
        hp.*c.member = c.value;
        const std::string name = std::string("hyperparams.") + c.field;
        expectRefused([&] { nn::HostBackend host(c.kind, hp); }, name);
        ClusterConfig config;
        config.optimizer = c.kind;
        config.hyperparams = hp;
        expectRefused([&] { SmartInfinityCluster cluster(config); }, name);
    }
}

TEST(Cluster, UsageErrorsAreFatal)
{
    ClusterConfig config;
    SmartInfinityCluster cluster(config);
    const auto grads = randomVector(10, 13);
    EXPECT_THROW(cluster.step(grads.data(), 10, 1), std::runtime_error);
    EXPECT_THROW(cluster.masterParams(), std::runtime_error);

    ClusterConfig bad;
    bad.num_csds = 0;
    EXPECT_THROW(SmartInfinityCluster{bad}, std::runtime_error);
}

} // namespace
} // namespace smartinf
