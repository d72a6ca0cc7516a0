/**
 * @file
 * Customization flow (paper §VI, Fig 8): users plug their own optimizer
 * logic into the framework as an "HLS module". This example implements a
 * signSGD-with-momentum updater, runs the template's performance analyzer
 * on it, and then trains through it near storage — exercising the same
 * path the built-in Adam kernel uses.
 */
#include <cmath>
#include <iostream>

#include "core/smart_infinity.h"

using namespace smartinf;

namespace {

/**
 * signSGD with momentum: m = beta*m + (1-beta)*g; p -= lr * sign(m).
 * Deliberately NOT one of the built-ins — shows the extension surface.
 */
class SignSgdUpdater final : public accel::UpdaterModule
{
  public:
    explicit SignSgdUpdater(const optim::Hyperparams &hp) : hp_(hp) {}

    // Reuse the SGD family so shard layouts allocate one aux state.
    optim::OptimizerKind
    kind() const override
    {
        return optim::OptimizerKind::SgdMomentum;
    }

    void
    processSubgroup(float *master, const float *grad, float *const *states,
                    std::size_t n, uint64_t /*step*/) const override
    {
        float *mmt = states[0];
        for (std::size_t i = 0; i < n; ++i) {
            mmt[i] = optim::axpby(hp_.momentum, mmt[i], 1.0f - hp_.momentum,
                                  grad[i]);
            master[i] -= hp_.lr * (mmt[i] > 0.0f   ? 1.0f
                                   : mmt[i] < 0.0f ? -1.0f
                                                   : 0.0f);
        }
    }

    accel::ModuleFootprint
    footprint() const override
    {
        // Sign extraction is comparator logic: tiny, no DSP multipliers
        // beyond the momentum AXPBY.
        return accel::ModuleFootprint{"updater.signsgd", 72000, 150, 20, 70};
    }

    BytesPerSec modelThroughput() const override { return GBps(9.0); }

  private:
    optim::Hyperparams hp_;
};

} // namespace

int
main()
{
    // 1. Template tooling: performance analyzer + resource fit. (A
    // genuinely new algorithm has no host reference to compare against
    // bit for bit, so it is validated by training instead.)
    optim::Hyperparams hp;
    hp.lr = 0.002f;
    hp.momentum = 0.9f;
    const SignSgdUpdater module(hp);
    const auto perf = accel::analyzeUpdater(module);
    accel::FpgaResourceModel fpga;
    fpga.place(module.footprint());
    std::cout << "signSGD updater: modeled "
              << perf.modeled_throughput / 1e9 << " GB/s ("
              << (perf.keeps_up_with_ssd ? "keeps up with SSD read"
                                         : "SLOWER than SSD read")
              << "), LUT utilization " << fpga.lutUtilization() * 100.0
              << "%\n";

    // 2. Train near-storage with the custom kernel installed manually.
    const auto ds = nn::makeTask(nn::TaskId::MnliLike, 2048, 512, 16, 77);
    nn::Mlp model({16, 48, 3}, nn::Activation::ReLU, 31);

    ClusterConfig config;
    config.num_csds = 2;
    config.optimizer = optim::OptimizerKind::SgdMomentum; // Layout: 1 state.
    config.hyperparams = hp;
    SmartInfinityCluster cluster(config);
    cluster.initialize(model.params(), model.paramCount());
    for (int d = 0; d < cluster.numCsds(); ++d)
        cluster.csd(d).installUpdater(std::make_unique<SignSgdUpdater>(hp));

    nn::Trainer::Config tconfig;
    tconfig.epochs = 10;
    nn::Trainer trainer(model, cluster, tconfig);
    const auto report = trainer.fit(ds);
    std::cout << "signSGD near-storage fine-tune: dev accuracy "
              << report.dev_accuracy * 100.0 << "% after " << report.steps
              << " steps\n";
    return report.dev_accuracy > 0.7 ? 0 : 1;
}
