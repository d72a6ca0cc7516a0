/**
 * @file
 * Training loop decoupled from *where* the optimizer step runs. The
 * UpdateBackend abstraction is the seam Smart-Infinity plugs into: the host
 * backend is the ZeRO-Infinity-style CPU update; the CSD backend (core/)
 * runs the same step through the FPGA updater pipeline, optionally with
 * Top-K-compressed gradients (SmartComp). Table IV's accuracy rows are
 * produced by swapping backends under an otherwise identical loop.
 */
#ifndef SMARTINF_NN_TRAINER_H
#define SMARTINF_NN_TRAINER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/dataset.h"
#include "nn/mlp.h"
#include "optim/loss_scaler.h"
#include "optim/optimizer.h"

namespace smartinf::nn {

/** Applies optimizer steps to a flat parameter vector it owns. */
class UpdateBackend
{
  public:
    virtual ~UpdateBackend() = default;

    /** Load the initial FP32 master parameters. */
    virtual void initialize(const float *params, std::size_t n) = 0;

    /** Apply one optimizer step with dense FP32 gradients; @p t is the
     *  1-based step number (Adam's bias correction), so 0 is fatal. */
    virtual void step(const float *grads, std::size_t n, uint64_t t) = 0;

    /** Current FP32 master parameters (after the latest step). */
    virtual const float *masterParams() const = 0;
    virtual std::size_t paramCount() const = 0;

    virtual const char *backendName() const = 0;
};

/** Reference backend: the baseline's host-CPU update. */
class HostBackend final : public UpdateBackend
{
  public:
    /** fatal() on hyperparameters optim::hyperparamErrors() refuses. */
    HostBackend(optim::OptimizerKind kind, const optim::Hyperparams &hp);

    void initialize(const float *params, std::size_t n) override;
    void step(const float *grads, std::size_t n, uint64_t t) override;
    const float *masterParams() const override { return master_.data(); }
    std::size_t paramCount() const override { return master_.size(); }
    const char *backendName() const override { return "host-cpu"; }

  private:
    std::unique_ptr<optim::Optimizer> optimizer_;
    std::vector<float> master_;
    std::vector<std::vector<float>> states_;
};

/** Result of one training run. */
struct TrainReport {
    std::vector<float> epoch_losses;
    double dev_accuracy = 0.0;
    uint64_t steps = 0;
    uint64_t overflow_skips = 0;
};

/** Mini-batch trainer with mixed-precision gradient emulation. */
class Trainer
{
  public:
    struct Config {
        int epochs = 3;
        std::size_t batch_size = 32;
        uint64_t shuffle_seed = 17;
        /**
         * Round-trip gradients through FP16 with dynamic loss scaling, as
         * mixed-precision training does — exercising the overflow-scan
         * constraint the paper discusses (§IV-C).
         */
        bool fp16_gradients = true;
    };

    Trainer(Mlp &model, UpdateBackend &backend, const Config &config);

    /** Train on @p dataset; returns losses and final dev accuracy. */
    TrainReport fit(const Dataset &dataset);

  private:
    Mlp &model_;
    UpdateBackend &backend_;
    Config config_;
    optim::LossScaler scaler_;
};

} // namespace smartinf::nn

#endif // SMARTINF_NN_TRAINER_H
