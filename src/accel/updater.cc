#include "accel/updater.h"

#include "common/logging.h"
#include "csd/smartssd.h"

namespace smartinf::accel {

namespace {

/** The built-in kernel of every optimizer kind: the host rule plus data. */
class BuiltinUpdater final : public UpdaterModule
{
  public:
    BuiltinUpdater(optim::OptimizerKind kind, const optim::Hyperparams &hp)
        : optimizer_(kind, hp)
    {
    }

    optim::OptimizerKind kind() const override { return optimizer_.kind(); }

    void
    processSubgroup(float *master, const float *grad, float *const *states,
                    std::size_t n, uint64_t step) const override
    {
        optimizer_.step(master, grad, states, n, step);
    }

    ModuleFootprint
    footprint() const override
    {
        switch (kind()) {
          case optim::OptimizerKind::Adam:
            // Calibrated to Table III: Adam updater = 33.66% LUT, 27.13%
            // BRAM, 34.38% URAM, 11.03% DSP of the KU15P.
            return {"updater.adam", 175947, 267, 44, 217};
          case optim::OptimizerKind::AdamW:
            // Adam plus the decoupled-decay AXPBY.
            return {"updater.adamw", 175947 + 2900, 267, 44, 217 + 8};
          case optim::OptimizerKind::SgdMomentum:
            // One moving average instead of two: roughly 60% of Adam's
            // logic.
            return {"updater.sgd", 108000, 190, 28, 132};
          case optim::OptimizerKind::AdaGrad:
            // Needs the rsqrt path but only one state: between SGD and
            // Adam.
            return {"updater.adagrad", 126000, 205, 30, 168};
        }
        panic("unknown optimizer kind");
    }

    BytesPerSec
    modelThroughput() const override
    {
        switch (kind()) {
          case optim::OptimizerKind::Adam:
            // Fig 14: Adam updater sustains > 7 GB/s of state stream.
            return csd::smartssd::kAdamUpdater;
          case optim::OptimizerKind::AdamW: return GBps(7.0);
          case optim::OptimizerKind::SgdMomentum: return GBps(8.4);
          case optim::OptimizerKind::AdaGrad: return GBps(7.9);
        }
        panic("unknown optimizer kind");
    }

  private:
    optim::Optimizer optimizer_;
};

} // namespace

std::unique_ptr<UpdaterModule>
makeUpdater(optim::OptimizerKind kind, const optim::Hyperparams &hp)
{
    return std::make_unique<BuiltinUpdater>(kind, hp);
}

} // namespace smartinf::accel
