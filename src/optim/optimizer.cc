#include "optim/optimizer.h"

#include "common/logging.h"

namespace smartinf::optim {

const char *
optimizerName(OptimizerKind kind)
{
    switch (kind) {
      case OptimizerKind::Adam: return "Adam";
      case OptimizerKind::AdamW: return "AdamW";
      case OptimizerKind::SgdMomentum: return "SGD";
      case OptimizerKind::AdaGrad: return "AdaGrad";
    }
    return "?";
}

int
auxStateCount(OptimizerKind kind)
{
    switch (kind) {
      case OptimizerKind::Adam:
      case OptimizerKind::AdamW:
        return 2;
      case OptimizerKind::SgdMomentum:
      case OptimizerKind::AdaGrad:
        return 1;
    }
    return 0;
}

double
optimizerStateVolumeInM(OptimizerKind kind)
{
    // (1 master + aux) FP32 variables, each 4 B = 2M per variable where
    // M counts FP16 bytes (2 B/param).
    return 2.0 * (1 + auxStateCount(kind));
}

namespace {

class AdamOptimizer final : public Optimizer
{
  public:
    explicit AdamOptimizer(const Hyperparams &hp) : Optimizer(hp) {}
    OptimizerKind kind() const override { return OptimizerKind::Adam; }

    void
    step(float *master, const float *grad, float *const *states,
         std::size_t n, uint64_t step) const override
    {
        float *mmt = states[0];
        float *var = states[1];
        const Hyperparams hp = hp_;
        const AdamStep at = adamStep(hp, step);
        for (std::size_t i = 0; i < n; ++i)
            adamElement(master[i], grad[i], mmt[i], var[i], hp, at);
    }
};

class AdamWOptimizer final : public Optimizer
{
  public:
    explicit AdamWOptimizer(const Hyperparams &hp) : Optimizer(hp) {}
    OptimizerKind kind() const override { return OptimizerKind::AdamW; }

    void
    step(float *master, const float *grad, float *const *states,
         std::size_t n, uint64_t step) const override
    {
        float *mmt = states[0];
        float *var = states[1];
        const Hyperparams hp = hp_;
        const AdamStep at = adamStep(hp, step);
        for (std::size_t i = 0; i < n; ++i)
            adamwElement(master[i], grad[i], mmt[i], var[i], hp, at);
    }
};

class SgdMomentumOptimizer final : public Optimizer
{
  public:
    explicit SgdMomentumOptimizer(const Hyperparams &hp) : Optimizer(hp) {}
    OptimizerKind kind() const override { return OptimizerKind::SgdMomentum; }

    void
    step(float *master, const float *grad, float *const *states,
         std::size_t n, uint64_t /*step*/) const override
    {
        float *mmt = states[0];
        const Hyperparams hp = hp_;
        for (std::size_t i = 0; i < n; ++i)
            sgdMomentumElement(master[i], grad[i], mmt[i], hp);
    }
};

class AdaGradOptimizer final : public Optimizer
{
  public:
    explicit AdaGradOptimizer(const Hyperparams &hp) : Optimizer(hp) {}
    OptimizerKind kind() const override { return OptimizerKind::AdaGrad; }

    void
    step(float *master, const float *grad, float *const *states,
         std::size_t n, uint64_t /*step*/) const override
    {
        float *accum = states[0];
        const Hyperparams hp = hp_;
        for (std::size_t i = 0; i < n; ++i)
            adagradElement(master[i], grad[i], accum[i], hp);
    }
};

} // namespace

std::unique_ptr<Optimizer>
makeOptimizer(OptimizerKind kind, const Hyperparams &hp)
{
    switch (kind) {
      case OptimizerKind::Adam:
        return std::make_unique<AdamOptimizer>(hp);
      case OptimizerKind::AdamW:
        return std::make_unique<AdamWOptimizer>(hp);
      case OptimizerKind::SgdMomentum:
        return std::make_unique<SgdMomentumOptimizer>(hp);
      case OptimizerKind::AdaGrad:
        return std::make_unique<AdaGradOptimizer>(hp);
    }
    panic("unknown optimizer kind");
}

} // namespace smartinf::optim
