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

void
Optimizer::step(float *master, const float *grad, float *const *states,
                std::size_t n, uint64_t step) const
{
    // One switch per call, outside the element loops.
    const Hyperparams hp = hp_;
    switch (kind_) {
      case OptimizerKind::Adam: {
        float *mmt = states[0];
        float *var = states[1];
        const AdamStep at = adamStep(hp, step);
        for (std::size_t i = 0; i < n; ++i)
            adamElement(master[i], grad[i], mmt[i], var[i], hp, at);
        return;
      }
      case OptimizerKind::AdamW: {
        float *mmt = states[0];
        float *var = states[1];
        const AdamStep at = adamStep(hp, step);
        for (std::size_t i = 0; i < n; ++i)
            adamwElement(master[i], grad[i], mmt[i], var[i], hp, at);
        return;
      }
      case OptimizerKind::SgdMomentum: {
        float *mmt = states[0];
        for (std::size_t i = 0; i < n; ++i)
            sgdMomentumElement(master[i], grad[i], mmt[i], hp);
        return;
      }
      case OptimizerKind::AdaGrad: {
        float *accum = states[0];
        for (std::size_t i = 0; i < n; ++i)
            adagradElement(master[i], grad[i], accum[i], hp);
        return;
      }
    }
    panic("unknown optimizer kind");
}

std::unique_ptr<Optimizer>
makeOptimizer(OptimizerKind kind, const Hyperparams &hp)
{
    return std::make_unique<Optimizer>(kind, hp);
}

} // namespace smartinf::optim
