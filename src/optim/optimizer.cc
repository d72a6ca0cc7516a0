#include "optim/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/field_walk.h"
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

namespace {

/** Elements per block of adamBlocks(): the roots live in a stack buffer
 *  of this many floats between the passes. */
constexpr std::size_t kBlock = 256;

/**
 * Adam or AdamW over blocks of kBlock elements, three passes per block:
 * adamMoments() updates mmt/var and leaves v_hat in the block buffer,
 * std::sqrt roots the buffer, and the decay (AdamW only) and adamApply()
 * update the parameter. The first and last passes vectorize; the root pass
 * stays scalar, as std::sqrt sets errno on a negative input. @p at is
 * taken by value so the float stores cannot alias it.
 */
template <bool Decoupled>
void
adamBlocks(float *master, const float *grad, float *mmt, float *var,
           std::size_t n, const Hyperparams &hp, AdamStep at)
{
    float root[kBlock];
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t len = std::min(kBlock, n - base);
        for (std::size_t j = 0; j < len; ++j) {
            const std::size_t i = base + j;
            root[j] = adamMoments(grad[i], mmt[i], var[i], hp, at);
        }
        for (std::size_t j = 0; j < len; ++j)
            root[j] = std::sqrt(root[j]);
        for (std::size_t j = 0; j < len; ++j) {
            const std::size_t i = base + j;
            if constexpr (Decoupled)
                decoupledDecay(master[i], hp);
            adamApply(master[i], mmt[i], root[j], hp, at);
        }
    }
}

} // namespace

void
Optimizer::step(float *master, const float *grad, float *const *states,
                std::size_t n, uint64_t step) const
{
    // One switch per call, outside the element loops.
    const Hyperparams hp = hp_;
    switch (kind_) {
      case OptimizerKind::Adam:
        adamBlocks<false>(master, grad, states[0], states[1], n, hp,
                          adamStep(hp, step));
        return;
      case OptimizerKind::AdamW:
        adamBlocks<true>(master, grad, states[0], states[1], n, hp,
                         adamStep(hp, step));
        return;
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

std::vector<std::string>
hyperparamErrors(const Hyperparams &hp)
{
    std::vector<std::string> errors;
    // Written so that NaN fails every check.
    auto nonNegative = [](float x) { return x >= 0.0f && std::isfinite(x); };
    auto fraction = [](float x) { return x >= 0.0f && x < 1.0f; };
    requireField(errors, nonNegative(hp.lr),
                 "hyperparams.lr must be finite and >= 0", hp.lr);
    requireField(errors, fraction(hp.beta1),
                 "hyperparams.beta1 must be in [0, 1)", hp.beta1);
    requireField(errors, fraction(hp.beta2),
                 "hyperparams.beta2 must be in [0, 1)", hp.beta2);
    requireField(errors, hp.epsilon > 0.0f && std::isfinite(hp.epsilon),
                 "hyperparams.epsilon must be finite and > 0", hp.epsilon);
    requireField(errors, nonNegative(hp.weight_decay),
                 "hyperparams.weight_decay must be finite and >= 0",
                 hp.weight_decay);
    requireField(errors, fraction(hp.momentum),
                 "hyperparams.momentum must be in [0, 1)", hp.momentum);
    return errors;
}

std::unique_ptr<Optimizer>
makeOptimizer(OptimizerKind kind, const Hyperparams &hp)
{
    return std::make_unique<Optimizer>(kind, hp);
}

} // namespace smartinf::optim
