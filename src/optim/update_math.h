/**
 * @file
 * Per-element update rules shared by the host reference optimizers and the
 * behavioral FPGA updater modules. Both paths call exactly these functions,
 * so "SmartUpdate is algorithmically identical to the baseline" (paper
 * §VII-J) is enforced structurally and asserted bit-for-bit in tests.
 *
 * Every rule is phrased in terms of AXPBY-style moving averages
 * (out = alpha*a + beta*b), mirroring the SIMD AXPBY units of the paper's
 * updater microarchitecture (Fig 7). Callers pass the hyperparameters as
 * a local copy: the element stores are float stores that could alias a
 * member's float fields and force a reload per element.
 *
 * Adam/AdamW is split into pieces around its square root: adamMoments()
 * updates mmt/var and returns v_hat; std::sqrt(v_hat) is the root;
 * decoupledDecay() (AdamW only) and adamApply() then update the parameter.
 * adamElement()/adamwElement() are those pieces composed for one element.
 * Optimizer::step() runs the same pieces over a block of elements, one
 * piece per pass (moments, then roots, then apply), so that the passes
 * without sqrt vectorize: std::sqrt must set errno on a negative input,
 * which keeps any loop calling it scalar. Each element still sees the same
 * float operations in the same order, so both paths give the same bits.
 * (AdamW's decay reads and writes only the parameter, which the moments
 * never read, so moving it after them changes nothing.)
 */
#ifndef SMARTINF_OPTIM_UPDATE_MATH_H
#define SMARTINF_OPTIM_UPDATE_MATH_H

#include <cmath>
#include <cstdint>

namespace smartinf::optim {

/** The general averaging primitive of the updater PEs: alpha*a + beta*b. */
inline float
axpby(float alpha, float a, float beta, float b)
{
    return alpha * a + beta * b;
}

/** Hyperparameters shared across the optimizer family. */
struct Hyperparams {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
    float weight_decay = 0.0f;
    float momentum = 0.9f;
    bool bias_correction = true;
};

/**
 * Adam's per-step constants: the bias-correction divisors 1 - beta^t
 * depend only on the step, so the updater holds them in registers rather
 * than recomputing them per element. Built once per step by adamStep();
 * the floats are the same as a per-element evaluation would give.
 */
struct AdamStep {
    float bc1 = 1.0f;
    float bc2 = 1.0f;
    bool corrected = false;
};

/** The per-step constants for 1-based step @p step. */
inline AdamStep
adamStep(const Hyperparams &hp, uint64_t step)
{
    if (!hp.bias_correction)
        return {};
    return {1.0f - std::pow(hp.beta1, static_cast<float>(step)),
            1.0f - std::pow(hp.beta2, static_cast<float>(step)), true};
}

/** Adam's moving averages for one element; returns v_hat, the
 *  (bias-corrected) variance whose root scales the step. */
inline float
adamMoments(float grad, float &mmt, float &var, const Hyperparams &hp,
            const AdamStep &at)
{
    mmt = axpby(hp.beta1, mmt, 1.0f - hp.beta1, grad);
    var = axpby(hp.beta2, var, 1.0f - hp.beta2, grad * grad);
    return at.corrected ? var / at.bc2 : var;
}

/** Adam's parameter update from the new momentum and sqrt(v_hat). */
inline void
adamApply(float &param, float mmt, float root, const Hyperparams &hp,
          const AdamStep &at)
{
    const float m_hat = at.corrected ? mmt / at.bc1 : mmt;
    param -= hp.lr * m_hat / (root + hp.epsilon);
}

/** AdamW's decoupled weight decay (reads and writes only the param). */
inline void
decoupledDecay(float &param, const Hyperparams &hp)
{
    param -= hp.lr * hp.weight_decay * param;
}

/** Adam (Kingma & Ba): two moving averages + bias-corrected step. */
inline void
adamElement(float &param, float grad, float &mmt, float &var,
            const Hyperparams &hp, const AdamStep &at)
{
    const float v_hat = adamMoments(grad, mmt, var, hp, at);
    adamApply(param, mmt, std::sqrt(v_hat), hp, at);
}

/** AdamW (Loshchilov & Hutter): decoupled weight decay before Adam. */
inline void
adamwElement(float &param, float grad, float &mmt, float &var,
             const Hyperparams &hp, const AdamStep &at)
{
    decoupledDecay(param, hp);
    adamElement(param, grad, mmt, var, hp, at);
}

/** SGD with (heavy-ball) momentum: one moving average. */
inline void
sgdMomentumElement(float &param, float grad, float &mmt,
                   const Hyperparams &hp)
{
    mmt = axpby(hp.momentum, mmt, 1.0f, grad);
    param -= hp.lr * mmt;
}

/** AdaGrad (Duchi et al.): accumulated squared gradients. */
inline void
adagradElement(float &param, float grad, float &accum,
               const Hyperparams &hp)
{
    accum = axpby(1.0f, accum, 1.0f, grad * grad);
    param -= hp.lr * grad / (std::sqrt(accum) + hp.epsilon);
}

} // namespace smartinf::optim

#endif // SMARTINF_OPTIM_UPDATE_MATH_H
