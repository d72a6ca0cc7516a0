/** @file Tests for the host reference optimizers. */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "optim/optimizer.h"

namespace smartinf::optim {
namespace {

TEST(Optimizer, AdamSingleElementMatchesClosedForm)
{
    Hyperparams hp;
    hp.lr = 0.1f;
    auto opt = makeOptimizer(OptimizerKind::Adam, hp);

    float param = 1.0f;
    const float grad = 0.5f;
    std::vector<float> mmt{0.0f}, var{0.0f};
    float *states[] = {mmt.data(), var.data()};
    opt->step(&param, &grad, states, 1, 1);

    // Step 1: m = 0.1*g, v = 0.001*g^2; bias-corrected m_hat = g,
    // v_hat = g^2; update = lr * g / (|g| + eps) ~= lr.
    // Use the same FP32 arithmetic as the implementation ((1 - beta) in
    // float is not exactly 1e-1/1e-3).
    const float expected_m = (1.0f - 0.9f) * grad;
    const float expected_v = (1.0f - 0.999f) * grad * grad;
    EXPECT_FLOAT_EQ(mmt[0], expected_m);
    EXPECT_FLOAT_EQ(var[0], expected_v);
    EXPECT_NEAR(param, 1.0f - 0.1f, 1e-5);
}

TEST(Optimizer, AdamBiasCorrectionTogglable)
{
    Hyperparams with;
    Hyperparams without;
    without.bias_correction = false;
    auto opt_with = makeOptimizer(OptimizerKind::Adam, with);
    auto opt_without = makeOptimizer(OptimizerKind::Adam, without);

    float p1 = 1.0f, p2 = 1.0f;
    const float grad = 0.3f;
    std::vector<float> m1{0}, v1{0}, m2{0}, v2{0};
    float *s1[] = {m1.data(), v1.data()};
    float *s2[] = {m2.data(), v2.data()};
    opt_with->step(&p1, &grad, s1, 1, 1);
    opt_without->step(&p2, &grad, s2, 1, 1);
    EXPECT_NE(p1, p2); // Correction changes the first step materially.
}

/** Adam/AdamW as written before the per-step constants were hoisted:
 *  1 - beta^t evaluated inside every element update. */
void
perElementAdam(float &param, float grad, float &mmt, float &var,
               const Hyperparams &hp, uint64_t step, bool decoupled)
{
    if (decoupled)
        param -= hp.lr * hp.weight_decay * param;
    mmt = hp.beta1 * mmt + (1.0f - hp.beta1) * grad;
    var = hp.beta2 * var + (1.0f - hp.beta2) * (grad * grad);
    float m_hat = mmt;
    float v_hat = var;
    if (hp.bias_correction) {
        m_hat /= 1.0f - std::pow(hp.beta1, static_cast<float>(step));
        v_hat /= 1.0f - std::pow(hp.beta2, static_cast<float>(step));
    }
    param -= hp.lr * m_hat / (std::sqrt(v_hat) + hp.epsilon);
}

TEST(Optimizer, HoistedStepConstantsMatchPerElementFormula)
{
    const std::vector<float> grads{0.5f,  -0.25f, 1e-3f,  -3e-4f,
                                   2.0f,  0.0f,   -1e-7f, 7.5f};
    // Steps 1..5000, then steps where 0.9^t and 0.999^t underflow to 0
    // and where float(t) is no longer exact.
    std::vector<uint64_t> steps(5000);
    for (uint64_t t = 0; t < steps.size(); ++t)
        steps[t] = t + 1;
    steps.insert(steps.end(), {200000, 1ull << 30, (1ull << 40) + 1});
    for (bool decoupled : {false, true}) {
        for (bool bias_correction : {true, false}) {
            SCOPED_TRACE(::testing::Message() << "decoupled=" << decoupled
                                              << " bias=" << bias_correction);
            Hyperparams hp;
            hp.weight_decay = decoupled ? 0.01f : 0.0f;
            hp.bias_correction = bias_correction;
            const std::size_t n = grads.size();
            std::vector<float> p(n, 0.5f), m(n, 0.0f), v(n, 0.0f);
            std::vector<float> p_ref = p, m_ref = m, v_ref = v;
            for (uint64_t t : steps) {
                const AdamStep at = adamStep(hp, t);
                for (std::size_t i = 0; i < n; ++i) {
                    const float g = grads[i] * (1.0f + 1e-4f * (t % 7));
                    if (decoupled)
                        adamwElement(p[i], g, m[i], v[i], hp, at);
                    else
                        adamElement(p[i], g, m[i], v[i], hp, at);
                    perElementAdam(p_ref[i], g, m_ref[i], v_ref[i], hp, t,
                                   decoupled);
                    ASSERT_EQ(std::bit_cast<uint32_t>(p[i]),
                              std::bit_cast<uint32_t>(p_ref[i]))
                        << "t=" << t << " i=" << i;
                    ASSERT_EQ(std::bit_cast<uint32_t>(m[i]),
                              std::bit_cast<uint32_t>(m_ref[i]));
                    ASSERT_EQ(std::bit_cast<uint32_t>(v[i]),
                              std::bit_cast<uint32_t>(v_ref[i]));
                }
            }
            if (bias_correction) {
                const AdamStep late = adamStep(hp, steps.back());
                EXPECT_TRUE(late.corrected);
                EXPECT_EQ(late.bc1, 1.0f); // beta^t underflowed
                EXPECT_EQ(late.bc2, 1.0f);
            } else {
                EXPECT_FALSE(adamStep(hp, 1).corrected);
            }
        }
    }
}

/** Bit patterns of @p v, so NaN payloads and signed zeros compare too. */
std::vector<uint32_t>
bitsOf(const std::vector<float> &v)
{
    std::vector<uint32_t> bits(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        bits[i] = std::bit_cast<uint32_t>(v[i]);
    return bits;
}

/** The update rule one element at a time: the *Element functions. */
void
perElementStep(OptimizerKind kind, const Hyperparams &hp, float *master,
               const float *grad, float *const *states, std::size_t n,
               uint64_t step)
{
    const AdamStep at = adamStep(hp, step);
    for (std::size_t i = 0; i < n; ++i) {
        switch (kind) {
          case OptimizerKind::Adam:
            adamElement(master[i], grad[i], states[0][i], states[1][i], hp,
                        at);
            break;
          case OptimizerKind::AdamW:
            adamwElement(master[i], grad[i], states[0][i], states[1][i], hp,
                         at);
            break;
          case OptimizerKind::SgdMomentum:
            sgdMomentumElement(master[i], grad[i], states[0][i], hp);
            break;
          case OptimizerKind::AdaGrad:
            adagradElement(master[i], grad[i], states[0][i], hp);
            break;
        }
    }
}

/**
 * step() walks Adam/AdamW in blocks, one piece of the rule per pass. Every
 * kind must give the same bits as the per-element rule, on the master and
 * on every state, for sizes around the block length and for inputs with +-0, +-inf, NaN, subnormals and negative states (a
 * negative variance makes sqrt return NaN).
 */
TEST(Optimizer, BlockedStepMatchesPerElementRule)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float tiny = std::numeric_limits<float>::denorm_min();
    const std::vector<float> specials{0.0f,  -0.0f, inf,    -inf,  nan,
                                      tiny,  -tiny, 1e-39f, -2.5f, 1e30f,
                                      -1e-3f, 3e-8f, 0.75f};
    // Every array cycles through the specials at its own stride and fills
    // the other slots with ordinary values of both signs.
    auto fill = [&](std::size_t n, std::size_t stride, float scale) {
        std::vector<float> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = i % stride == 0
                       ? specials[(i / stride) % specials.size()]
                       : scale * static_cast<float>(
                                     static_cast<int>(i * 2654435761u % 2001) -
                                     1000);
        }
        return v;
    };
    Hyperparams base;
    base.weight_decay = 0.01f;
    for (OptimizerKind kind :
         {OptimizerKind::Adam, OptimizerKind::AdamW,
          OptimizerKind::SgdMomentum, OptimizerKind::AdaGrad}) {
        for (std::size_t n : {0, 1, 255, 256, 257, 16387}) {
            for (bool bias_correction : {true, false}) {
                for (uint64_t t : {uint64_t{1}, uint64_t{1} << 30}) {
                    SCOPED_TRACE(::testing::Message()
                                 << optimizerName(kind) << " n=" << n
                                 << " bias=" << bias_correction
                                 << " t=" << t);
                    Hyperparams hp = base;
                    hp.bias_correction = bias_correction;
                    const Optimizer opt(kind, hp);
                    const auto grad = fill(n, 3, 1e-3f);
                    std::vector<float> master = fill(n, 5, 1e-2f);
                    std::vector<std::vector<float>> states;
                    for (int a = 0; a < opt.stateCount(); ++a)
                        states.push_back(fill(n, 7 + 4 * a, 1e-4f));
                    std::vector<float> ref_master = master;
                    auto ref_states = states;

                    std::vector<float *> ptrs, ref_ptrs;
                    for (int a = 0; a < opt.stateCount(); ++a) {
                        ptrs.push_back(states[a].data());
                        ref_ptrs.push_back(ref_states[a].data());
                    }
                    opt.step(master.data(), grad.data(), ptrs.data(), n, t);
                    perElementStep(kind, hp, ref_master.data(), grad.data(),
                                   ref_ptrs.data(), n, t);
                    ASSERT_EQ(bitsOf(master), bitsOf(ref_master));
                    for (int a = 0; a < opt.stateCount(); ++a)
                        ASSERT_EQ(bitsOf(states[a]), bitsOf(ref_states[a]))
                            << "state " << a;
                }
            }
        }
    }
}

TEST(Optimizer, SgdMomentumAccumulates)
{
    Hyperparams hp;
    hp.lr = 1.0f;
    hp.momentum = 0.5f;
    auto opt = makeOptimizer(OptimizerKind::SgdMomentum, hp);
    float param = 0.0f;
    std::vector<float> mmt{0.0f};
    float *states[] = {mmt.data()};
    const float grad = 1.0f;
    opt->step(&param, &grad, states, 1, 1);
    EXPECT_FLOAT_EQ(mmt[0], 1.0f);
    EXPECT_FLOAT_EQ(param, -1.0f);
    opt->step(&param, &grad, states, 1, 2);
    EXPECT_FLOAT_EQ(mmt[0], 1.5f); // 0.5*1 + 1.
    EXPECT_FLOAT_EQ(param, -2.5f);
}

TEST(Optimizer, AdaGradShrinksEffectiveStep)
{
    Hyperparams hp;
    hp.lr = 1.0f;
    hp.epsilon = 0.0f;
    auto opt = makeOptimizer(OptimizerKind::AdaGrad, hp);
    float param = 0.0f;
    std::vector<float> accum{0.0f};
    float *states[] = {accum.data()};
    const float grad = 2.0f;
    opt->step(&param, &grad, states, 1, 1);
    // accum = 4, step = 2/sqrt(4) = 1.
    EXPECT_FLOAT_EQ(param, -1.0f);
    opt->step(&param, &grad, states, 1, 2);
    // accum = 8, step = 2/sqrt(8).
    EXPECT_NEAR(param, -1.0f - 2.0f / std::sqrt(8.0f), 1e-6);
}

TEST(Optimizer, AdamWDecaysDecoupled)
{
    Hyperparams hp;
    hp.lr = 0.1f;
    hp.weight_decay = 0.5f;
    auto adamw = makeOptimizer(OptimizerKind::AdamW, hp);
    float param = 2.0f;
    const float grad = 0.0f;
    std::vector<float> mmt{0}, var{0};
    float *states[] = {mmt.data(), var.data()};
    adamw->step(&param, &grad, states, 1, 1);
    // Zero gradient: only decay applies: p -= lr*wd*p -> 2 * (1 - 0.05).
    EXPECT_NEAR(param, 2.0f * 0.95f, 1e-6);
}

TEST(Optimizer, StateCountsMatchFamily)
{
    EXPECT_EQ(auxStateCount(OptimizerKind::Adam), 2);
    EXPECT_EQ(auxStateCount(OptimizerKind::AdamW), 2);
    EXPECT_EQ(auxStateCount(OptimizerKind::SgdMomentum), 1);
    EXPECT_EQ(auxStateCount(OptimizerKind::AdaGrad), 1);
}

TEST(Optimizer, NamesAreStable)
{
    EXPECT_STREQ(optimizerName(OptimizerKind::Adam), "Adam");
    EXPECT_STREQ(optimizerName(OptimizerKind::SgdMomentum), "SGD");
    EXPECT_STREQ(optimizerName(OptimizerKind::AdaGrad), "AdaGrad");
    EXPECT_STREQ(optimizerName(OptimizerKind::AdamW), "AdamW");
}

/** Adam converges on a quadratic bowl — a functional smoke test. */
TEST(Optimizer, AdamConvergesOnQuadratic)
{
    Hyperparams hp;
    hp.lr = 0.05f;
    auto opt = makeOptimizer(OptimizerKind::Adam, hp);
    std::vector<float> param{5.0f, -3.0f};
    std::vector<float> mmt(2, 0.0f), var(2, 0.0f);
    float *states[] = {mmt.data(), var.data()};
    for (uint64_t t = 1; t <= 800; ++t) {
        std::vector<float> grad{2.0f * param[0], 2.0f * param[1]};
        opt->step(param.data(), grad.data(), states, 2, t);
    }
    EXPECT_NEAR(param[0], 0.0f, 0.05f);
    EXPECT_NEAR(param[1], 0.0f, 0.05f);
}

} // namespace
} // namespace smartinf::optim
