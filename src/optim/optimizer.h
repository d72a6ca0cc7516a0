/**
 * @file
 * The optimizer over flat FP32 arrays: one class for the whole family,
 * selected by OptimizerKind. It is the CPU-side updater of the ZeRO-Infinity
 * baseline (DeepSpeed's AVX CPU-Adam analog), and the accel/ built-in
 * updater kernels run this same step(), so the host and FPGA paths share
 * one implementation of the update_math.h rules.
 */
#ifndef SMARTINF_OPTIM_OPTIMIZER_H
#define SMARTINF_OPTIM_OPTIMIZER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "optim/update_math.h"

namespace smartinf::optim {

/** Optimizer family. The paper evaluates Adam (default), SGD, AdaGrad. */
enum class OptimizerKind { Adam, AdamW, SgdMomentum, AdaGrad };

/** Human-readable name (bench/report output). */
const char *optimizerName(OptimizerKind kind);

/**
 * Number of FP32 auxiliary state arrays *excluding* the FP32 master copy of
 * the parameters (Adam: momentum + variance = 2; SGD/AdaGrad: 1).
 */
int auxStateCount(OptimizerKind kind);

/** Flat-array optimizer: updates params in place from grads and states. */
class Optimizer
{
  public:
    Optimizer(OptimizerKind kind, const Hyperparams &hp)
        : kind_(kind), hp_(hp)
    {
    }

    OptimizerKind kind() const { return kind_; }
    /** Number of entries expected in the @c states array of step(). */
    int stateCount() const { return auxStateCount(kind_); }

    /**
     * Apply one update step over @p n contiguous elements.
     * @param master FP32 master parameters, updated in place
     * @param grad gradients (already unscaled and clipped)
     * @param states aux state arrays (stateCount() pointers), updated in place
     * @param n element count
     * @param step 1-based global step number (bias correction)
     */
    void step(float *master, const float *grad, float *const *states,
              std::size_t n, uint64_t step) const;

  private:
    OptimizerKind kind_;
    Hyperparams hp_;
};

/**
 * Check @p hp for values that turn every parameter non-finite: every field
 * finite, lr and weight_decay >= 0, beta1, beta2 and momentum in [0, 1)
 * (beta2 = 1 makes bias correction divide by zero), epsilon > 0. Returns
 * one message per violation, naming the field; empty means usable.
 */
std::vector<std::string> hyperparamErrors(const Hyperparams &hp);

/** Factory covering the paper's optimizer set (§VII-F). */
std::unique_ptr<Optimizer> makeOptimizer(OptimizerKind kind,
                                         const Hyperparams &hp);

} // namespace smartinf::optim

#endif // SMARTINF_OPTIM_OPTIMIZER_H
