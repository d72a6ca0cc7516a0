/**
 * @file
 * An MLP classifier with *flattened* parameters and manual backprop. The
 * flat parameter/gradient layout is the point: storage-offloaded training
 * (and Smart-Infinity's workload distribution, paper §IV-D) operates on the
 * flattened parameter vector, agnostic to architecture — this model plugs
 * directly into that pipeline.
 */
#ifndef SMARTINF_NN_MLP_H
#define SMARTINF_NN_MLP_H

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "nn/tensor.h"

namespace smartinf::nn {

/** Activation choice for hidden layers. */
enum class Activation { ReLU, GELU };

/** A feed-forward classifier over a flat parameter vector. */
class Mlp
{
  public:
    /**
     * @param layer_dims sizes [input, hidden..., classes]
     * @param activation hidden activation
     * @param seed initialization seed (Kaiming-style scaled normal)
     */
    Mlp(std::vector<std::size_t> layer_dims, Activation activation,
        uint64_t seed);

    /** Total parameter count (weights + biases, flattened). */
    std::size_t paramCount() const { return params_.size(); }

    float *params() { return params_.data(); }
    const float *params() const { return params_.data(); }

    /** Overwrite all parameters (e.g., from the offloaded master copy). */
    void setParams(const float *values, std::size_t n);

    /**
     * Forward + backward over a batch. Accumulates nothing: @p grad_out is
     * fully overwritten with d(mean loss)/d(params), same flat layout as
     * params(). @return mean loss.
     */
    float lossAndGradient(const Matrix &inputs, const std::vector<int> &labels,
                          float *grad_out);

    /** Inference: class predictions for a batch. */
    std::vector<int> predict(const Matrix &inputs);

    /** Classification accuracy over a labelled set. */
    double accuracy(const Matrix &inputs, const std::vector<int> &labels);

  private:
    void forward(const Matrix &inputs, std::vector<Matrix> &pre,
                 std::vector<Matrix> &post);

    std::vector<std::size_t> dims_;
    Activation activation_;
    std::vector<float> params_;
    std::vector<std::size_t> w_offsets_;
    std::vector<std::size_t> b_offsets_;
};

} // namespace smartinf::nn

#endif // SMARTINF_NN_MLP_H
