#include "nn/trainer.h"

#include <algorithm>
#include <numeric>

#include "common/half.h"
#include "common/logging.h"
#include "common/random.h"

namespace smartinf::nn {

HostBackend::HostBackend(optim::OptimizerKind kind,
                         const optim::Hyperparams &hp)
    : optimizer_(optim::makeOptimizer(kind, hp))
{
    const auto errors = optim::hyperparamErrors(hp);
    SI_REQUIRE(errors.empty(), "invalid optimizer hyperparameters: ",
               errors.front());
}

void
HostBackend::initialize(const float *params, std::size_t n)
{
    master_.assign(params, params + n);
    states_.assign(optimizer_->stateCount(), std::vector<float>(n, 0.0f));
}

void
HostBackend::step(const float *grads, std::size_t n, uint64_t t)
{
    SI_REQUIRE(n == master_.size(), "gradient size mismatch");
    SI_REQUIRE(t >= 1, "optimizer steps are 1-based");
    std::vector<float *> ptrs;
    for (auto &state : states_)
        ptrs.push_back(state.data());
    optimizer_->step(master_.data(), grads, ptrs.data(), n, t);
}

Trainer::Trainer(Mlp &model, UpdateBackend &backend, const Config &config)
    : model_(model), backend_(backend), config_(config)
{
    SI_REQUIRE(config.epochs >= 1, "need at least one epoch");
    SI_REQUIRE(config.batch_size >= 1, "need positive batch size");
}

TrainReport
Trainer::fit(const Dataset &dataset)
{
    backend_.initialize(model_.params(), model_.paramCount());

    const std::size_t n_params = model_.paramCount();
    const std::size_t n_train = dataset.train.labels.size();
    std::vector<float> grads(n_params, 0.0f);
    std::vector<half_t> grads_fp16(n_params, 0);
    std::vector<std::size_t> order(n_train);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(config_.shuffle_seed);

    TrainReport report;
    uint64_t step = 0;
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        // Fisher-Yates shuffle with the deterministic RNG.
        for (std::size_t i = n_train; i > 1; --i)
            std::swap(order[i - 1], order[rng.uniformInt(i)]);

        double epoch_loss = 0.0;
        std::size_t batches = 0;
        for (std::size_t start = 0; start < n_train;
             start += config_.batch_size) {
            const std::size_t len =
                std::min(config_.batch_size, n_train - start);
            Matrix batch(len, dataset.input_dim);
            std::vector<int> labels(len);
            for (std::size_t i = 0; i < len; ++i) {
                const std::size_t src = order[start + i];
                for (std::size_t d = 0; d < dataset.input_dim; ++d)
                    batch.at(i, d) = dataset.train.inputs.at(src, d);
                labels[i] = dataset.train.labels[src];
            }

            epoch_loss += model_.lossAndGradient(batch, labels, grads.data());
            ++batches;

            if (config_.fp16_gradients) {
                // Scale, quantize to FP16 (what the GPU would offload),
                // scan for overflow, unscale — the §IV-C constraint.
                const float scale = scaler_.scale();
                for (std::size_t i = 0; i < n_params; ++i)
                    grads[i] *= scale;
                floatToHalf(grads.data(), grads_fp16.data(), n_params);
                const bool overflow =
                    optim::LossScaler::hasOverflow(grads_fp16.data(), n_params);
                if (scaler_.update(overflow)) {
                    ++report.overflow_skips;
                    continue; // Skip the step, retry with a smaller scale.
                }
                halfToFloat(grads_fp16.data(), grads.data(), n_params);
                const float inv = 1.0f / scale;
                for (std::size_t i = 0; i < n_params; ++i)
                    grads[i] *= inv;
            }

            backend_.step(grads.data(), n_params, ++step);
            model_.setParams(backend_.masterParams(),
                             backend_.paramCount());
        }
        report.epoch_losses.push_back(
            static_cast<float>(epoch_loss / std::max<std::size_t>(1, batches)));
    }

    report.steps = step;
    report.dev_accuracy =
        model_.accuracy(dataset.dev.inputs, dataset.dev.labels);
    return report;
}

} // namespace smartinf::nn
