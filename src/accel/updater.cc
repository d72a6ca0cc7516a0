#include "accel/updater.h"

#include <algorithm>

#include "common/logging.h"

namespace smartinf::accel {

namespace {

/**
 * Shared chunking skeleton: stream the subgroup through BRAM-sized chunks,
 * applying @p body to each chunk. The hardware pipeline processes
 * (num_pes * lanes_per_pe) elements per cycle; functionally only the chunk
 * boundary matters (and must not matter for results — tested).
 */
template <typename Body>
void
forEachChunk(std::size_t n, std::size_t chunk_elems, Body &&body)
{
    for (std::size_t base = 0; base < n; base += chunk_elems) {
        const std::size_t len = std::min(chunk_elems, n - base);
        body(base, len);
    }
}

class AdamUpdater final : public UpdaterModule
{
  public:
    AdamUpdater(const optim::Hyperparams &hp, const UpdaterGeometry &geometry,
                bool decoupled_decay)
        : UpdaterModule(geometry), hp_(hp), decoupled_decay_(decoupled_decay)
    {
    }

    optim::OptimizerKind
    kind() const override
    {
        return decoupled_decay_ ? optim::OptimizerKind::AdamW
                                : optim::OptimizerKind::Adam;
    }

    const optim::Hyperparams &hyperparams() const override { return hp_; }

    void
    processSubgroup(float *master, const float *grad, float *const *states,
                    std::size_t n, uint64_t step) const override
    {
        float *mmt = states[0];
        float *var = states[1];
        const optim::Hyperparams hp = hp_;
        const optim::AdamStep at = optim::adamStep(hp, step);
        forEachChunk(n, geometry_.chunk_elems,
                     [&](std::size_t base, std::size_t len) {
                         const std::size_t end = base + len;
                         if (decoupled_decay_) {
                             for (std::size_t i = base; i < end; ++i)
                                 optim::adamwElement(master[i], grad[i],
                                                     mmt[i], var[i], hp, at);
                         } else {
                             for (std::size_t i = base; i < end; ++i)
                                 optim::adamElement(master[i], grad[i],
                                                    mmt[i], var[i], hp, at);
                         }
                     });
    }

    ModuleFootprint
    footprint() const override
    {
        // Calibrated to Table III: Adam updater = 33.66% LUT, 27.13% BRAM,
        // 34.38% URAM, 11.03% DSP of the KU15P. AdamW adds the decay AXPBY.
        ModuleFootprint fp{"updater.adam", 175947, 267, 44, 217};
        if (decoupled_decay_) {
            fp.name = "updater.adamw";
            fp.luts += 2900;
            fp.dsps += 8;
        }
        return fp;
    }

    BytesPerSec
    modelThroughput() const override
    {
        // Fig 14: Adam updater sustains > 7 GB/s of state stream.
        return decoupled_decay_ ? GBps(7.0) : GBps(7.2);
    }

  private:
    optim::Hyperparams hp_;
    bool decoupled_decay_;
};

class SgdUpdater final : public UpdaterModule
{
  public:
    SgdUpdater(const optim::Hyperparams &hp, const UpdaterGeometry &geometry)
        : UpdaterModule(geometry), hp_(hp)
    {
    }

    optim::OptimizerKind
    kind() const override
    {
        return optim::OptimizerKind::SgdMomentum;
    }

    const optim::Hyperparams &hyperparams() const override { return hp_; }

    void
    processSubgroup(float *master, const float *grad, float *const *states,
                    std::size_t n, uint64_t /*step*/) const override
    {
        float *mmt = states[0];
        const optim::Hyperparams hp = hp_;
        forEachChunk(n, geometry_.chunk_elems,
                     [&](std::size_t base, std::size_t len) {
                         for (std::size_t i = base; i < base + len; ++i)
                             optim::sgdMomentumElement(master[i], grad[i],
                                                       mmt[i], hp);
                     });
    }

    ModuleFootprint
    footprint() const override
    {
        // One moving average instead of two: roughly 60% of Adam's logic.
        return ModuleFootprint{"updater.sgd", 108000, 190, 28, 132};
    }

    BytesPerSec modelThroughput() const override { return GBps(8.4); }

  private:
    optim::Hyperparams hp_;
};

class AdaGradUpdater final : public UpdaterModule
{
  public:
    AdaGradUpdater(const optim::Hyperparams &hp,
                   const UpdaterGeometry &geometry)
        : UpdaterModule(geometry), hp_(hp)
    {
    }

    optim::OptimizerKind
    kind() const override
    {
        return optim::OptimizerKind::AdaGrad;
    }

    const optim::Hyperparams &hyperparams() const override { return hp_; }

    void
    processSubgroup(float *master, const float *grad, float *const *states,
                    std::size_t n, uint64_t /*step*/) const override
    {
        float *accum = states[0];
        const optim::Hyperparams hp = hp_;
        forEachChunk(n, geometry_.chunk_elems,
                     [&](std::size_t base, std::size_t len) {
                         for (std::size_t i = base; i < base + len; ++i)
                             optim::adagradElement(master[i], grad[i],
                                                   accum[i], hp);
                     });
    }

    ModuleFootprint
    footprint() const override
    {
        // Needs the rsqrt path but only one state: between SGD and Adam.
        return ModuleFootprint{"updater.adagrad", 126000, 205, 30, 168};
    }

    BytesPerSec modelThroughput() const override { return GBps(7.9); }

  private:
    optim::Hyperparams hp_;
};

} // namespace

std::unique_ptr<UpdaterModule>
makeUpdater(optim::OptimizerKind kind, const optim::Hyperparams &hp,
            const UpdaterGeometry &geometry)
{
    SI_REQUIRE(geometry.chunk_elems > 0, "chunk size must be positive");
    switch (kind) {
      case optim::OptimizerKind::Adam:
        return std::make_unique<AdamUpdater>(hp, geometry, false);
      case optim::OptimizerKind::AdamW:
        return std::make_unique<AdamUpdater>(hp, geometry, true);
      case optim::OptimizerKind::SgdMomentum:
        return std::make_unique<SgdUpdater>(hp, geometry);
      case optim::OptimizerKind::AdaGrad:
        return std::make_unique<AdaGradUpdater>(hp, geometry);
    }
    panic("unknown optimizer kind");
}

} // namespace smartinf::accel
