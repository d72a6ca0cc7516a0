/**
 * @file
 * Behavioral model of the Smart-Infinity general updater (paper Fig 7,
 * §V-A): parallel updater PEs built from SIMD AXPBY units stream subgroups
 * of (gradient, optimizer states, target parameters) through BRAM. The
 * built-in kernels run the host optimizer's own step() (optim/optimizer.h),
 * so they are bit-identical to the host reference by construction (§VII-J);
 * what they add is the synthesis footprint and modeled throughput. The
 * hardware's PE/lane/chunk shape is not modeled: it changes no value.
 */
#ifndef SMARTINF_ACCEL_UPDATER_H
#define SMARTINF_ACCEL_UPDATER_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "accel/fpga_resources.h"
#include "common/units.h"
#include "optim/optimizer.h"

namespace smartinf::accel {

/**
 * A synthesized updater kernel for one optimizer family — the §VI
 * extension point user kernels subclass. The behavioral path
 * (processSubgroup) computes real values; footprint() and
 * modelThroughput() feed the resource table and the timing model.
 */
class UpdaterModule
{
  public:
    virtual ~UpdaterModule() = default;

    virtual optim::OptimizerKind kind() const = 0;

    /**
     * Update a subgroup in accelerator memory. Semantics identical to
     * Optimizer::step. @p step is the 1-based global step (bias
     * correction).
     */
    virtual void processSubgroup(float *master, const float *grad,
                                 float *const *states, std::size_t n,
                                 uint64_t step) const = 0;

    /** Synthesis footprint on the KU15P (Table III calibration). */
    virtual ModuleFootprint footprint() const = 0;

    /**
     * Modeled sustained throughput in bytes of optimizer-state stream per
     * second. The paper measures > 7 GB/s for the Adam updater (Fig 14).
     */
    virtual BytesPerSec modelThroughput() const = 0;
};

/** Build the built-in updater kernel for @p kind with hyperparameters @p hp. */
std::unique_ptr<UpdaterModule> makeUpdater(optim::OptimizerKind kind,
                                           const optim::Hyperparams &hp);

} // namespace smartinf::accel

#endif // SMARTINF_ACCEL_UPDATER_H
