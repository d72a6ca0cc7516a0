/**
 * @file
 * Behavioral model of the Smart-Infinity general decompressor (paper Fig 7,
 * §V-B): the Top-K decompressor streams (index, value) pairs from
 * accelerator memory, routes each value to its position within the current
 * subgroup's gradient buffer, and leaves the rest zero. It contains no
 * arithmetic — just routing — which is why its footprint is tiny (Table III
 * adds only ~0.5% LUTs over the bare Adam updater). The hardware's batch
 * size S is not modeled: it changes no value.
 */
#ifndef SMARTINF_ACCEL_DECOMPRESSOR_H
#define SMARTINF_ACCEL_DECOMPRESSOR_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "accel/fpga_resources.h"
#include "common/units.h"
#include "compress/topk.h"

namespace smartinf::accel {

/** A synthesized decompressor kernel. */
class DecompressorModule
{
  public:
    virtual ~DecompressorModule() = default;

    /**
     * Reconstruct the dense gradient slice for the subgroup that owns
     * global indices [subgroup_base, subgroup_base + n). Entries of
     * @p sparse outside that range are ignored (they belong to other
     * subgroups / other CSDs). @p out is fully overwritten.
     * @pre @p sparse's indices ascend (the SparseGradient wire format);
     *      the subgroup's pairs are found by binary search.
     */
    virtual void decompressSubgroup(const compress::SparseGradient &sparse,
                                    std::size_t subgroup_base, float *out,
                                    std::size_t n) const = 0;

    virtual ModuleFootprint footprint() const = 0;

    /** Modeled throughput in *output* (dense) bytes per second. */
    virtual BytesPerSec modelThroughput() const = 0;
};

/** Build the Top-K scatter decompressor. */
std::unique_ptr<DecompressorModule> makeTopKDecompressor();

} // namespace smartinf::accel

#endif // SMARTINF_ACCEL_DECOMPRESSOR_H
