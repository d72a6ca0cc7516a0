/**
 * @file
 * The internal data transfer handler (paper §IV-B), functional version: two
 * host threads manage pre-allocated FPGA device buffers, streaming
 * subgroups SSD -> FPGA -> SSD. The urgent FP32 master parameters are
 * written back (and surfaced to the host) first; momentum/variance
 * writeback is deferred so the loader thread can begin the next subgroup.
 * Fig 5(a)'s naive single-buffer handler is modelled only in the
 * performance layer (the SU strategy).
 */
#ifndef SMARTINF_TRAIN_TRANSFER_HANDLER_H
#define SMARTINF_TRAIN_TRANSFER_HANDLER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/topk.h"
#include "csd/csd.h"

namespace smartinf::train {

/** Byte layout of one CSD's parameter shard on its SSD. */
struct ShardLayout {
    std::size_t elems = 0; ///< parameters owned by this CSD
    int aux_states = 2;    ///< optimizer aux arrays (Adam: mmt + var)

    std::size_t masterOffset() const { return 0; }
    std::size_t
    auxOffset(int idx) const
    {
        return (1 + static_cast<std::size_t>(idx)) * elems * sizeof(float);
    }
    std::size_t
    gradOffset() const
    {
        return (1 + static_cast<std::size_t>(aux_states)) * elems *
               sizeof(float);
    }
    /**
     * Bytes of SSD this shard addresses (states + dense gradients). With
     * SmartComp the gradient region is reserved but never written, so it
     * costs the functional SSD no new host memory.
     */
    std::size_t
    totalBytes() const
    {
        return (2 + static_cast<std::size_t>(aux_states)) * elems *
               sizeof(float);
    }
};

/** Streams a shard through the CSD's FPGA and applies the update. */
class TransferHandler
{
  public:
    /**
     * Allocates the two FPGA buffer slots once, here; every runUpdate call
     * reuses them (the paper's buffer pre-allocation). fatal() if they do
     * not fit in device memory.
     * @param csd target device; must have an updater installed (and a
     *        decompressor when compressed gradients are used), and must
     *        outlive the handler
     * @param layout shard layout on the CSD's SSD
     * @param subgroup_elems elements per subgroup/tasklet (the paper's D)
     */
    TransferHandler(csd::Csd &csd, const ShardLayout &layout,
                    std::size_t subgroup_elems);

    /**
     * Run the update for the whole shard. Dense FP32 gradients must already
     * reside at layout.gradOffset() on the SSD. An exception from the
     * kernel or an SSD access, on either handler thread, stops both and is
     * rethrown here. Subgroups already written back stay written: after a
     * kernel fault, exactly those before the faulting one; after a loader
     * fault, which ones depends on timing.
     * @param step 1-based global step (bias correction)
     * @param host_params_out optional FP32 buffer of layout.elems receiving
     *        the updated master parameters (the "upstream" transfer)
     */
    void runUpdate(uint64_t step, float *host_params_out);

    /**
     * SmartComp variant: the gradients arrive compressed. The FPGA's
     * decompressor reconstructs each subgroup's dense slice before the
     * updater runs. @p sparse indices are global within the shard and
     * must strictly ascend, as TopKCompressor emits them (checked).
     */
    void runUpdateCompressed(const compress::SparseGradient &sparse,
                             uint64_t step, float *host_params_out);

    /** Number of subgroups (tasklets) per runUpdate call. */
    std::size_t subgroupCount() const;

    /** Peak FPGA device-memory use observed (bytes). */
    std::size_t peakDeviceMemory() const
    {
        return csd_.fpgaMemory().peakAllocated();
    }

  private:
    /** One slot's device buffers: gradients + master + aux states. */
    struct Buffers {
        csd::DeviceBuffer grad;
        csd::DeviceBuffer master;
        std::vector<csd::DeviceBuffer> aux;
        /** aux[a].floats(), in the form the updater kernel takes. */
        std::vector<float *> states;
    };

    void process(const compress::SparseGradient *sparse, uint64_t step,
                 float *host_params_out);

    csd::Csd &csd_;
    ShardLayout layout_;
    std::size_t subgroup_elems_;
    /** The double buffer: the loader fills one while the other computes. */
    std::array<Buffers, 2> slots_;
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_TRANSFER_HANDLER_H
