#include "accel/decompressor.h"

#include <algorithm>

#include "common/logging.h"
#include "csd/smartssd.h"

namespace smartinf::accel {

namespace {

class TopKDecompressor final : public DecompressorModule
{
  public:
    void
    decompressSubgroup(const compress::SparseGradient &sparse,
                       std::size_t subgroup_base, float *out,
                       std::size_t n) const override
    {
        // 1. Gradient buffer initialized with zero (Fig 7 step 1).
        std::fill(out, out + n, 0.0f);

        // 2.-4. Stream (index, value) pairs, routing each value to this
        // subgroup's partition. Indices ascend (wire format), so the pairs
        // this subgroup owns form one window.
        SI_ASSERT(sparse.indices.size() == sparse.values.size(),
                  "ragged sparse gradient");
        const auto begin = sparse.indices.begin();
        const auto first =
            std::lower_bound(begin, sparse.indices.end(), subgroup_base);
        const auto last =
            std::lower_bound(first, sparse.indices.end(), subgroup_base + n);
        const std::size_t end = static_cast<std::size_t>(last - begin);
        for (std::size_t j = static_cast<std::size_t>(first - begin); j < end;
             ++j) {
            const std::size_t offset = sparse.indices[j] - subgroup_base;
            SI_ASSERT(offset < n, "sparse indices out of order");
            out[offset] = sparse.values[j];
        }
    }

    ModuleFootprint
    footprint() const override
    {
        // Table III: adding Top-K on top of Adam moves LUTs 33.66% -> 34.12%
        // and URAMs 34.38% -> 35.94% on the KU15P; no extra BRAM/DSP (pure
        // routing, no arithmetic).
        return ModuleFootprint{"decompressor.topk", 2404, 0, 2, 0};
    }

    BytesPerSec
    modelThroughput() const override
    {
        // Fig 14: decompressor slightly surpasses SSD read.
        return csd::smartssd::kTopKDecompressor;
    }
};

} // namespace

std::unique_ptr<DecompressorModule>
makeTopKDecompressor()
{
    return std::make_unique<TopKDecompressor>();
}

} // namespace smartinf::accel
