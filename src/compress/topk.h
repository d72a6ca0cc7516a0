/**
 * @file
 * Magnitude-based (Top-K) gradient compression — the algorithm SmartComp
 * implements (paper §IV-C): the GPU sorts gradients by magnitude and keeps
 * the top fraction as (index, value) pairs; the CSD's FPGA decompresses by
 * scattering values back into a zeroed dense vector.
 *
 * Wire-format convention (matches the paper): keeping the top k% of elements
 * transmits 2k% of the original FP32 volume, because each survivor costs an
 * FP32 value plus a 4-byte index.
 */
#ifndef SMARTINF_COMPRESS_TOPK_H
#define SMARTINF_COMPRESS_TOPK_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smartinf::compress {

/**
 * A compressed gradient shard: parallel index/value lists. Indices strictly
 * ascend; that is part of the wire format (monotone scatter addresses), and
 * consumers such as the FPGA decompressor rely on it to find a subgroup's
 * pairs by binary search.
 */
struct SparseGradient {
    std::vector<uint32_t> indices;
    std::vector<float> values;
    std::size_t dense_size = 0;

    /** Bytes on the wire (indices + values). */
    std::size_t
    wireBytes() const
    {
        return indices.size() * sizeof(uint32_t) +
               values.size() * sizeof(float);
    }

    /** Achieved compression ratio vs. dense FP32 (the paper's "c%"). */
    double
    wireRatio() const
    {
        return dense_size == 0
                   ? 0.0
                   : static_cast<double>(wireBytes()) /
                         (static_cast<double>(dense_size) * sizeof(float));
    }
};

/**
 * Top-K compressor with optional error feedback. Error feedback accumulates
 * the dropped residual and re-adds it before the next selection — standard
 * for SGD-family training; the paper leaves it off for Adam (citing 1-bit
 * Adam's nonlinearity analysis), which is our default too.
 */
class TopKCompressor
{
  public:
    /**
     * @param keep_fraction fraction of elements kept, in (0, 1]. The default
     *        0.01 (top 1%) yields the paper's default 2% wire volume.
     * @param error_feedback enable residual accumulation
     */
    explicit TopKCompressor(double keep_fraction = 0.01,
                            bool error_feedback = false);

    /**
     * Compress @p n gradients (n < 2^32). Keeps the k = keepCount(n)
     * largest magnitudes; on a tie at the k-th magnitude the lowest indices
     * win. Magnitude is |x|, with +-inf above every finite value and NaN
     * above +-inf. Indices come out ascending. With error feedback enabled,
     * the residual state persists across calls and @p n must stay constant.
     */
    SparseGradient compress(const float *grad, std::size_t n);

    /** Scatter a sparse gradient into @p out (dense, zero-filled first). */
    static void decompress(const SparseGradient &sparse, float *out,
                           std::size_t n);

    /** Elements kept for a given dense size (at least 1). */
    std::size_t keepCount(std::size_t n) const;

    /** Wire volume as a fraction of the dense FP32 volume (= 2*keep). */
    double wireFraction() const { return 2.0 * keep_fraction_; }
    bool errorFeedback() const { return error_feedback_; }

    /** Residual L2^2 currently held by error feedback (0 when disabled). */
    double residualEnergy() const;
    /** The dropped remainder error feedback re-adds next call (empty when
     *  disabled or before the first call). */
    const std::vector<float> &residual() const { return residual_; }

  private:
    double keep_fraction_;
    bool error_feedback_;
    std::vector<float> residual_;
};

} // namespace smartinf::compress

#endif // SMARTINF_COMPRESS_TOPK_H
