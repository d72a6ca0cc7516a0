#include "compress/topk.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace smartinf::compress {

TopKCompressor::TopKCompressor(double keep_fraction, bool error_feedback)
    : keep_fraction_(keep_fraction), error_feedback_(error_feedback)
{
    SI_REQUIRE(keep_fraction > 0.0 && keep_fraction <= 1.0,
               "keep fraction must be in (0, 1], got ", keep_fraction);
}

std::size_t
TopKCompressor::keepCount(std::size_t n) const
{
    if (n == 0)
        return 0;
    const auto k = static_cast<std::size_t>(
        std::ceil(keep_fraction_ * static_cast<double>(n)));
    return std::clamp<std::size_t>(k, 1, n);
}

namespace {

/**
 * Sort key of a value's magnitude: the float's bits without the sign. For
 * non-NaN floats it orders exactly as |x|; +inf sits above every finite
 * magnitude and NaN (by payload) above +inf, so non-finite gradients (an
 * overflowed step) get a defined, deterministic rank.
 */
inline uint32_t
magnitudeKey(float x)
{
    return std::bit_cast<uint32_t>(x) & 0x7fffffffu;
}

/** Walk @p count down from the top digit, consuming @p k, and return the
 *  digit that holds the k-th largest; @p k becomes its rank within it. */
inline uint32_t
pickDigit(const std::array<uint32_t, 1u << 12> &count, uint32_t radix_mask,
          std::size_t &k)
{
    uint32_t d = radix_mask;
    for (; count[d] < k; --d)
        k -= count[d];
    return d;
}

/**
 * Radix-select the k-th largest magnitude key of value_at(0..n-1). One
 * pass histograms the key's top 11 bits over the shard; a second gathers
 * the keys of the bucket that holds the k-th largest. The middle 12 and
 * low 8 bits are then resolved over that bucket only, each pass counting
 * the keys that match the digits fixed so far. On return @p k holds how
 * many elements equal to the key complete the top k.
 */
template <typename ValueAt>
uint32_t
kthLargestKey(const ValueAt &value_at, std::size_t n, std::size_t &k)
{
    constexpr int kTopShift = 20;
    std::array<uint32_t, 1u << 12> count;
    std::fill_n(count.begin(), 1u << 11, 0u);
    for (std::size_t i = 0; i < n; ++i)
        ++count[magnitudeKey(value_at(i)) >> kTopShift];
    const uint32_t top = pickDigit(count, (1u << 11) - 1, k);

    std::vector<uint32_t> bucket;
    bucket.reserve(count[top]);
    for (std::size_t i = 0; i < n; ++i) {
        const uint32_t key = magnitudeKey(value_at(i));
        if ((key >> kTopShift) == top)
            bucket.push_back(key);
    }

    struct Digit {
        int shift;
        int bits;
    };
    constexpr Digit kLowDigits[] = {{8, 12}, {0, 8}};
    uint32_t prefix = top << kTopShift;
    uint32_t prefix_mask = ~0u << kTopShift;
    for (const Digit &digit : kLowDigits) {
        const uint32_t radix_mask = (1u << digit.bits) - 1;
        std::fill_n(count.begin(), radix_mask + 1, 0u);
        for (const uint32_t key : bucket)
            if ((key & prefix_mask) == prefix)
                ++count[(key >> digit.shift) & radix_mask];
        prefix |= pickDigit(count, radix_mask, k) << digit.shift;
        prefix_mask |= radix_mask << digit.shift;
    }
    return prefix;
}

/**
 * Keep the top k of value_at(0..n-1) by magnitude: every key above the
 * k-th largest, then the lowest-index keys equal to it. One ascending pass,
 * so the wire layout comes out sorted by index (monotone scatter addresses
 * for a streaming FPGA decompressor). With @p residual, also store each
 * dropped value there and zero each kept one (error feedback).
 */
template <typename ValueAt>
void
selectTopK(const ValueAt &value_at, std::size_t n, std::size_t k,
           SparseGradient &out, float *residual)
{
    std::size_t ties = k;
    const uint32_t threshold = kthLargestKey(value_at, n, ties);
    out.indices.reserve(k);
    out.values.reserve(k);
    for (std::size_t i = 0; i < n; ++i) {
        const float value = value_at(i);
        const uint32_t key = magnitudeKey(value);
        const bool keep = key > threshold || (key == threshold && ties > 0);
        if (keep) {
            ties -= key == threshold;
            out.indices.push_back(static_cast<uint32_t>(i));
            out.values.push_back(value);
        }
        if (residual != nullptr)
            residual[i] = keep ? 0.0f : value;
    }
    SI_ASSERT(out.indices.size() == k, "Top-K kept ", out.indices.size(),
              " of ", k);
}

} // namespace

SparseGradient
TopKCompressor::compress(const float *grad, std::size_t n)
{
    SparseGradient out;
    out.dense_size = n;
    if (n == 0)
        return out;
    SI_REQUIRE(n <= UINT32_MAX, "Top-K shard of ", n,
               " elements exceeds 32-bit indices");

    const std::size_t k = keepCount(n);
    if (!error_feedback_) {
        selectTopK([grad](std::size_t i) { return grad[i]; }, n, k, out,
                   nullptr);
        return out;
    }
    // With error feedback the working vector is grad + residual, formed on
    // the fly; the residual keeps what was dropped.
    if (residual_.empty())
        residual_.assign(n, 0.0f);
    SI_REQUIRE(residual_.size() == n, "error-feedback gradient size changed: ",
               residual_.size(), " -> ", n);
    float *residual = residual_.data();
    selectTopK(
        [grad, residual](std::size_t i) { return grad[i] + residual[i]; }, n,
        k, out, residual);
    return out;
}

void
TopKCompressor::decompress(const SparseGradient &sparse, float *out,
                           std::size_t n)
{
    SI_REQUIRE(sparse.dense_size == n, "decompress size mismatch: ",
               sparse.dense_size, " vs ", n);
    SI_ASSERT(sparse.indices.size() == sparse.values.size(),
              "ragged sparse gradient");
    std::fill(out, out + n, 0.0f);
    for (std::size_t j = 0; j < sparse.indices.size(); ++j) {
        const uint32_t idx = sparse.indices[j];
        SI_ASSERT(idx < n, "sparse index ", idx, " out of range ", n);
        out[idx] = sparse.values[j];
    }
}

double
TopKCompressor::residualEnergy() const
{
    double acc = 0.0;
    for (float r : residual_)
        acc += static_cast<double>(r) * r;
    return acc;
}

} // namespace smartinf::compress
