#include "compress/topk.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

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

/** A Top-K candidate: an element's index and its working value. */
struct Candidate {
    uint32_t index;
    float value;
};

/**
 * Keep the top k of value_at(0..n-1) by magnitude: every key above the
 * k-th largest, then the lowest-index keys equal to it. With @p residual,
 * also store each dropped value there and zero each kept one (error
 * feedback).
 *
 * A radix select over the magnitude keys in two full passes. Pass 1
 * histograms the keys' top 11 bits and picks the digit that holds the k-th
 * largest. Every element whose top digit is at least that digit is a
 * candidate, and the histogram says how many there are. Pass 2 writes each
 * index with its value to a candidate list of that size plus one spare slot:
 * every element is written at the cursor, which advances only for
 * candidates, so the loop has no branch. The middle 12 and low 8 bits of
 * the k-th largest key are then resolved over the candidates of its top
 * digit, and one walk of the list emits the survivors. The list is in index
 * order, so the wire layout comes out sorted by index (monotone scatter
 * addresses for a streaming FPGA decompressor). Nothing reads value_at
 * after pass 2, which is where the residual is written.
 */
template <typename ValueAt>
void
selectTopK(const ValueAt &value_at, std::size_t n, std::size_t k,
           SparseGradient &out, float *residual)
{
    constexpr int kTopShift = 20;
    std::array<uint32_t, 1u << 12> count;
    std::fill_n(count.begin(), 1u << 11, 0u);
    for (std::size_t i = 0; i < n; ++i)
        ++count[magnitudeKey(value_at(i)) >> kTopShift];
    std::size_t ties = k;
    const uint32_t top = pickDigit(count, (1u << 11) - 1, ties);
    const std::size_t candidates = k - ties + count[top];

    const auto list = std::make_unique_for_overwrite<Candidate[]>(
        candidates + 1);
    std::size_t size = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const float value = value_at(i);
        list[size] = {static_cast<uint32_t>(i), value};
        size += (magnitudeKey(value) >> kTopShift) >= top;
        if (residual != nullptr)
            residual[i] = value;
    }
    SI_ASSERT(size == candidates, "Top-K listed ", size, " of ", candidates,
              " candidates");

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
        for (std::size_t j = 0; j < size; ++j) {
            const uint32_t key = magnitudeKey(list[j].value);
            if ((key & prefix_mask) == prefix)
                ++count[(key >> digit.shift) & radix_mask];
        }
        prefix |= pickDigit(count, radix_mask, ties) << digit.shift;
        prefix_mask |= radix_mask << digit.shift;
    }

    // The k-th largest key; ties = how many keys equal to it complete
    // the top k.
    const uint32_t threshold = prefix;
    out.indices.reserve(k);
    out.values.reserve(k);
    for (std::size_t j = 0; j < size; ++j) {
        const auto [index, value] = list[j];
        const uint32_t key = magnitudeKey(value);
        if (key > threshold || (key == threshold && ties > 0)) {
            ties -= key == threshold;
            out.indices.push_back(index);
            out.values.push_back(value);
            if (residual != nullptr)
                residual[index] = 0.0f;
        }
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
