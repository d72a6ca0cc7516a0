/** @file Tests for Top-K gradient compression. */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "compress/topk.h"

namespace smartinf::compress {
namespace {

TEST(TopK, SelectsHighestMagnitudes)
{
    std::vector<float> g{0.1f, -5.0f, 0.2f, 4.0f, -0.3f, 0.05f};
    TopKCompressor comp(2.0 / 6.0); // Keep 2 of 6.
    const auto sparse = comp.compress(g.data(), g.size());
    ASSERT_EQ(sparse.indices.size(), 2u);
    EXPECT_EQ(sparse.indices[0], 1u); // -5.0
    EXPECT_EQ(sparse.indices[1], 3u); // 4.0
    EXPECT_FLOAT_EQ(sparse.values[0], -5.0f);
    EXPECT_FLOAT_EQ(sparse.values[1], 4.0f);
}

TEST(TopK, DecompressScattersAndZeroes)
{
    std::vector<float> g{0.1f, -5.0f, 0.2f, 4.0f};
    TopKCompressor comp(0.5);
    const auto sparse = comp.compress(g.data(), g.size());
    std::vector<float> out(4, 99.0f);
    TopKCompressor::decompress(sparse, out.data(), out.size());
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], -5.0f);
    EXPECT_FLOAT_EQ(out[2], 0.0f);
    EXPECT_FLOAT_EQ(out[3], 4.0f);
}

TEST(TopK, WireConventionMatchesPaper)
{
    // Top 1% selection => 2% wire volume (index+value per survivor).
    TopKCompressor comp(0.01);
    EXPECT_DOUBLE_EQ(comp.wireFraction(), 0.02);
    std::vector<float> g(10000);
    Rng rng(3);
    for (auto &v : g)
        v = static_cast<float>(rng.normal());
    const auto sparse = comp.compress(g.data(), g.size());
    EXPECT_EQ(sparse.indices.size(), 100u);
    EXPECT_NEAR(sparse.wireRatio(), 0.02, 1e-9);
}

TEST(TopK, KeepCountAtLeastOne)
{
    TopKCompressor comp(0.001);
    EXPECT_EQ(comp.keepCount(5), 1u);
    EXPECT_EQ(comp.keepCount(0), 0u);
    EXPECT_EQ(comp.keepCount(10000), 10u);
}

TEST(TopK, FullKeepIsLossless)
{
    std::vector<float> g{1.0f, -2.0f, 0.0f, 3.5f};
    TopKCompressor comp(1.0);
    const auto sparse = comp.compress(g.data(), g.size());
    std::vector<float> out(4, 0.0f);
    TopKCompressor::decompress(sparse, out.data(), out.size());
    EXPECT_EQ(out, g);
}

TEST(TopK, IndicesAreSortedAscending)
{
    std::vector<float> g(1000);
    Rng rng(5);
    for (auto &v : g)
        v = static_cast<float>(rng.normal());
    TopKCompressor comp(0.1);
    const auto sparse = comp.compress(g.data(), g.size());
    EXPECT_TRUE(std::is_sorted(sparse.indices.begin(), sparse.indices.end()));
}

TEST(TopK, ErrorFeedbackAccumulatesResidual)
{
    TopKCompressor comp(0.25, /*error_feedback=*/true);
    std::vector<float> g{1.0f, 0.5f, 0.4f, 0.3f};
    comp.compress(g.data(), g.size()); // Keeps only 1.0.
    EXPECT_GT(comp.residualEnergy(), 0.0);
    // The residual of 0.5 plus a new 0.6 should now beat a fresh 1.0? No —
    // but repeated small values eventually surface:
    std::vector<float> g2{0.0f, 0.5f, 0.0f, 0.0f};
    const auto sparse = comp.compress(g2.data(), g2.size());
    // Accumulated: index1 = 0.5 (residual) + 0.5 = 1.0 -> selected.
    ASSERT_EQ(sparse.indices.size(), 1u);
    EXPECT_EQ(sparse.indices[0], 1u);
    EXPECT_FLOAT_EQ(sparse.values[0], 1.0f);
}

TEST(TopK, ErrorFeedbackSizeChangeIsFatal)
{
    TopKCompressor comp(0.5, true);
    std::vector<float> g(10, 1.0f);
    comp.compress(g.data(), g.size());
    EXPECT_THROW(comp.compress(g.data(), 5), std::runtime_error);
}

TEST(TopK, DecompressSizeMismatchIsFatal)
{
    SparseGradient sparse;
    sparse.dense_size = 10;
    std::vector<float> out(5);
    EXPECT_THROW(TopKCompressor::decompress(sparse, out.data(), 5),
                 std::runtime_error);
}

TEST(TopK, InvalidKeepFractionIsFatal)
{
    EXPECT_THROW(TopKCompressor(0.0), std::runtime_error);
    EXPECT_THROW(TopKCompressor(1.5), std::runtime_error);
}

/**
 * The selection Top-K made before the radix select, kept as the reference:
 * copy the working vector, nth_element an index array by fabs, sort the
 * survivors. On tie-free inputs it defines the selection uniquely.
 */
struct NthElementTopK {
    double keep_fraction;
    bool error_feedback;
    std::vector<float> residual;

    SparseGradient
    compress(const float *grad, std::size_t n)
    {
        SparseGradient out;
        out.dense_size = n;
        std::vector<float> work(grad, grad + n);
        if (error_feedback) {
            residual.resize(n, 0.0f);
            for (std::size_t i = 0; i < n; ++i)
                work[i] += residual[i];
        }
        const std::size_t k =
            TopKCompressor(keep_fraction, error_feedback).keepCount(n);
        std::vector<uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return std::fabs(work[a]) > std::fabs(work[b]);
                         });
        order.resize(k);
        std::sort(order.begin(), order.end());
        out.indices = order;
        for (uint32_t idx : order)
            out.values.push_back(work[idx]);
        if (error_feedback) {
            residual = work;
            for (uint32_t idx : order)
                residual[idx] = 0.0f;
        }
        return out;
    }
};

/** 1..n times 2^-10 in a random order with random signs: no two elements
 *  share a magnitude. */
std::vector<float>
shuffledMagnitudes(std::size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<float>(i + 1) * 0x1.0p-10f;
    for (std::size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(i)]);
    for (auto &x : v)
        x = rng.uniform() < 0.5 ? -x : x;
    return v;
}

std::vector<uint32_t>
bitsOf(const std::vector<float> &v)
{
    std::vector<uint32_t> bits(v.size());
    std::transform(v.begin(), v.end(), bits.begin(),
                   [](float x) { return std::bit_cast<uint32_t>(x); });
    return bits;
}

TEST(TopK, MatchesNthElementReferenceWithoutTies)
{
    Rng rng(2024);
    for (std::size_t n : {1, 2, 7, 50, 99, 100, 101, 1000, 4097, 65539}) {
        for (double keep : {0.001, 0.01, 0.1, 0.25, 0.5, 1.0}) {
            for (bool feedback : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "n=" << n << " keep=" << keep
                             << " feedback=" << feedback);
                TopKCompressor comp(keep, feedback);
                NthElementTopK reference{keep, feedback, {}};
                for (int round = 0; round < 3; ++round) {
                    // Draw the working vector tie-free, then subtract the
                    // residual to get the gradient. Multiples of 2^-10
                    // below 2^8 make every sum and difference exact.
                    std::vector<float> work = shuffledMagnitudes(n, rng);
                    std::vector<float> g = work;
                    for (std::size_t i = 0; i < reference.residual.size();
                         ++i)
                        g[i] -= reference.residual[i];

                    const auto got = comp.compress(g.data(), n);
                    const auto want = reference.compress(g.data(), n);
                    ASSERT_EQ(got.dense_size, n);
                    ASSERT_EQ(got.indices, want.indices);
                    ASSERT_EQ(bitsOf(got.values), bitsOf(want.values));
                    ASSERT_EQ(bitsOf(comp.residual()),
                              bitsOf(reference.residual));
                }
            }
        }
    }
}

TEST(TopK, TiesBreakByLowestIndex)
{
    // |x| = 1 is the 3rd largest magnitude and four elements share it:
    // 3.0 and 2.0 are kept, then the lowest-index 1.0 (index 2).
    std::vector<float> g{0.5f, 2.0f, -1.0f, 1.0f, 3.0f, -1.0f, 1.0f};
    TopKCompressor comp(3.0 / 7.0);
    const auto sparse = comp.compress(g.data(), g.size());
    EXPECT_EQ(sparse.indices, (std::vector<uint32_t>{1, 2, 4}));
    EXPECT_EQ(sparse.values, (std::vector<float>{2.0f, -1.0f, 3.0f}));

    // All equal magnitudes: the first k indices win.
    std::vector<float> flat(100);
    for (std::size_t i = 0; i < flat.size(); ++i)
        flat[i] = i % 2 == 0 ? 0.25f : -0.25f;
    const auto first = TopKCompressor(0.1).compress(flat.data(), flat.size());
    std::vector<uint32_t> want(10);
    std::iota(want.begin(), want.end(), 0u);
    EXPECT_EQ(first.indices, want);
}

TEST(TopK, NonFiniteRanksAboveFinite)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> g{1.0f, -inf, 3e38f, nan, -2.0f, inf, 0.0f, -nan};
    auto keep = [&](std::size_t k) {
        TopKCompressor comp(static_cast<double>(k) / g.size());
        const auto sparse = comp.compress(g.data(), g.size());
        EXPECT_EQ(sparse.indices.size(), k);
        return sparse.indices;
    };
    // NaN (either sign) ranks above +-inf, which rank above every finite
    // magnitude; equal ranks break by index.
    EXPECT_EQ(keep(1), (std::vector<uint32_t>{3}));
    EXPECT_EQ(keep(2), (std::vector<uint32_t>{3, 7}));
    EXPECT_EQ(keep(3), (std::vector<uint32_t>{1, 3, 7}));
    EXPECT_EQ(keep(4), (std::vector<uint32_t>{1, 3, 5, 7}));
    EXPECT_EQ(keep(5), (std::vector<uint32_t>{1, 2, 3, 5, 7}));
    // Deterministic: the same input always gives the same selection.
    EXPECT_EQ(keep(4), keep(4));
}

/**
 * The nth_element reference made total for ties: rank by magnitude key
 * (|x|'s bits, so +-inf above finite and NaN above +-inf), then by lowest
 * index, which is Top-K's documented order. The selection is unique.
 */
SparseGradient
rankedTopK(const std::vector<float> &g, std::size_t k)
{
    auto key = [&](uint32_t i) {
        return std::bit_cast<uint32_t>(g[i]) & 0x7fffffffu;
    };
    std::vector<uint32_t> order(g.size());
    std::iota(order.begin(), order.end(), 0u);
    std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return key(a) != key(b) ? key(a) > key(b) : a < b;
                     });
    order.resize(k);
    std::sort(order.begin(), order.end());
    SparseGradient out;
    out.dense_size = g.size();
    out.indices = order;
    for (uint32_t i : order)
        out.values.push_back(g[i]);
    return out;
}

/** Floats from raw bit patterns. */
std::vector<float>
fromBits(const std::vector<uint32_t> &bits)
{
    std::vector<float> v(bits.size());
    std::transform(bits.begin(), bits.end(), v.begin(),
                   [](uint32_t b) { return std::bit_cast<float>(b); });
    return v;
}

/**
 * Shards whose magnitudes crowd into one top-11-bit bucket (or a few), so
 * the gathered bucket is most or all of the shard and ties are everywhere.
 * Every k from 1 to n must select exactly what the reference selects.
 */
TEST(TopK, OneBucketShardsMatchRankedReference)
{
    Rng rng(77);
    const std::size_t n = 997;
    std::vector<std::pair<const char *, std::vector<float>>> shards;
    shards.emplace_back("all equal", std::vector<float>(n, -0.375f));
    std::vector<uint32_t> low(n), lowest(n), zeros(n), denormal(n),
        nonfinite(n);
    for (std::size_t i = 0; i < n; ++i) {
        const uint32_t sign = rng.uniform() < 0.5 ? 0x80000000u : 0u;
        // 1.5 with random low 20 mantissa bits: one top bucket.
        low[i] = sign | 0x3fc00000u | static_cast<uint32_t>(rng.next() & 0xfffffu);
        // Only the low 4 bits differ: one middle digit too, many ties.
        lowest[i] = sign | 0x3fc00000u | static_cast<uint32_t>(rng.next() & 0xfu);
        // Mostly +-0 with a few ones: k runs past the nonzero count.
        zeros[i] = sign | (rng.uniform() < 0.05 ? 0x3f800000u : 0u);
        // Denormals: exponent 0, random mantissa.
        denormal[i] = sign | static_cast<uint32_t>(rng.next() & 0x7fffffu);
        // inf, NaNs of several payloads, and a few finite values.
        const double u = rng.uniform();
        nonfinite[i] = sign | (u < 0.4   ? 0x7f800000u
                               : u < 0.6 ? 0x7fc00000u
                               : u < 0.8 ? 0x7f800001u + static_cast<uint32_t>(
                                                             rng.next() & 0x3u)
                                         : 0x40000000u);
    }
    shards.emplace_back("low mantissa bits", fromBits(low));
    shards.emplace_back("lowest mantissa bits", fromBits(lowest));
    shards.emplace_back("+-0 mix", fromBits(zeros));
    shards.emplace_back("denormals", fromBits(denormal));
    shards.emplace_back("NaN/inf heavy", fromBits(nonfinite));

    for (const auto &[name, g] : shards) {
        for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{50},
                              std::size_t{498}, n - 1, n}) {
            SCOPED_TRACE(::testing::Message() << name << " k=" << k);
            TopKCompressor comp(static_cast<double>(k) / n);
            ASSERT_EQ(comp.keepCount(n), k);
            const auto got = comp.compress(g.data(), n);
            const auto want = rankedTopK(g, k);
            ASSERT_EQ(got.indices, want.indices);
            ASSERT_EQ(bitsOf(got.values), bitsOf(want.values));
        }
    }
}

/** rankedTopK with error feedback: select over grad + residual, keep the
 *  dropped remainder. */
struct RankedFeedbackTopK {
    std::vector<float> residual;

    SparseGradient
    compress(const std::vector<float> &g, std::size_t k)
    {
        std::vector<float> work = g;
        residual.resize(g.size(), 0.0f);
        for (std::size_t i = 0; i < g.size(); ++i)
            work[i] = g[i] + residual[i];
        SparseGradient out = rankedTopK(work, k);
        residual = work;
        for (uint32_t i : out.indices)
            residual[i] = 0.0f;
        return out;
    }
};

/**
 * Top-K lists every element whose top 11 key bits reach the k-th largest's
 * into a candidate list sized from the histogram, plus one spare slot for
 * the cursor's last unconditional write. Shards at that list's edges:
 * every element a candidate, a non-candidate last element (the spare slot
 * taken), keep fraction 1.0, and a threshold digit that holds only ties.
 */
TEST(TopK, CandidateListEdgesMatchRankedReference)
{
    const std::size_t n = 600;
    std::vector<std::pair<const char *, std::vector<float>>> shards;
    std::vector<float> equal(n);
    for (std::size_t i = 0; i < n; ++i)
        equal[i] = i % 3 == 0 ? -0.375f : 0.375f;
    shards.emplace_back("every magnitude equal", equal);
    // Every element but the last is a candidate for every k < n.
    std::vector<float> last_small = equal;
    last_small.back() = 1e-3f;
    shards.emplace_back("last element below", last_small);
    // 40 distinct magnitudes in higher top digits, 200 ties at 0.375 in
    // the threshold digit, the rest far below: for 40 < k <= 240 the
    // threshold digit holds only ties.
    std::vector<float> tie_digit(n, 1e-6f);
    for (std::size_t i = 0; i < 40; ++i)
        tie_digit[i * 15 + 7] = static_cast<float>(i + 1) * 4.0f;
    for (std::size_t i = 0, placed = 0; placed < 200; i += 3) {
        if (tie_digit[i] == 1e-6f) {
            tie_digit[i] = placed % 2 == 0 ? 0.375f : -0.375f;
            ++placed;
        }
    }
    shards.emplace_back("threshold digit only ties", tie_digit);

    for (const auto &[name, g] : shards) {
        for (std::size_t k : {std::size_t{1}, std::size_t{39}, std::size_t{41},
                              std::size_t{140}, std::size_t{240},
                              std::size_t{241}, n - 1, n}) {
            SCOPED_TRACE(::testing::Message() << name << " k=" << k);
            TopKCompressor comp(static_cast<double>(k) / n);
            ASSERT_EQ(comp.keepCount(n), k);
            const auto got = comp.compress(g.data(), n);
            const auto want = rankedTopK(g, k);
            ASSERT_EQ(got.indices, want.indices);
            ASSERT_EQ(bitsOf(got.values), bitsOf(want.values));
        }
    }

    // keep_fraction 1.0 keeps the whole shard in order, ties and all.
    for (const auto &[name, g] : shards) {
        const auto all = TopKCompressor(1.0).compress(g.data(), n);
        std::vector<uint32_t> every(n);
        std::iota(every.begin(), every.end(), 0u);
        EXPECT_EQ(all.indices, every) << name;
        EXPECT_EQ(bitsOf(all.values), bitsOf(g)) << name;
    }
}

/**
 * Error feedback over several calls whose candidate sets differ: the
 * selection and the residual must match the ranked reference bit for bit,
 * including ties that the residual creates and the keep-all case.
 */
TEST(TopK, ErrorFeedbackTracksRankedReferenceAcrossCalls)
{
    Rng rng(31);
    const std::size_t n = 1031;
    for (double keep : {0.01, 0.1, 0.5, 1.0}) {
        SCOPED_TRACE(::testing::Message() << "keep=" << keep);
        TopKCompressor comp(keep, /*error_feedback=*/true);
        RankedFeedbackTopK reference;
        const std::size_t k = comp.keepCount(n);
        for (int call = 0; call < 6; ++call) {
            SCOPED_TRACE(::testing::Message() << "call=" << call);
            // Quantized values (multiples of 1/8 up to 4) tie often; a
            // moving hot spot changes which elements are candidates.
            std::vector<float> g(n);
            for (std::size_t i = 0; i < n; ++i)
                g[i] = static_cast<float>(
                           static_cast<int>(rng.uniformInt(65)) - 32) /
                       8.0f;
            for (std::size_t i = 0; i < 20; ++i)
                g[(call * 173 + i * 7) % n] = 64.0f + static_cast<float>(i);
            const auto got = comp.compress(g.data(), n);
            const auto want = reference.compress(g, k);
            ASSERT_EQ(got.indices, want.indices);
            ASSERT_EQ(bitsOf(got.values), bitsOf(want.values));
            ASSERT_EQ(bitsOf(comp.residual()), bitsOf(reference.residual));
        }
    }
}

/** Property: compression preserves the top-k energy of the gradient. */
class TopKRatio : public ::testing::TestWithParam<double>
{
};

TEST_P(TopKRatio, PreservedEnergyDominates)
{
    const double ratio = GetParam();
    Rng rng(42);
    std::vector<float> g(4096);
    for (auto &v : g)
        v = static_cast<float>(rng.normal());
    TopKCompressor comp(ratio);
    const auto sparse = comp.compress(g.data(), g.size());

    std::vector<float> dense(g.size());
    TopKCompressor::decompress(sparse, dense.data(), dense.size());
    double kept = 0.0, total = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) {
        total += static_cast<double>(g[i]) * g[i];
        kept += static_cast<double>(dense[i]) * dense[i];
    }
    // Any kept element has magnitude >= any dropped one, so kept energy is
    // at least `ratio` of the total; for Gaussians it is far more.
    EXPECT_GE(kept / total, ratio);
    // Selected count follows the ratio.
    EXPECT_EQ(sparse.indices.size(), comp.keepCount(g.size()));
}

INSTANTIATE_TEST_SUITE_P(Ratios, TopKRatio,
                         ::testing::Values(0.005, 0.01, 0.025, 0.05, 0.1,
                                           0.5));

} // namespace
} // namespace smartinf::compress
