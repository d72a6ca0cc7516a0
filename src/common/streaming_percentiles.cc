#include "common/streaming_percentiles.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace smartinf {

namespace {

/** Inner bins spanning [kMinValue, kMaxValue); +2 for under/overflow. */
int
innerBins()
{
    static const int n = static_cast<int>(std::ceil(
        std::log(StreamingPercentiles::kMaxValue /
                 StreamingPercentiles::kMinValue) /
        std::log(StreamingPercentiles::kGrowth)));
    return n;
}

} // namespace

double
StreamingPercentiles::maxRelativeError()
{
    return std::sqrt(kGrowth) - 1.0;
}

StreamingPercentiles::StreamingPercentiles(int exact_cap)
    : exact_cap_(exact_cap)
{
    SI_ASSERT(exact_cap >= 0, "StreamingPercentiles exact_cap must be >= 0");
}

int
StreamingPercentiles::binIndex(double value)
{
    if (!(value >= kMinValue))
        return 0; // underflow (incl. <= 0 and NaN-safe via the negation)
    if (value >= kMaxValue)
        return innerBins() + 1;
    const int i = 1 + static_cast<int>(std::log(value / kMinValue) /
                                       std::log(kGrowth));
    // Floating rounding at an exact bin edge can land one off; the clamp
    // keeps the estimate within one bin of the truth either way.
    return std::clamp(i, 1, innerBins());
}

double
StreamingPercentiles::binEstimate(int bin)
{
    if (bin <= 0)
        return 0.0; // below kMinValue: absolute error < kMinValue
    if (bin > innerBins())
        return kMaxValue;
    // Geometric midpoint of [kMin * g^(bin-1), kMin * g^bin): the
    // relative error against any value in the bin is <= sqrt(g) - 1.
    return kMinValue * std::pow(kGrowth, static_cast<double>(bin) - 0.5);
}

void
StreamingPercentiles::record(double value)
{
    if (bins_.empty())
        bins_.assign(static_cast<std::size_t>(innerBins()) + 2, 0);
    ++count_;
    sum_ += value;
    min_ = count_ == 1 ? value : std::min(min_, value);
    max_ = count_ == 1 ? value : std::max(max_, value);
    ++bins_[static_cast<std::size_t>(binIndex(value))];
    if (exact_) {
        if (count_ <= exact_cap_) {
            samples_.push_back(value);
        } else {
            exact_ = false;
            samples_.clear();
            samples_.shrink_to_fit();
        }
    }
}

std::vector<double>
StreamingPercentiles::sortedSamples() const
{
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

double
StreamingPercentiles::mean() const
{
    if (count_ == 0)
        return 0.0;
    if (!exact_)
        return sum_ / static_cast<double>(count_);
    // Ascending-order sum: a function of the population alone, so the
    // mean does not depend on the order the samples were folded in.
    double sum = 0.0;
    for (const double v : sortedSamples())
        sum += v;
    return sum / static_cast<double>(count_);
}

double
StreamingPercentiles::percentile(double pct) const
{
    if (count_ == 0)
        return 0.0;
    // Nearest rank, clamped into [1, count] so tiny populations and
    // rounding at pct near 0 or 100 never index out of range.
    const double raw = std::ceil(pct / 100.0 * static_cast<double>(count_));
    const std::int64_t rank = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::max(raw, 1.0)), 1, count_);
    if (exact_)
        return sortedSamples()[static_cast<std::size_t>(rank) - 1];
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (seen >= rank)
            return binEstimate(static_cast<int>(i));
    }
    SI_ASSERT(false, "histogram count drifted from the sample count");
    return 0.0;
}

} // namespace smartinf
