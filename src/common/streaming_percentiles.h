/**
 * @file
 * Streaming order statistics with a fixed memory bound: a geometric-bin
 * histogram plus an exact buffer for small populations. Up to the exact
 * cap, percentiles are nearest-rank on the recorded samples (an actual
 * sample, never an interpolation) and the mean sums them in ascending
 * order, so both are functions of the population alone, not of the order
 * it arrived in. Above the cap the exact buffer is dropped and
 * percentiles come from the histogram: the estimate for a value in
 * [kMinValue, kMaxValue) is the geometric midpoint of its bin, so the
 * relative error is at most sqrt(kGrowth) - 1 (< 2%), and values below
 * kMinValue report 0 with absolute error < kMinValue (one microsecond
 * for latency populations). Count, min, and max stay exact at every
 * size; above the cap the mean is the running sum over the count.
 * Deterministic: no randomness, no wall clock.
 */
#ifndef SMARTINF_COMMON_STREAMING_PERCENTILES_H
#define SMARTINF_COMMON_STREAMING_PERCENTILES_H

#include <cstdint>
#include <vector>

namespace smartinf {

/** Bounded-memory percentile sketch (see file comment). */
class StreamingPercentiles
{
  public:
    /** Smallest distinguishable value; anything below (incl. <= 0) lands
     *  in the underflow bin and reports 0. */
    static constexpr double kMinValue = 1e-6;
    /** Largest distinguishable value; anything at or above lands in the
     *  overflow bin and reports kMaxValue. */
    static constexpr double kMaxValue = 1e6;
    /** Geometric bin width: each bin spans [lo, lo * kGrowth). */
    static constexpr double kGrowth = 1.04;

    /** Worst-case relative error of a histogram-mode percentile for
     *  values inside [kMinValue, kMaxValue): sqrt(kGrowth) - 1. */
    static double maxRelativeError();

    /** @param exact_cap population size up to which percentiles are
     *  exact (the record-cap knob); must be >= 0. */
    explicit StreamingPercentiles(int exact_cap = 4096);

    /** Fold one sample in. */
    void record(double value);

    /** True while percentile() is nearest-rank on the full population. */
    bool exact() const { return exact_; }

    std::int64_t count() const { return count_; }
    /** Arithmetic mean (0 when empty). Up to the cap the samples are
     *  summed in ascending order; above it, in the order recorded. */
    double mean() const;
    double minValue() const { return count_ > 0 ? min_ : 0.0; }
    double maxValue() const { return count_ > 0 ? max_ : 0.0; }

    /**
     * Nearest-rank percentile (@p pct in [0, 100]; empty population =>
     * 0.0, a single sample => that sample). Exact below the cap; the
     * binned estimate of the nearest-rank sample above it.
     */
    double percentile(double pct) const;

  private:
    static int binIndex(double value);
    static double binEstimate(int bin);
    /** Exact mode: a sorted copy of the population. */
    std::vector<double> sortedSamples() const;

    int exact_cap_;
    bool exact_ = true;
    std::int64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<double> samples_;     ///< dropped once count_ > exact_cap_
    std::vector<std::int64_t> bins_;  ///< lazily sized on first record()
};

} // namespace smartinf

#endif // SMARTINF_COMMON_STREAMING_PERCENTILES_H
