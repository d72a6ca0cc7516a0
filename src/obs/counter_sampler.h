/**
 * @file
 * Windowed counter time-series with *mergeable* aggregation — the seed of
 * the ROADMAP's streaming-metrics requirement. Sources push (time, value)
 * samples for named counters (link utilization, queue depth, in-flight
 * batch size, KV occupancy, outstanding events); the sampler folds them
 * into fixed-width time windows keeping only {count, min, max, sum, last}
 * per window, so memory is O(duration / window) per counter no matter how
 * many raw samples land — a 10^6-request trace aggregates instead of
 * accumulating per-sample vectors.
 *
 * The per-window statistic is a commutative semigroup: merging two
 * samplers window-by-window (merge()) gives exactly the sampler that
 * would have seen all samples, which is what lets per-run (and one day
 * per-shard) series combine without a global collection point. "last"
 * merges by latest sample time, so it needs last_t alongside.
 *
 * Passive and simulation-free: record() never touches the simulator;
 * windows are keyed by sample time, not wall clock.
 */
#ifndef SMARTINF_OBS_COUNTER_SAMPLER_H
#define SMARTINF_OBS_COUNTER_SAMPLER_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace smartinf::obs {

/** Interned counter handle (stable within one sampler). */
using CounterId = uint32_t;

/** Windowed, mergeable counter time-series (see file comment). */
class CounterSampler
{
  public:
    /** Mergeable aggregate of one counter over one window. */
    struct Window {
        int64_t index = 0; ///< window start = index * window_seconds
        uint64_t count = 0;
        double min = 0.0;
        double max = 0.0;
        double sum = 0.0;
        double last = 0.0;   ///< value of the latest sample
        Seconds last_t = 0.0; ///< time of the latest sample (merge key)

        double mean() const { return count > 0 ? sum / count : 0.0; }
    };

    /** One counter's name plus its (index-ascending) window list. */
    struct Series {
        std::string name;
        std::vector<Window> windows;
    };

    /** @param window_seconds window width; must be finite and > 0. */
    explicit CounterSampler(Seconds window_seconds);

    /** Intern @p name; stable id for the sampler's lifetime. */
    CounterId counter(const std::string &name);

    /** Fold one sample into @p id's window at @p t. Samples may arrive in
     *  any time order (simulation sources are monotonic; merged or
     *  replayed sources need not be). */
    void record(CounterId id, Seconds t, double value);

    /** Name + record in one call (cold paths / tests). */
    void record(const std::string &name, Seconds t, double value);

    Seconds windowSeconds() const { return window_; }
    const std::vector<Series> &series() const { return series_; }
    /** Series for @p name, or nullptr. */
    const Series *find(const std::string &name) const;
    /** Peak per-second sample count over @p name's windows (0 when the
     *  series is absent). */
    double peakRate(const std::string &name) const;

    /** Fold @p other into this sampler. Requires equal window widths.
     *  Counter names merge by name; windows merge by index. */
    void merge(const CounterSampler &other);

    /** CSV: counter,window_start_s,count,min,max,mean,last (header row
     *  first; rows grouped by counter, windows ascending). */
    void writeCsv(std::ostream &os) const;

  private:
    void fold(Series &series, const Window &w);

    Seconds window_;
    std::vector<Series> series_;
    std::unordered_map<std::string, CounterId> id_by_name_;
};

} // namespace smartinf::obs

#endif // SMARTINF_OBS_COUNTER_SAMPLER_H
