#include "obs/counter_sampler.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "common/logging.h"

namespace smartinf::obs {

CounterSampler::CounterSampler(Seconds window_seconds)
    : window_(window_seconds)
{
    SI_REQUIRE(std::isfinite(window_seconds) && window_seconds > 0.0,
               "counter window must be finite and positive");
}

CounterId
CounterSampler::counter(const std::string &name)
{
    auto [it, inserted] =
        id_by_name_.emplace(name, static_cast<CounterId>(series_.size()));
    if (inserted)
        series_.push_back(Series{name, {}});
    return it->second;
}

void
CounterSampler::fold(Series &series, const Window &w)
{
    // Samples are overwhelmingly time-ordered (simulation time is
    // monotonic), so the common case appends to or updates the trailing
    // window; the general path (merge of arbitrary series) binary-searches
    // the index-sorted window list.
    auto &windows = series.windows;
    Window *target = nullptr;
    if (!windows.empty() && windows.back().index == w.index) {
        target = &windows.back();
    } else if (windows.empty() || windows.back().index < w.index) {
        windows.push_back(w);
        return;
    } else {
        const auto it = std::lower_bound(
            windows.begin(), windows.end(), w.index,
            [](const Window &a, int64_t idx) { return a.index < idx; });
        if (it == windows.end() || it->index != w.index) {
            windows.insert(it, w);
            return;
        }
        target = &*it;
    }
    target->count += w.count;
    target->min = std::min(target->min, w.min);
    target->max = std::max(target->max, w.max);
    target->sum += w.sum;
    if (w.last_t >= target->last_t) {
        target->last = w.last;
        target->last_t = w.last_t;
    }
}

void
CounterSampler::record(CounterId id, Seconds t, double value)
{
    SI_ASSERT(id < series_.size(), "record() on unknown counter id");
    Window w;
    w.index = static_cast<int64_t>(std::floor(t / window_));
    w.count = 1;
    w.min = w.max = w.sum = w.last = value;
    w.last_t = t;
    fold(series_[id], w);
}

void
CounterSampler::record(const std::string &name, Seconds t, double value)
{
    record(counter(name), t, value);
}

const CounterSampler::Series *
CounterSampler::find(const std::string &name) const
{
    const auto it = id_by_name_.find(name);
    return it == id_by_name_.end() ? nullptr : &series_[it->second];
}

double
CounterSampler::peakRate(const std::string &name) const
{
    const Series *s = find(name);
    if (s == nullptr)
        return 0.0;
    double peak = 0.0;
    for (const Window &w : s->windows)
        peak = std::max(peak, static_cast<double>(w.count) / window_);
    return peak;
}

void
CounterSampler::merge(const CounterSampler &other)
{
    SI_REQUIRE(window_ == other.window_,
               "cannot merge samplers with different window widths");
    for (const Series &theirs : other.series_) {
        Series &ours = series_[counter(theirs.name)];
        for (const Window &w : theirs.windows)
            fold(ours, w);
    }
}

void
CounterSampler::writeCsv(std::ostream &os) const
{
    const auto flags = os.flags();
    os << "counter,window_start_s,count,min,max,mean,last\n";
    os << std::setprecision(6) << std::fixed;
    for (const Series &s : series_) {
        for (const Window &w : s.windows) {
            os << s.name << ','
               << static_cast<double>(w.index) * window_ << ',' << w.count
               << ',' << w.min << ',' << w.max << ',' << w.mean() << ','
               << w.last << '\n';
        }
    }
    os.flags(flags);
}

} // namespace smartinf::obs
