#include "bench.h"

#include <algorithm>
#include <iostream>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

Spans::Spans(const std::string &process)
{
    pid_ = sink_.process(process);
    tid_ = sink_.thread(pid_, "host");
}

Span::Span(Spans &spans, const char *name)
    : spans_(spans), recording_(spans.active_)
{
    if (recording_)
        spans_.sink_.durationBegin(spans_.pid_, spans_.tid_, name,
                                   secondsSince(spans_.origin_));
    start_ = Clock::now();
}

double
Span::stop()
{
    if (open_) {
        seconds_ = secondsSince(start_);
        open_ = false;
        if (recording_)
            spans_.sink_.durationEnd(spans_.pid_, spans_.tid_,
                                     secondsSince(spans_.origin_));
    }
    return seconds_;
}

} // namespace perfbench
