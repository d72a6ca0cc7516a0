/**
 * @file
 * The repository benchmark's workload interface and the harness pieces the
 * workloads share: output checks, host-time spans, and per-layer readings.
 *
 * The benchmark measures every layer from outside: it times calls into
 * public functions, reads public result structs, and reads the
 * obs::Profiler counters. It adds no probes inside src/.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** Linearly interpolated @p q-quantile of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/** Pass/fail tally of the output checks (the result's attempted/failed). */
struct Checks {
    long attempted = 0;
    long failed = 0;

    /** Count one check; a failure is reported on stderr by @p what. */
    void expect(bool ok, const std::string &what);
};

/**
 * Host-time spans of the traced run, kept in memory and written as a
 * Chrome trace (obs::TraceSink) when the benchmark ends. Spans nest, so a
 * span's self time is its duration minus its children's. While inactive
 * (untraced repetitions) nothing is recorded.
 */
class Spans
{
  public:
    explicit Spans(const std::string &process);

    void setActive(bool on) { active_ = on; }
    void write(std::ostream &os) const { sink_.write(os); }

  private:
    friend class Span;

    bool active_ = false;
    smartinf::obs::TraceSink sink_;
    std::uint32_t pid_ = 0;
    std::uint32_t tid_ = 0;
    Clock::time_point origin_ = Clock::now();
};

/** One timed region: its host seconds, and a span while tracing. */
class Span
{
  public:
    Span(Spans &spans, const char *name);
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the region (idempotent) and return its host seconds. */
    double stop();

  private:
    Spans &spans_;
    bool recording_;
    bool open_ = true;
    Clock::time_point start_{};
    double seconds_ = 0.0;
};

/** Per-layer readings of one traced repetition, by metric name. */
using Readings = std::map<std::string, double>;

/**
 * One benchmark workload. Inputs are generated from the seed when the
 * workload is made, outside every timed region.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Construct the system the next rep() runs on, replacing any earlier
     * one. Returns one sample of the host seconds construction takes.
     */
    virtual double setUp() = 0;

    /**
     * One repetition on the system the last setUp() constructed. Returns
     * the host seconds of the timed region; the output checks run after
     * it. With @p traced non-null the obs::Profiler is on and the
     * repetition's per-layer readings are stored there.
     */
    virtual double rep(Spans &spans, Checks &checks, Readings *traced) = 0;
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** The workload called @p name with inputs drawn from @p seed, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
