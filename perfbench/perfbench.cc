/**
 * @file
 * The repository benchmark program. One process runs one workload:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * It runs one untimed warm-up repetition, then timed repetitions until S
 * seconds have passed, each on a freshly set-up system, and checks every
 * repetition's outputs. With --trace 0 it reports
 * the end-to-end metrics; with --trace 1 it alternates untraced and traced
 * repetitions, reports the per-layer metrics, and writes the traced
 * repetitions' spans to FILE. The last line of standard output is the
 * result as one JSON object. See README.md for the metrics.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench.h"

namespace {

using namespace perfbench;

/** A reported metric: BENCHMARK.json name and unit. */
struct MetricDef {
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// Host times are "s"; simulated times are "sim_s". A metric reads 0 on a
// workload whose layer does no work there.
const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.dispatch_s", "s"},
    {"sim.task_complete_s", "s"},
    {"sim.task_launches", "count"},
    {"net.recompute_s", "s"},
    {"net.recompute_calls", "count"},
    {"net.flows_per_recompute", "count"},
    {"net.flow_callbacks_s", "s"},
    {"net.shared_bytes", "B"},
    {"net.csd_internal_bytes", "B"},
    {"dist.internode_bytes", "B"},
    {"train.setup_s", "s"},
    {"train.run_s", "s"},
    {"train.fw_s", "sim_s"},
    {"train.bw_s", "sim_s"},
    {"train.update_s", "sim_s"},
    {"serve.steps", "count"},
    {"serve.step_build_s", "s"},
    {"serve.summarize_s", "s"},
    {"serve.queue_delay_p50_s", "sim_s"},
    {"serve.queue_delay_p99_s", "sim_s"},
    {"serve.mean_queue_depth", "count"},
    {"serve.output_tokens_per_s", "tok/sim_s"},
    {"serve.kv_spill_read_bytes", "B"},
    {"serve.kv_spill_write_bytes", "B"},
    {"kv.prefix_hit_rate", "frac"},
    {"kv.prefix_evictions", "count"},
    {"kv.cow_copies", "count"},
    {"kv.peak_fragmentation", "ratio"},
    {"kv.peak_used_blocks", "count"},
    {"ctrl.reject_frac", "frac"},
    {"ctrl.load_imbalance", "ratio"},
    {"core.step_s", "s"},
    {"compress.topk_s", "s"},
    {"csd.handler_s", "s"},
    {"compress.wire_bytes_per_step", "B"},
    {"csd.peak_fpga_mem_bytes", "B"},
    {"obs.trace_overhead_frac", "frac"},
    {"sim_iter_s", "sim_s"},
    {"sim_ttft_p50_s", "sim_s"},
    {"sim_ttft_p99_s", "sim_s"},
    {"sim_latency_p50_s", "sim_s"},
    {"sim_latency_p99_s", "sim_s"},
    {"sim_goodput_rps", "1/sim_s"},
    {"sim_slo_attain_frac", "frac"},
};

/** Fewest timed repetitions per run, whatever --seconds says: the
 *  allocator's high-water mark settles after a few repetitions. */
constexpr std::size_t kMinReps = 3;

struct Options {
    std::string workload;
    std::uint64_t seed = 0x5eed;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

void
usage(std::ostream &os)
{
    os << "usage: perfbench --workload NAME --seed N --seconds S "
          "--trace 0|1 [--trace-out FILE]\nworkloads:";
    for (const std::string &name : workloadNames())
        os << " " << name;
    os << "\n";
}

/** Parse argv into @p opt; false (with a message) on any bad argument. */
bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "perfbench: " << flag << " needs a value\n";
            return false;
        }
        const std::string value = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                opt.workload = value;
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value, &used, 0);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value, &used);
                if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
                    used = 0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    std::cerr << "perfbench: --trace takes 0 or 1\n";
                    return false;
                }
                opt.trace = value == "1";
            } else if (flag == "--trace-out") {
                opt.trace_out = value;
            } else {
                std::cerr << "perfbench: unknown argument " << flag << "\n";
                return false;
            }
            if ((flag == "--seed" || flag == "--seconds") &&
                used != value.size()) {
                std::cerr << "perfbench: bad value for " << flag << ": "
                          << value << "\n";
                return false;
            }
        } catch (const std::exception &) {
            std::cerr << "perfbench: bad value for " << flag << ": " << value
                      << "\n";
            return false;
        }
    }
    if (opt.workload.empty()) {
        std::cerr << "perfbench: --workload is required\n";
        return false;
    }
    return true;
}

double
peakRssMib()
{
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** A number with every digit it has (JSON has no NaN/inf; those fail a
 *  check before they get here). */
std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

int
run(const Options &opt)
{
    std::unique_ptr<Workload> workload = makeWorkload(opt.workload, opt.seed);
    if (!workload) {
        std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
        usage(std::cerr);
        return 2;
    }
    Spans spans("perfbench " + opt.workload);
    Checks checks;

    // Set-up is sampled before every repetition, so setup_s, like wall_s,
    // is a median over the whole run.
    const auto setUp = [&] {
        Span span(spans, "setup");
        return workload->setUp();
    };

    // Warm-up: caches fill and the heap grows before anything is timed.
    // Its outputs are checked like every other repetition's.
    setUp();
    workload->rep(spans, checks, nullptr);

    std::vector<double> setup, plain, traced;
    std::vector<Readings> readings;
    const auto start = Clock::now();
    for (;;) {
        const auto cycle = Clock::now();
        setup.push_back(setUp());
        plain.push_back(workload->rep(spans, checks, nullptr));
        if (opt.trace) {
            spans.setActive(true);
            {
                Span rep(spans, "rep");
                readings.emplace_back();
                setUp();
                traced.push_back(
                    workload->rep(spans, checks, &readings.back()));
            }
            spans.setActive(false);
        }
        // Start another cycle only if it should end within --seconds.
        if (plain.size() >= kMinReps &&
            secondsSince(start) + secondsSince(cycle) > opt.seconds)
            break;
    }

    std::vector<std::pair<MetricDef, double>> metrics;
    const double wall = median(plain);
    if (!opt.trace) {
        metrics = {{kEndToEnd[0], median(setup)},
                   {kEndToEnd[1], wall},
                   {kEndToEnd[2], peakRssMib()}};
    } else {
        Readings layer;
        for (const MetricDef &def : kPerLayer) {
            std::vector<double> values;
            for (const Readings &r : readings) {
                const auto it = r.find(def.name);
                values.push_back(it == r.end() ? 0.0 : it->second);
            }
            layer[def.name] = median(values);
        }
        // Rates use the untraced repetitions, so probes do not skew them.
        layer["sim.events_per_s"] = layer["sim.events"] / wall;
        layer["obs.trace_overhead_frac"] = median(traced) / wall - 1.0;
        for (const MetricDef &def : kPerLayer)
            metrics.emplace_back(def, layer[def.name]);
    }
    checks.expect(std::all_of(metrics.begin(), metrics.end(),
                              [](const auto &m) {
                                  return std::isfinite(m.second);
                              }),
                  "a metric is not a finite number");

    if (opt.trace && !opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out);
        spans.write(out);
        out.close();
        checks.expect(static_cast<bool>(out),
                      "could not write the span trace to " + opt.trace_out);
    }

    std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
              << " trace=" << opt.trace << "\n"
              << "  timed repetitions: n=" << plain.size()
              << " p25=" << number(quantile(plain, 0.25))
              << " s p50=" << number(wall)
              << " s p75=" << number(quantile(plain, 0.75)) << " s\n"
              << "  set-ups: n=" << setup.size() << "\n"
              << "  checks: attempted=" << checks.attempted
              << " failed=" << checks.failed << "\n";
    if (opt.trace)
        std::cout << "  traced repetitions: n=" << traced.size() << "\n";
    for (const auto &[def, value] : metrics)
        std::cout << "  " << def.name << " = " << number(value) << " "
                  << def.unit << "\n";

    std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[def, value] = metrics[i];
        std::cout << (i ? ", " : "") << "\"" << def.name
                  << "\": {\"value\": " << number(value) << ", \"unit\": \""
                  << def.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage(std::cerr);
        return 2;
    }
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
