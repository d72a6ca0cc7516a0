/**
 * @file
 * The one benchmark front door. Every paper figure/table reproduction,
 * ablation, and the scale-out study is a named scenario in the exp/
 * registry; this CLI lists them, runs any subset (or all), renders results
 * as aligned text, JSON, or CSV, and executes the underlying engine sweeps
 * on a thread pool with cross-scenario result caching — shared references
 * (e.g. the GPT-2 4.0B BASE runs used by several figures) simulate once
 * per invocation.
 *
 *   smartinf_bench --list
 *   smartinf_bench --scenario fig09 --format json --jobs 8
 *   smartinf_bench --all --format csv --out results.csv
 */
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/result_io.h"
#include "exp/scenario.h"
#include "obs/observation.h"

using namespace smartinf;

namespace {

int
usage(std::ostream &os, int code)
{
    os << "usage: smartinf_bench [options]\n"
          "  --list            list registered scenarios and exit\n"
          "  --scenario NAME   run scenario NAME (repeatable)\n"
          "  --all             run every registered scenario\n"
          "  --format FORMAT   text (aligned tables), json (full\n"
          "                    structure), csv (tables), or records-csv\n"
          "                    (one flat line per engine run across all\n"
          "                    selected scenarios); default: text\n"
          "  --jobs N          sweep worker threads (default: hardware\n"
          "                    concurrency)\n"
          "  --out FILE        write output to FILE (default: stdout)\n"
          "  --no-cache        disable the sweep result cache\n"
          "  --quiet           suppress run-count stats on stderr\n"
          "  --trace FILE      record every engine run's simulation\n"
          "                    timeline and write Chrome-trace/Perfetto\n"
          "                    JSON to FILE (open in ui.perfetto.dev);\n"
          "                    forces --jobs 1 and disables the cache so\n"
          "                    every selected run is traced\n"
          "  --metrics FILE    write windowed counter time-series (link\n"
          "                    utilization, queue depth, KV occupancy,\n"
          "                    ...) as CSV to FILE; same forcing as\n"
          "                    --trace\n"
          "  --metrics-window S  counter window width in simulated\n"
          "                    seconds (default: 1.0)\n";
    return code;
}

void
printText(std::ostream &os, const exp::ScenarioResult &result)
{
    for (const auto &table : result.tables)
        table.print(os);
    for (const auto &note : result.notes)
        os << note << "\n";
}

void
printCsv(std::ostream &os, const exp::ScenarioResult &result)
{
    for (const auto &table : result.tables) {
        table.printCsv(os);
        os << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false, all = false, no_cache = false, quiet = false;
    std::string format = "text", out_path;
    obs::ObservationOptions obs_options;
    std::vector<std::string> names;
    int jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs < 1)
        jobs = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << flag << "\n";
                exit(usage(std::cerr, 2));
            }
            return argv[++i];
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--scenario") {
            names.push_back(value("--scenario"));
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--format") {
            format = value("--format");
        } else if (arg == "--jobs") {
            const std::string v = value("--jobs");
            try {
                jobs = std::stoi(v);
            } catch (const std::exception &) {
                std::cerr << "bad --jobs value: " << v << "\n";
                return usage(std::cerr, 2);
            }
        } else if (arg == "--out") {
            out_path = value("--out");
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--trace") {
            obs_options.trace_path = value("--trace");
        } else if (arg == "--metrics") {
            obs_options.metrics_path = value("--metrics");
        } else if (arg == "--metrics-window") {
            const std::string v = value("--metrics-window");
            try {
                obs_options.metrics_window = std::stod(v);
            } catch (const std::exception &) {
                obs_options.metrics_window = 0.0;
            }
            if (!std::isfinite(obs_options.metrics_window) ||
                obs_options.metrics_window <= 0.0) {
                std::cerr << "bad --metrics-window value: " << v << "\n";
                return usage(std::cerr, 2);
            }
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return usage(std::cerr, 2);
        }
    }
    if (format != "text" && format != "json" && format != "csv" &&
        format != "records-csv") {
        std::cerr << "unknown format: " << format << "\n";
        return usage(std::cerr, 2);
    }

    // Opt-in observability: install the session before anything runs.
    // Tracing serializes runs (one merge order, no cross-run interleaving
    // races) and disables the cache (a cache hit would skip the run —
    // and its timeline — entirely). Never affects simulated results.
    const bool observing = !obs_options.trace_path.empty() ||
                           !obs_options.metrics_path.empty();
    std::unique_ptr<obs::Observation> observation;
    if (observing) {
        observation = std::make_unique<obs::Observation>(obs_options);
        observation->install();
        if (jobs != 1 && !quiet)
            std::cerr << "[smartinf_bench] --trace/--metrics force "
                         "--jobs 1\n";
        jobs = 1;
        no_cache = true;
    }

    exp::registerBuiltinScenarios();
    auto &registry = exp::ScenarioRegistry::instance();

    if (list) {
        for (const auto *s : registry.all())
            std::cout << s->name << "\t" << s->title << "\n";
        return 0;
    }
    if (all)
        for (const auto *s : registry.all())
            names.push_back(s->name);
    if (names.empty()) {
        std::cerr << "nothing to run: pass --scenario NAME, --all, or "
                     "--list\n";
        return usage(std::cerr, 2);
    }

    // Resolve every name before running anything: a typo in the last name
    // must not waste the earlier runs or truncate the output document.
    std::vector<const exp::Scenario *> scenarios;
    for (const auto &name : names) {
        const auto *scenario = registry.find(name);
        if (!scenario) {
            std::cerr << "unknown scenario: " << name << " (try --list)\n";
            return 1;
        }
        scenarios.push_back(scenario);
    }

    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file) {
            std::cerr << "cannot open " << out_path << " for writing\n";
            return 1;
        }
    }
    std::ostream &os = out_path.empty() ? std::cout : file;

    exp::SweepRunner::Options options;
    options.jobs = jobs;
    options.cache = !no_cache;
    exp::SweepRunner runner(options);
    exp::ScenarioContext ctx{runner};

    if (format == "json")
        os << "[";
    bool first = true;
    std::vector<exp::RunRecord> all_records;
    for (const auto *scenario : scenarios) {
        const exp::ScenarioResult result = scenario->run(ctx);
        if (format == "json") {
            if (!first)
                os << ",";
            exp::writeScenarioJson(os, scenario->name, scenario->title,
                                   result);
        } else if (format == "csv") {
            printCsv(os, result);
        } else if (format == "records-csv") {
            all_records.insert(all_records.end(), result.records.begin(),
                               result.records.end());
        } else {
            printText(os, result);
        }
        first = false;
    }
    if (format == "json")
        os << "]\n";
    else if (format == "records-csv")
        exp::writeRecordsCsv(os, all_records);

    if (observation) {
        if (!observation->writeOutputs()) {
            std::cerr << "cannot write --trace/--metrics output\n";
            return 1;
        }
        if (!quiet) {
            std::cerr << "[smartinf_bench] observed "
                      << observation->runsRecorded() << " runs";
            if (!obs_options.trace_path.empty())
                std::cerr << ", trace -> " << obs_options.trace_path;
            if (!obs_options.metrics_path.empty())
                std::cerr << ", metrics -> " << obs_options.metrics_path;
            std::cerr << "\n";
        }
    }

    if (!quiet)
        std::cerr << "[smartinf_bench] " << runner.executedRuns()
                  << " engine runs, " << runner.cacheHits()
                  << " cache hits, jobs=" << jobs << "\n";
    return 0;
}
