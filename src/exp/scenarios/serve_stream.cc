/**
 * @file
 * The streaming-serving scenarios added with the lazy RequestSource —
 * runs whose request counts (10^5 and beyond) would be impractical with
 * per-request record vectors and a fully materialized request stream:
 *
 *  - serve_stream_100k: one hundred thousand requests through one
 *    replica with record_cap armed. Requests are drawn lazily (one in
 *    flight per arrival), the task graph trims its completed prefix, and
 *    latency percentiles come from the streaming sketch (exact up to the
 *    cap, <2% relative error above it) — memory stays O(in-flight), not
 *    O(stream).
 *  - serve_diurnal: the same pipeline under non-homogeneous arrivals: a
 *    sinusoidal diurnal rate plus seeded burst episodes, against the
 *    homogeneous baseline at the same base rate. The windowed counter
 *    series exposes the peak arrival rate the modulation actually
 *    produced; the tail latencies show what the peaks cost.
 */
#include <string>

#include "exp/experiment.h"
#include "exp/scenarios/scenario_util.h"
#include "exp/scenarios/scenarios.h"
#include "serve/metrics.h"

namespace smartinf::exp::scenarios {

namespace {

/** Small-model serving base shared by the streaming studies: short
 *  outputs keep decode steps (and so events) per request low enough
 *  that a 10^5-request run finishes in CI time. */
serve::ServeConfig
streamServeBase()
{
    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.arrival_rate = 8.0;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.max_batch = 8;
    return config;
}

// ---- serve_stream_100k ------------------------------------------------------

ScenarioResult
runServeStream100k(ScenarioContext &ctx)
{
    ScenarioResult out;
    const auto model = train::ModelSpec::gpt2(0.5);

    auto serve = streamServeBase();
    serve.num_requests = 100000;
    serve.record_cap = 4096;
    serve.stream_window_s = 60.0;

    auto records = ctx.runner.run(ExperimentBuilder()
                                      .model(model)
                                      .serving(serve)
                                      .strategies(
                                          {train::Strategy::Baseline,
                                           train::Strategy::
                                               SmartUpdateOptComp})
                                      .devices(4)
                                      .build());
    out.records = records;

    Table table("Streaming serving, 10^5 requests, " + model.name +
                " (1 node, continuous batching, record cap 4096)");
    table.setHeader({"strategy", "served", "p50 (s)", "p95 (s)", "p99 (s)",
                     "req/s", "peak arrivals/s", "records kept",
                     "percentiles"});
    for (train::Strategy s : {train::Strategy::Baseline,
                              train::Strategy::SmartUpdateOptComp}) {
        const auto &rec = pick(records, [&](const RunSpec &spec) {
            return spec.system.strategy == s;
        });
        const serve::ServingMetrics m = serve::summarize(rec.result);
        const train::StreamingServeStats &ss = rec.result.streaming;
        table.addRow({train::strategyName(s), std::to_string(m.num_served),
                      Table::num(m.latency.p50, 3),
                      Table::num(m.latency.p95, 3),
                      Table::num(m.latency.p99, 3),
                      Table::num(m.requests_per_sec, 2),
                      Table::num(ss.windows.peakRate("arrivals"), 2),
                      std::to_string(ss.records_retained),
                      m.percentiles_exact ? "exact" : "sketch"});
    }
    out.tables.push_back(std::move(table));
    out.notes.push_back(
        "Requests are drawn lazily from the seeded RequestSource (one "
        "arrival event in flight), retired records fold into streaming "
        "aggregates past the 4096-record cap, and the task graph trims "
        "its completed prefix — peak memory is O(in-flight requests), "
        "independent of the 10^5-request stream length.");
    out.notes.push_back(
        "Percentiles above the cap come from a fixed-bin geometric "
        "histogram whose estimate is the bin's geometric midpoint: "
        "relative error is bounded by sqrt(growth)-1 < 2% per sample "
        "(asserted in tests/test_streaming_percentiles.cc).");
    return out;
}

// ---- serve_diurnal ----------------------------------------------------------

ScenarioResult
runServeDiurnal(ScenarioContext &ctx)
{
    ScenarioResult out;
    const auto model = train::ModelSpec::gpt2(0.5);

    auto steady = streamServeBase();
    steady.num_requests = 20000;
    steady.record_cap = 2048;
    steady.stream_window_s = 60.0;

    auto modulated = steady;
    modulated.modulation.enabled = true;
    modulated.modulation.diurnal_amplitude = 0.6;
    modulated.modulation.diurnal_period_s = 600.0;
    modulated.modulation.burst_rate_multiplier = 4.0;
    modulated.modulation.burst_mean_gap_s = 120.0;
    modulated.modulation.burst_mean_duration_s = 20.0;

    const auto builder = [&](const serve::ServeConfig &sc) {
        return ExperimentBuilder()
            .model(model)
            .serving(sc)
            .strategy(train::Strategy::SmartUpdateOptComp)
            .devices(4)
            .build();
    };
    auto steady_records = ctx.runner.run(builder(steady));
    auto modulated_records = ctx.runner.run(builder(modulated));
    out.records = steady_records;
    out.records.insert(out.records.end(), modulated_records.begin(),
                       modulated_records.end());

    Table table("Diurnal + bursty arrivals vs steady Poisson, " +
                model.name + " (SU+O+C, 2*10^4 requests, base rate 8/s)");
    table.setHeader({"arrivals", "p50 (s)", "p95 (s)", "p99 (s)",
                     "peak arrivals/s", "peak queue", "req/s"});
    const auto addRow = [&](const std::string &label,
                            const RunRecord &rec) {
        const serve::ServingMetrics m = serve::summarize(rec.result);
        const train::StreamingServeStats &ss = rec.result.streaming;
        table.addRow({label, Table::num(m.latency.p50, 3),
                      Table::num(m.latency.p95, 3),
                      Table::num(m.latency.p99, 3),
                      Table::num(ss.windows.peakRate("arrivals"), 2),
                      std::to_string(m.peak_queue_depth),
                      Table::num(m.requests_per_sec, 2)});
    };
    addRow("steady", steady_records.front());
    addRow("diurnal+bursts", modulated_records.front());
    out.tables.push_back(std::move(table));
    out.notes.push_back(
        "Modulated arrivals use Lewis-Shedler thinning against a "
        "constant envelope rate: the sinusoid (amplitude 0.6, period "
        "600 s) sets the slow swing and seeded burst episodes (mean gap "
        "120 s, mean 20 s at 4x) the spikes — the same derived arrival "
        "and burst streams every run, so records stay bit-identical.");
    out.notes.push_back(
        "The windowed arrival series (60 s windows) shows the realized "
        "peak rate; tail latency and peak queue depth absorb the "
        "difference between mean and peak load that a steady-rate run "
        "never exercises.");
    return out;
}

} // namespace

void
registerServeStreamScenarios()
{
    ScenarioRegistry::instance().add(
        {"serve_stream_100k",
         "Serving: 10^5-request streaming run, lazy generation + record cap",
         runServeStream100k});
    ScenarioRegistry::instance().add(
        {"serve_diurnal",
         "Serving: diurnal + bursty arrival modulation vs steady Poisson",
         runServeDiurnal});
}

} // namespace smartinf::exp::scenarios
