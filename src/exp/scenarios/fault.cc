/**
 * @file
 * The fault-injection scenarios added with src/fault/ — robustness studies
 * neither workload could express before:
 *
 *  - train_checkpoint_sweep: checkpoint cadence vs crash recovery cost.
 *    Checkpoints are real scheduled flows (GPU→host drain + striped CSD
 *    writes contending with the parameter stream), so a tighter interval
 *    costs steady-state bandwidth but bounds the replay window a crash
 *    rewinds across — the classic checkpoint-frequency trade-off, here
 *    measurable in end-to-end makespan under one pinned crash schedule.
 *  - serve_failover: replica crashes displace in-flight requests onto
 *    survivors with retry/backoff; the retry budget decides whether a
 *    displaced request is eventually served (higher latency, kept
 *    goodput) or shed (clean rejection, lost goodput). Rejected requests
 *    are first-class records, so success rate and goodput sit next to
 *    the latency percentiles in one table.
 */
#include <string>

#include "serve/metrics.h"
#include "exp/experiment.h"
#include "exp/scenarios/scenario_util.h"
#include "exp/scenarios/scenarios.h"

namespace smartinf::exp::scenarios {

namespace {

// ---- train_checkpoint_sweep -------------------------------------------------

ScenarioResult
runTrainCheckpointSweep(ScenarioContext &ctx)
{
    ScenarioResult out;
    const auto model = train::ModelSpec::gpt2(0.5);
    const std::vector<int> intervals = {1, 2, 4};

    // The crash process every swept interval faces: the schedule is drawn
    // pre-sim from faultSeed(fault.seed) alone, so all rows rewind at the
    // same instants — only the durable point they rewind TO differs.
    fault::FaultConfig faults;
    faults.enabled = true;
    faults.num_iterations = 8;
    faults.node_mtbf = 2.0;
    faults.repair_time = 2.0;
    faults.horizon = 80.0;

    auto builder = [&](const fault::FaultConfig &f) {
        return ExperimentBuilder()
            .model(model)
            .strategy(train::Strategy::SmartUpdateOptComp)
            .devices(4)
            .faults(f);
    };
    fault::FaultConfig clean = faults;
    clean.node_mtbf = fault::FaultConfig::kNever;
    const auto clean_records = ctx.runner.run(builder(clean).build());
    auto records = ctx.runner.run(
        builder(faults).checkpointIntervals(intervals).build());
    out.records = clean_records;
    out.records.insert(out.records.end(), records.begin(), records.end());

    Table table("Checkpoint cadence vs crash recovery, " + model.name +
                " (SU+O+C, d4, 8 iterations, MTBF 2 s, repair 2 s)");
    table.setHeader({"ckpt interval", "makespan (s)", "ckpts", "crashes",
                     "restarts", "iters replayed"});
    auto addRow = [&](const std::string &label, const RunRecord &rec) {
        const train::FaultStats &f = rec.result.fault;
        table.addRow({label, Table::num(rec.result.iteration_time, 2),
                      std::to_string(f.checkpoints_written),
                      std::to_string(f.node_crashes),
                      std::to_string(f.restarts),
                      std::to_string(f.iterations_replayed)});
    };
    addRow("2 (no faults)", clean_records.front());
    for (const int k : intervals)
        addRow(std::to_string(k), pick(records, [&](const RunSpec &spec) {
                   return spec.fault.checkpoint_interval == k;
               }));
    out.tables.push_back(std::move(table));
    out.notes.push_back(
        "Checkpoints are scheduled flows, not free snapshots: every "
        "interval drains a full fp16 replica GPU->host and stripes it "
        "across the CSDs, so interval 1 pays the most steady-state "
        "bandwidth — but a crash rewinds at most one iteration.");
    out.notes.push_back(
        "All rows face the same pre-drawn crash schedule (arrivals never "
        "move with the recovery knobs); a wider interval turns each crash "
        "into more replayed iterations, and past the sweet spot the "
        "replay cost dominates the saved checkpoint traffic.");
    return out;
}

// ---- serve_failover ---------------------------------------------------------

ScenarioResult
runServeFailover(ScenarioContext &ctx)
{
    ScenarioResult out;
    const auto model = train::ModelSpec::gpt2(0.5);
    const std::vector<int> retry_limits = {0, 3};

    serve::ServeConfig serve;
    serve.num_requests = 24;
    serve.arrival_rate = 0.2;
    serve.prompt_tokens = 64;
    serve.output_tokens = 6;
    serve.max_batch = 4;

    fault::FaultConfig faults;
    faults.enabled = true;
    faults.node_mtbf = 20.0;
    faults.repair_time = 15.0;
    faults.horizon = 300.0;

    auto builder = [&]() {
        return ExperimentBuilder()
            .model(model)
            .strategy(train::Strategy::SmartUpdateOptComp)
            .devices(4)
            .nodes(2)
            .serving(serve);
    };
    const auto clean_records = ctx.runner.run(builder().build());
    auto records = ctx.runner.run(
        builder().faults(faults).retryPolicies(retry_limits).build());
    out.records = clean_records;
    out.records.insert(out.records.end(), records.begin(), records.end());

    Table table("Replica failover vs retry budget, " + model.name +
                " (SU+O+C, d4, 2 replicas, 24 requests, MTBF 20 s, "
                "repair 15 s)");
    table.setHeader({"retry limit", "served", "shed", "retries", "success",
                     "goodput (req/s)", "p95 (s)", "p99 (s)"});
    auto addRow = [&](const std::string &label, const RunRecord &rec) {
        const serve::ServingMetrics m = serve::summarize(rec.result);
        table.addRow({label, std::to_string(m.num_served),
                      std::to_string(m.num_shed),
                      std::to_string(m.total_retries),
                      Table::num(m.success_rate, 2),
                      Table::num(m.goodput, 3), Table::num(m.latency.p95, 2),
                      Table::num(m.latency.p99, 2)});
    };
    addRow("no faults", clean_records.front());
    for (const int limit : retry_limits)
        addRow(std::to_string(limit), pick(records, [&](const RunSpec &spec) {
                   return spec.fault.retry_limit == limit;
               }));
    out.tables.push_back(std::move(table));
    out.notes.push_back(
        "A replica crash drains its queue: in-flight and queued requests "
        "are displaced and re-dispatched on survivors after a linear "
        "backoff. Retried requests keep their original arrival stamp, so "
        "the failed attempt and the backoff land in the tail percentiles "
        "rather than disappearing.");
    out.notes.push_back(
        "retry limit 0 sheds every displaced request immediately: the "
        "tail stays clean while success rate and goodput absorb the loss "
        "— shed requests stay in the record stream with a rejected "
        "disposition instead of vanishing from the denominator.");
    return out;
}

} // namespace

void
registerFaultScenarios()
{
    ScenarioRegistry::instance().add(
        {"train_checkpoint_sweep",
         "Training: checkpoint cadence vs crash recovery cost "
         "(checkpoint/restart)",
         runTrainCheckpointSweep});
    ScenarioRegistry::instance().add(
        {"serve_failover",
         "Serving: replica failover, retry/backoff and retry-limit "
         "shedding under node crashes",
         runServeFailover});
}

} // namespace smartinf::exp::scenarios
