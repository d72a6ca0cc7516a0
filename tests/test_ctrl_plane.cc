/**
 * @file
 * Cluster control plane end-to-end: the round-robin oracle (ctrl enabled
 * with every feature off is bit-identical to the legacy id % N front
 * door), policy determinism across repeats, SLO admission dispositions
 * (reject/defer) as first-class records under one cluster-wide record
 * cap, queue-driven autoscaling with real warm-up, and the per-replica
 * load accounting behind the imbalance statistic.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "train/engine.h"

namespace smartinf {
namespace {

train::ModelSpec
smallModel()
{
    return train::ModelSpec::gpt2(0.5);
}

serve::ServeConfig
baseServe()
{
    serve::ServeConfig config;
    config.num_requests = 16;
    config.arrival_rate = 0.5;
    config.prompt_tokens = 64;
    config.output_tokens = 6;
    config.max_batch = 4;
    return config;
}

train::WorkloadResult
runServe(const serve::ServeConfig &config, int nodes = 2)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    system.num_nodes = nodes;
    auto engine = train::makeEngine(smallModel(), {}, system);
    serve::InferenceWorkload workload(smallModel(), config);
    return engine->run(workload);
}

void
expectIdenticalRecords(const train::WorkloadResult &a,
                       const train::WorkloadResult &b)
{
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].node, b.requests[i].node);
        EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
        EXPECT_EQ(a.requests[i].start, b.requests[i].start);
        EXPECT_EQ(a.requests[i].first_token, b.requests[i].first_token);
        EXPECT_EQ(a.requests[i].finish, b.requests[i].finish);
        EXPECT_EQ(a.requests[i].shed, b.requests[i].shed);
        EXPECT_EQ(a.requests[i].rejected, b.requests[i].rejected);
    }
    EXPECT_EQ(a.iteration_time, b.iteration_time);
    EXPECT_EQ(a.events_executed, b.events_executed);
}

// ---- the round-robin oracle ------------------------------------------------

TEST(CtrlPlane, RoundRobinOracleIsBitIdenticalToLegacyFrontDoor)
{
    // ctrl enabled, RoundRobin, every feature off: dispatch() must pick
    // exactly the replica the legacy id % N door picks, through the same
    // single submission event — byte-identical results, not merely close.
    const auto legacy = runServe(baseServe());
    serve::ServeConfig ctrl_rr = baseServe();
    ctrl_rr.ctrl.enabled = true;
    const auto oracle = runServe(ctrl_rr);
    expectIdenticalRecords(legacy, oracle);
    EXPECT_FALSE(legacy.ctrl.enabled);
    EXPECT_TRUE(oracle.ctrl.enabled);
    EXPECT_EQ(oracle.ctrl.rejected, 0);
    EXPECT_EQ(oracle.ctrl.scale_ups, 0);
}

TEST(CtrlPlane, PoliciesAreDeterministicAcrossRepeats)
{
    for (const ctrl::DispatchPolicy policy :
         {ctrl::DispatchPolicy::JoinShortestQueue,
          ctrl::DispatchPolicy::PowerOfTwoChoices}) {
        serve::ServeConfig config = baseServe();
        config.ctrl.enabled = true;
        config.ctrl.policy = policy;
        const auto a = runServe(config, 3);
        const auto b = runServe(config, 3);
        expectIdenticalRecords(a, b);
    }
}

TEST(CtrlPlane, PolicyDrawsNeverMoveArrivalsOrLengths)
{
    // The fifth stream is consumed only by the control plane: switching
    // the policy reroutes requests but every arrival stamp and sampled
    // length stays put.
    serve::ServeConfig config = baseServe();
    config.output_lengths.kind = serve::LengthDistKind::Uniform;
    config.output_lengths.min_tokens = 2;
    config.output_lengths.max_tokens = 24;
    config.ctrl.enabled = true;
    const auto rr = runServe(config, 3);
    config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    const auto jsq = runServe(config, 3);
    ASSERT_EQ(rr.requests.size(), jsq.requests.size());
    for (std::size_t i = 0; i < rr.requests.size(); ++i) {
        EXPECT_EQ(rr.requests[i].arrival, jsq.requests[i].arrival);
        EXPECT_EQ(rr.requests[i].output_tokens,
                  jsq.requests[i].output_tokens);
    }
}

// ---- per-replica accounting ------------------------------------------------

TEST(CtrlPlane, ReplicaCountsAndImbalanceAccountForEveryServedRequest)
{
    serve::ServeConfig config = baseServe();
    config.ctrl.enabled = true;
    const auto result = runServe(config, 2);
    const auto m = serve::summarize(result);
    ASSERT_FALSE(m.replica_requests.empty());
    int sum = 0;
    for (const int n : m.replica_requests)
        sum += n;
    EXPECT_EQ(sum, m.num_served);
    EXPECT_GE(m.load_imbalance, 1.0);
    // 16 requests round-robin over 2 replicas: a perfectly even split.
    EXPECT_EQ(m.replica_requests, (std::vector<int>{8, 8}));
    EXPECT_DOUBLE_EQ(m.load_imbalance, 1.0);
}

// ---- SLO admission ---------------------------------------------------------

serve::ServeConfig
overloadedServe(ctrl::AdmissionMode mode)
{
    serve::ServeConfig config = baseServe();
    config.num_requests = 32;
    config.arrival_rate = 12.0; // far above the two-replica capacity
    config.output_tokens = 8;
    config.max_batch = 2;
    config.ctrl.enabled = true;
    config.ctrl.slo.admission = mode;
    config.ctrl.slo.target_p99_s = 1.0;
    config.ctrl.slo.defer_delay_s = 1.0;
    config.ctrl.slo.max_defers = 2;
    return config;
}

TEST(CtrlPlane, RejectAdmissionTurnsAwayPredictedSloMisses)
{
    const auto result = runServe(overloadedServe(ctrl::AdmissionMode::Reject));
    const auto m = serve::summarize(result);
    EXPECT_EQ(m.num_served + m.num_rejected, 32);
    EXPECT_GT(m.num_rejected, 0);
    EXPECT_LT(m.num_rejected, 32); // the first batch always admits
    EXPECT_EQ(m.num_rejected, result.ctrl.rejected);
    for (const train::RequestRecord &r : result.requests) {
        if (!r.rejected)
            continue;
        EXPECT_EQ(r.node, -1);
        EXPECT_EQ(r.output_tokens, 0);
        EXPECT_FALSE(r.shed); // distinct dispositions
        EXPECT_GE(r.finish, r.arrival);
    }
    // The protected tail: serving everything must be strictly worse at
    // the p99 than turning predicted misses away.
    const auto all =
        runServe(overloadedServe(ctrl::AdmissionMode::Off));
    const auto m_all = serve::summarize(all);
    EXPECT_EQ(m_all.num_rejected, 0);
    EXPECT_LT(m.latency.p99, m_all.latency.p99);
}

TEST(CtrlPlane, DeferParksAndRejudgesBeforeRejecting)
{
    const auto result = runServe(overloadedServe(ctrl::AdmissionMode::Defer));
    const auto m = serve::summarize(result);
    EXPECT_EQ(m.num_served + m.num_rejected, 32);
    EXPECT_GT(m.total_deferrals, 0);
    EXPECT_EQ(result.ctrl.deferrals, m.total_deferrals);
    // A request is only rejected after exhausting its defer budget.
    for (const train::RequestRecord &r : result.requests) {
        if (r.rejected) {
            EXPECT_EQ(r.deferrals, 2);
        }
    }
    const auto repeat =
        runServe(overloadedServe(ctrl::AdmissionMode::Defer));
    expectIdenticalRecords(result, repeat);
}

TEST(CtrlPlane, RecordCapKeepsTheFirstDispositionsAcrossTurnAways)
{
    // One cluster-wide cap over served and rejected records alike: the
    // capped run simulates exactly what the uncapped one does, keeps the
    // first record_cap dispositions verbatim, and counts every one.
    const auto full = runServe(overloadedServe(ctrl::AdmissionMode::Defer));
    serve::ServeConfig capped_config =
        overloadedServe(ctrl::AdmissionMode::Defer);
    capped_config.record_cap = 8;
    const auto capped = runServe(capped_config);

    EXPECT_EQ(capped.events_executed, full.events_executed);
    EXPECT_EQ(capped.iteration_time, full.iteration_time);
    const train::StreamingServeStats &cs = capped.streaming;
    const train::StreamingServeStats &fs = full.streaming;
    EXPECT_EQ(cs.total_requests, fs.total_requests);
    EXPECT_EQ(cs.num_served, fs.num_served);
    EXPECT_EQ(cs.num_shed, fs.num_shed);
    EXPECT_EQ(cs.num_rejected, fs.num_rejected);
    EXPECT_EQ(cs.num_deferred, fs.num_deferred);
    EXPECT_EQ(cs.total_deferrals, fs.total_deferrals);
    EXPECT_EQ(cs.output_tokens, fs.output_tokens);
    EXPECT_GT(fs.num_rejected, 0); // turn-aways really are in the stream

    ASSERT_EQ(capped.requests.size(), 8u);
    EXPECT_EQ(cs.records_retained, 8);
    ASSERT_EQ(full.requests.size(), 32u);
    std::vector<bool> kept(full.requests.size(), false);
    Seconds latest_kept = 0.0;
    for (const train::RequestRecord &r : capped.requests) {
        ASSERT_GE(r.id, 0);
        ASSERT_LT(r.id, 32);
        const train::RequestRecord &u = full.requests[r.id];
        ASSERT_EQ(u.id, r.id);
        EXPECT_EQ(r.node, u.node);
        EXPECT_EQ(r.prompt_tokens, u.prompt_tokens);
        EXPECT_EQ(r.output_tokens, u.output_tokens);
        EXPECT_EQ(r.arrival, u.arrival);
        EXPECT_EQ(r.start, u.start);
        EXPECT_EQ(r.first_token, u.first_token);
        EXPECT_EQ(r.finish, u.finish);
        EXPECT_EQ(r.retries, u.retries);
        EXPECT_EQ(r.shed, u.shed);
        EXPECT_EQ(r.deferrals, u.deferrals);
        EXPECT_EQ(r.rejected, u.rejected);
        kept[static_cast<std::size_t>(r.id)] = true;
        latest_kept = std::max(latest_kept, r.finish);
    }
    // Kept records are a prefix of the dispositions in time order.
    for (const train::RequestRecord &u : full.requests) {
        if (!kept[static_cast<std::size_t>(u.id)]) {
            EXPECT_LE(latest_kept, u.finish) << "dropped id " << u.id;
        }
    }
}

// ---- autoscaling -----------------------------------------------------------

serve::ServeConfig
burstyServe()
{
    serve::ServeConfig config = baseServe();
    config.num_requests = 0;
    config.output_tokens = 12;
    config.max_batch = 1;
    for (int i = 0; i < 16; ++i)
        config.trace.push_back(0.2 * i);
    for (int i = 0; i < 8; ++i)
        config.trace.push_back(40.0 + 5.0 * i);
    config.ctrl.enabled = true;
    config.ctrl.autoscale.enabled = true;
    config.ctrl.autoscale.min_replicas = 1;
    config.ctrl.autoscale.max_replicas = 3;
    config.ctrl.autoscale.window_s = 1.5;
    config.ctrl.autoscale.cooldown_s = 2.0;
    config.ctrl.autoscale.scale_up_depth = 2.5;
    config.ctrl.autoscale.scale_down_depth = 0.5;
    return config;
}

TEST(CtrlPlane, BurstDrivesScaleUpWithRealWarmup)
{
    const auto result = runServe(burstyServe(), 3);
    ASSERT_EQ(result.requests.size(), 24u);
    EXPECT_GE(result.ctrl.scale_ups, 1);
    EXPECT_GE(result.ctrl.warmups_completed, 1);
    EXPECT_GT(result.ctrl.peak_active_replicas, 1);
    EXPECT_LE(result.ctrl.peak_active_replicas, 3);
    const auto m = serve::summarize(result);
    EXPECT_EQ(m.num_served, 24);
    // More than one replica actually served traffic after the scale-up.
    int replicas_used = 0;
    for (const int n : m.replica_requests)
        replicas_used += n > 0 ? 1 : 0;
    EXPECT_GT(replicas_used, 1);
}

TEST(CtrlPlane, AutoscaleRunsAreBitIdenticalAcrossRepeats)
{
    const auto a = runServe(burstyServe(), 3);
    const auto b = runServe(burstyServe(), 3);
    expectIdenticalRecords(a, b);
    EXPECT_EQ(a.ctrl.scale_ups, b.ctrl.scale_ups);
    EXPECT_EQ(a.ctrl.scale_downs, b.ctrl.scale_downs);
    EXPECT_EQ(a.ctrl.warmups_completed, b.ctrl.warmups_completed);
}

} // namespace
} // namespace smartinf
