/**
 * @file
 * Tests of the observability tentpole's core contract: an installed
 * Observation records a full Chrome-trace timeline of every engine run
 * while leaving every simulated result bit-identical to the unobserved
 * run — observers are witnesses, never schedulers. Also pins the trace
 * document's structural invariants (balanced duration events, monotonic
 * timestamps, async begin/end pairing, well-formed JSON).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/json.h"
#include "net/topology.h"
#include "obs/observation.h"
#include "serve/inference_workload.h"
#include "train/engine.h"

namespace smartinf {
namespace {

train::ModelSpec
smallModel()
{
    return train::ModelSpec::gpt2(0.5);
}

serve::ServeConfig
smallServe()
{
    serve::ServeConfig config;
    config.num_requests = 6;
    config.arrival_rate = 0.5;
    config.prompt_tokens = 64;
    config.output_tokens = 6;
    config.max_batch = 4;
    config.kv.enabled = true;
    config.kv.hbm_budget = MiB(64);
    config.kv.host_budget = MiB(128);
    return config;
}

train::WorkloadResult
runServe()
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    auto engine = train::makeEngine(smallModel(), {}, system);
    serve::InferenceWorkload workload(smallModel(), smallServe());
    return engine->run(workload);
}

train::IterationResult
runTraining()
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOpt;
    system.num_devices = 4;
    auto engine = train::makeEngine(smallModel(), {}, system);
    return engine->runIteration();
}

/** RAII: installed Observation for the scope of one test. */
class Session
{
  public:
    Session() : observation_({}) { observation_.install(); }
    ~Session() { observation_.uninstall(); }
    obs::Observation &operator*() { return observation_; }
    obs::Observation *operator->() { return &observation_; }

  private:
    obs::Observation observation_;
};

TEST(ObsTrace, ServingResultsAreBitIdenticalUnderTracing)
{
    const auto plain = runServe();

    Session session;
    const auto traced = runServe();

    // The tentpole's acceptance bar: not "close", *bit-identical*.
    EXPECT_EQ(traced.events_executed, plain.events_executed);
    EXPECT_EQ(traced.iteration_time, plain.iteration_time);
    ASSERT_EQ(traced.requests.size(), plain.requests.size());
    for (std::size_t i = 0; i < plain.requests.size(); ++i) {
        EXPECT_EQ(traced.requests[i].arrival, plain.requests[i].arrival);
        EXPECT_EQ(traced.requests[i].finish, plain.requests[i].finish);
    }
    EXPECT_EQ(session->runsRecorded(), 1);
    EXPECT_GT(session->trace().eventCount(), 0u);
}

TEST(ObsTrace, TrainingResultsAreBitIdenticalUnderTracing)
{
    const auto plain = runTraining();

    Session session;
    const auto traced = runTraining();

    EXPECT_EQ(traced.events_executed, plain.events_executed);
    EXPECT_EQ(traced.iteration_time, plain.iteration_time);
    EXPECT_EQ(session->runsRecorded(), 1);
    EXPECT_GT(session->trace().eventCount(), 0u);
}

TEST(ObsTrace, TimelineStructureIsSane)
{
    Session session;
    runServe();

    const auto &events = session->trace().events();
    ASSERT_FALSE(events.empty());

    std::set<char> phases;
    std::set<std::string> cats;
    std::set<std::string> counter_names;
    std::map<std::pair<uint32_t, uint32_t>, int> duration_depth;
    std::map<std::pair<std::string, uint64_t>, int> async_open;
    double prev_ts = events.front().ts_us;

    for (const auto &e : events) {
        phases.insert(e.ph);
        if (!e.cat.empty())
            cats.insert(e.cat);

        // One run records in simulation order: non-decreasing timestamps.
        EXPECT_GE(e.ts_us, prev_ts);
        prev_ts = e.ts_us;

        const auto track_key = std::make_pair(e.pid, e.tid);
        const auto async_key = std::make_pair(e.cat, e.id);
        if (e.ph == 'B') {
            ++duration_depth[track_key];
        } else if (e.ph == 'E') {
            // Never close a track that has nothing open.
            ASSERT_GT(duration_depth[track_key], 0);
            --duration_depth[track_key];
        } else if (e.ph == 'b') {
            ASSERT_TRUE(e.has_id);
            ++async_open[async_key];
        } else if (e.ph == 'n') {
            // Async instants only appear inside an open async span.
            ASSERT_TRUE(e.has_id);
            EXPECT_GT(async_open[async_key], 0);
        } else if (e.ph == 'e') {
            ASSERT_TRUE(e.has_id);
            ASSERT_GT(async_open[async_key], 0);
            --async_open[async_key];
        } else if (e.ph == 'C') {
            counter_names.insert(e.name);
        }
    }
    // Everything begun was ended: the workload drained.
    for (const auto &[track, depth] : duration_depth)
        EXPECT_EQ(depth, 0) << "unbalanced B/E on tid " << track.second;
    for (const auto &[key, open] : async_open)
        EXPECT_EQ(open, 0) << "unbalanced b/e for id " << key.second;

    // The advertised track families all showed up: tasks and flows as
    // async spans, resource/scheduler occupancy as durations, KV and
    // queue state as counters.
    EXPECT_TRUE(phases.count('B'));
    EXPECT_TRUE(phases.count('E'));
    EXPECT_TRUE(phases.count('b'));
    EXPECT_TRUE(phases.count('e'));
    EXPECT_TRUE(phases.count('C'));
    EXPECT_TRUE(cats.count("task"));
    EXPECT_TRUE(cats.count("flow"));
    bool saw_kv = false, saw_queue = false;
    for (const auto &name : counter_names) {
        saw_kv = saw_kv || name.rfind("kv", 0) == 0;
        saw_queue = saw_queue || name.rfind("queue", 0) == 0;
    }
    EXPECT_TRUE(saw_kv);
    EXPECT_TRUE(saw_queue);
}

TEST(ObsTrace, WrittenJsonIsWellFormed)
{
    Session session;
    runServe();

    std::ostringstream os;
    session->trace().write(os);
    const std::string doc = os.str();
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [",
                        0),
              0u);

    // Quote-aware brace/bracket balance: a cheap but real well-formedness
    // check (the CI job runs a full JSON parse on the traced scenario).
    int braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (char c : doc) {
        if (escaped) {
            escaped = false;
        } else if (c == '\\') {
            escaped = in_string;
        } else if (c == '"') {
            in_string = !in_string;
        } else if (!in_string) {
            if (c == '{')
                ++braces;
            else if (c == '}')
                --braces;
            else if (c == '[')
                ++brackets;
            else if (c == ']')
                --brackets;
            ASSERT_GE(braces, 0);
            ASSERT_GE(brackets, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);

    // Track-name metadata present for Perfetto's group labels.
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
}

TEST(ObsTrace, TrackAndEventNamesUseTheSharedEscaper)
{
    const std::string specials = std::string("\"\\\n\r") + '\x01';
    obs::TraceSink sink;
    const uint32_t pid = sink.process("run" + specials);
    const uint32_t tid = sink.thread(pid, "track" + specials);
    sink.instant(pid, tid, "event" + specials, 1.0);
    std::ostringstream os;
    sink.write(os);
    const std::string doc = os.str();

    for (const std::string &name :
         {"run" + specials, "track" + specials, "event" + specials}) {
        EXPECT_NE(doc.find('"' + jsonEscape(name) + '"'), std::string::npos)
            << jsonEscape(name);
    }
    // Every control character was escaped: only the writer's own
    // line breaks remain raw.
    for (const char c : doc)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << static_cast<int>(c);
}

TEST(ObsTrace, SweepRunsMergeIntoDistinctProcessGroups)
{
    Session session;
    runServe();
    runTraining();

    EXPECT_EQ(session->runsRecorded(), 2);
    std::ostringstream os;
    session->trace().write(os);
    const std::string doc = os.str();
    // Unique "r<k>: " labels keep the two runs' tracks apart.
    EXPECT_NE(doc.find("\"name\": \"r0: "), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"r1: "), std::string::npos);
}

TEST(ObsTrace, MetricsSeriesAccumulateUnderObservation)
{
    Session session;
    runServe();

    const auto &series = session->counters().series();
    ASSERT_FALSE(series.empty());
    bool saw_queue = false, saw_kv = false, saw_link = false;
    for (const auto &s : series) {
        saw_queue = saw_queue ||
                    s.name.find("queue_depth.") != std::string::npos;
        saw_kv = saw_kv || s.name.find(".hbm_bytes") != std::string::npos;
        saw_link = saw_link || s.name.find("link.") != std::string::npos;
        for (const auto &w : s.windows)
            EXPECT_GT(w.count, 0u);
    }
    EXPECT_TRUE(saw_queue);
    EXPECT_TRUE(saw_kv);
    EXPECT_TRUE(saw_link);
}

TEST(ObsTrace, BulkCancelLowersTheActiveFlowSeries)
{
    // A flow cancelled in its bulk phase leaves the contention set, so the
    // flows.active series drops with it, as it does on a completion.
    sim::Simulator sim;
    net::FlowNetwork net(sim);
    net::Topology topo;
    net::Link &link = topo.addLink("l", 100.0);
    obs::RunObservation run("r", {}, sim, net);
    net.startFlow({&link}, 1000.0, {});
    const net::FlowId victim = net.startFlow({&link}, 1000.0, {});
    ASSERT_TRUE(net.cancelFlow(victim));
    EXPECT_EQ(net.activeFlows(), 1u);

    const auto *active = run.counters().find("r: flows.active");
    ASSERT_NE(active, nullptr);
    ASSERT_FALSE(active->windows.empty());
    EXPECT_EQ(active->windows.back().last, 1.0);
}

TEST(ObsTrace, DegradedLinkReadsFullUtilization)
{
    // Utilization is the aggregate over the capacity the flows share: a
    // link degraded to half its nominal capacity and saturated by its flow
    // reads 1, as its own busy integral does, not 0.5.
    sim::Simulator sim;
    net::FlowNetwork net(sim);
    net::Topology topo;
    net::Link &link = topo.addLink("l", 100.0);
    obs::RunObservation run("r", {}, sim, net);
    net.startFlow({&link}, 1000.0, {});
    link.setCapacityFactor(0.5);
    net.linkCapacityChanged(&link);
    EXPECT_EQ(net.linkAggregateRate(&link), 50.0);

    const auto *util = run.counters().find("r: link.l.util");
    ASSERT_NE(util, nullptr);
    ASSERT_FALSE(util->windows.empty());
    EXPECT_EQ(util->windows.back().last, 1.0);
}

TEST(ObsTrace, MultiNodeContiguousKvSeriesAreNamedPerNode)
{
    // Each replica's builder reports contiguous KV occupancy under its
    // node scope: "kv n<k>.hbm_bytes", the names the paged layout uses.
    Session session;
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;
    system.num_nodes = 2;
    auto engine = train::makeEngine(smallModel(), {}, system);
    serve::InferenceWorkload workload(smallModel(), smallServe());
    engine->run(workload);

    std::set<std::string> kv_series;
    for (const auto &s : session->counters().series())
        if (s.name.find(": kv") != std::string::npos)
            kv_series.insert(s.name.substr(s.name.find(": kv") + 2));
    EXPECT_EQ(kv_series, (std::set<std::string>{
                             "kv n0.hbm_bytes", "kv n0.host_bytes",
                             "kv n0.csd_bytes", "kv n1.hbm_bytes",
                             "kv n1.host_bytes", "kv n1.csd_bytes"}));
}

} // namespace
} // namespace smartinf
