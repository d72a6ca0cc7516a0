/**
 * @file
 * Regression tests for serve::summarize edge cases. Every result is built
 * the way a serving run builds it: each record folds into the streaming
 * aggregates through StreamingServeStats::note, and summarize reads only
 * those. Populations must be well-defined at 0 and 1 elements (a
 * 1-request run reports its one latency as every percentile; an empty
 * result is all zeros, never a crash or an out-of-range read), and the
 * served/shed dispositions must split. The percentile-sketch edge cases
 * themselves live in tests/test_streaming_percentiles.cc.
 */
#include <gtest/gtest.h>

#include "serve/metrics.h"

namespace smartinf::serve {
namespace {

/** A serving result over @p makespan whose aggregates saw @p records. */
train::WorkloadResult
foldedResult(Seconds makespan,
             const std::vector<train::RequestRecord> &records)
{
    train::WorkloadResult result;
    result.kind = train::WorkloadKind::Serving;
    result.iteration_time = makespan;
    for (const train::RequestRecord &r : records)
        result.streaming.note(r);
    result.requests = records;
    return result;
}

TEST(ServeMetrics, ZeroRequestResultSummarizesToZeros)
{
    const ServingMetrics m = summarize(foldedResult(0.0, {}));
    EXPECT_EQ(m.num_requests, 0);
    EXPECT_EQ(m.latency.p99, 0.0);
    EXPECT_EQ(m.latency.mean, 0.0);
    EXPECT_EQ(m.latency.max, 0.0);
    EXPECT_EQ(m.requests_per_sec, 0.0);
    EXPECT_EQ(m.output_tokens_per_sec, 0.0);
    EXPECT_EQ(m.mean_queue_depth, 0.0);
    EXPECT_TRUE(m.percentiles_exact);
}

TEST(ServeMetrics, OneRequestResultIsWellDefined)
{
    train::RequestRecord r;
    r.arrival = 1.0;
    r.start = 1.5;
    r.first_token = 2.0;
    r.finish = 4.0;
    r.output_tokens = 8;

    const ServingMetrics m = summarize(foldedResult(4.0, {r}));
    EXPECT_EQ(m.num_requests, 1);
    EXPECT_EQ(m.latency.p50, 3.0);
    EXPECT_EQ(m.latency.p95, 3.0);
    EXPECT_EQ(m.latency.p99, 3.0);
    EXPECT_EQ(m.latency.mean, 3.0);
    EXPECT_EQ(m.latency.max, 3.0);
    EXPECT_EQ(m.ttft.p95, 1.0);
    EXPECT_EQ(m.queue_delay.p50, 0.5);
    EXPECT_EQ(m.requests_per_sec, 0.25);
    EXPECT_EQ(m.output_tokens_per_sec, 2.0);
}

TEST(ServeMetrics, FaultFreeResultHasFullSuccessRate)
{
    // Regression anchor for the disposition split: with no shed records
    // the success rate is exactly 1, goodput equals requests_per_sec, and
    // the latency populations are the full record set.
    std::vector<train::RequestRecord> records;
    for (int i = 0; i < 4; ++i) {
        train::RequestRecord r;
        r.id = i;
        r.arrival = static_cast<double>(i);
        r.start = r.arrival + 0.5;
        r.first_token = r.arrival + 1.0;
        r.finish = r.arrival + 2.0;
        r.output_tokens = 4;
        records.push_back(r);
    }
    const ServingMetrics m = summarize(foldedResult(10.0, records));
    EXPECT_EQ(m.num_requests, 4);
    EXPECT_EQ(m.num_served, 4);
    EXPECT_EQ(m.num_shed, 0);
    EXPECT_EQ(m.num_retried, 0);
    EXPECT_EQ(m.total_retries, 0);
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
    EXPECT_DOUBLE_EQ(m.goodput, m.requests_per_sec);
    EXPECT_DOUBLE_EQ(m.requests_per_sec, 0.4);
    // Empty shed-disposition population: all zeros, never a crash.
    EXPECT_EQ(m.shed_wait.p99, 0.0);
}

TEST(ServeMetrics, ShedRecordsSplitTheDispositions)
{
    // Two served (one after a retry), two shed.
    std::vector<train::RequestRecord> records;
    for (int i = 0; i < 4; ++i) {
        train::RequestRecord r;
        r.id = i;
        r.arrival = 0.0;
        r.start = 1.0;
        r.first_token = 2.0;
        r.finish = i < 2 ? 5.0 : 3.0; // shed decision at t=3
        r.output_tokens = i < 2 ? 4 : 0;
        r.retries = i == 1 ? 2 : 0;
        r.shed = i >= 2;
        if (r.shed)
            r.retries = 3;
        records.push_back(r);
    }
    const ServingMetrics m = summarize(foldedResult(10.0, records));
    EXPECT_EQ(m.num_requests, 4);
    EXPECT_EQ(m.num_served, 2);
    EXPECT_EQ(m.num_shed, 2);
    EXPECT_EQ(m.num_retried, 1);
    EXPECT_EQ(m.total_retries, 2 + 3 + 3);
    EXPECT_DOUBLE_EQ(m.success_rate, 0.5);
    EXPECT_DOUBLE_EQ(m.requests_per_sec, 0.4); // offered: all 4
    EXPECT_DOUBLE_EQ(m.goodput, 0.2);          // delivered: the 2 served
    // Latency population is the *served* records only: p99 is their 5s
    // completion, not the 3s shed timestamp.
    EXPECT_DOUBLE_EQ(m.latency.p99, 5.0);
    EXPECT_DOUBLE_EQ(m.latency.p50, 5.0);
    // Shed-disposition population (arrival -> shed decision).
    EXPECT_DOUBLE_EQ(m.shed_wait.p50, 3.0);
    EXPECT_DOUBLE_EQ(m.shed_wait.max, 3.0);
    // Output tokens count only what was delivered.
    EXPECT_DOUBLE_EQ(m.output_tokens_per_sec, 0.8);
}

TEST(ServeMetrics, SingleShedRecordIsWellDefined)
{
    // Disposition populations at size 1/0: one shed record, zero served —
    // every served-population percentile is 0, the shed population is its
    // one element, and the rates are exact.
    train::RequestRecord r;
    r.arrival = 1.0;
    r.start = 2.0;
    r.first_token = 2.0;
    r.finish = 2.0;
    r.shed = true;
    r.retries = 1;
    const ServingMetrics m = summarize(foldedResult(8.0, {r}));
    EXPECT_EQ(m.num_served, 0);
    EXPECT_EQ(m.num_shed, 1);
    EXPECT_DOUBLE_EQ(m.success_rate, 0.0);
    EXPECT_DOUBLE_EQ(m.goodput, 0.0);
    EXPECT_EQ(m.latency.p50, 0.0); // empty served population
    EXPECT_DOUBLE_EQ(m.shed_wait.p50, 1.0);
    EXPECT_DOUBLE_EQ(m.shed_wait.p99, 1.0);
    EXPECT_DOUBLE_EQ(m.shed_wait.mean, 1.0);
}

} // namespace
} // namespace smartinf::serve
