/**
 * @file
 * Tests of the serving KV-cache model: the opt-in contract (disabled or
 * fully HBM-resident KV produces the exact pre-KV schedule), the tiering
 * rules (tight budgets spill to host then CSD, as real flows that slow
 * decode), the derived bytes-per-token default, and config validation.
 */
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "train/engine.h"
#include "train/sim_context.h"

namespace smartinf {
namespace {

train::ModelSpec
smallModel()
{
    return train::ModelSpec::gpt2(0.5);
}

serve::ServeConfig
kvServe()
{
    serve::ServeConfig config;
    config.num_requests = 8;
    config.arrival_rate = 0.5;
    config.prompt_tokens = 64;
    config.output_tokens = 12;
    config.max_batch = 4;
    return config;
}

train::WorkloadResult
runServe(const serve::ServeConfig &config, train::Strategy strategy)
{
    train::SystemConfig system;
    system.strategy = strategy;
    system.num_devices = 4;
    auto engine = train::makeEngine(smallModel(), {}, system);
    serve::InferenceWorkload workload(smallModel(), config);
    return engine->run(workload);
}

void
expectRecordsBitIdentical(const std::vector<train::RequestRecord> &a,
                          const std::vector<train::RequestRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].first_token, b[i].first_token);
        EXPECT_EQ(a[i].finish, b[i].finish);
    }
}

TEST(KvCache, HbmResidentKvMatchesDisabledKvBitForBit)
{
    // The opt-in contract: with every KV byte inside the HBM budget no
    // flow is issued, so the schedule — and every record — must be
    // exactly what a KV-disabled run produces.
    const auto off = runServe(kvServe(), train::Strategy::SmartUpdateOpt);

    auto config = kvServe();
    config.kv.enabled = true;
    config.kv.hbm_budget = GiB(256.0); // working set trivially fits
    const auto on = runServe(config, train::Strategy::SmartUpdateOpt);

    expectRecordsBitIdentical(off.requests, on.requests);
    EXPECT_EQ(off.iteration_time, on.iteration_time);
    EXPECT_EQ(off.events_executed, on.events_executed);
    EXPECT_EQ(on.traffic.kv_spill_read, 0.0);
    EXPECT_EQ(on.traffic.kv_spill_write, 0.0);
}

TEST(KvCache, TightHbmBudgetSpillsAndSlowsDecode)
{
    auto ample = kvServe();
    ample.kv.enabled = true;
    ample.kv.hbm_budget = GiB(256.0);
    const auto fast = runServe(ample, train::Strategy::SmartUpdateOpt);

    auto tight = ample;
    tight.kv.hbm_budget = MiB(16.0); // a few requests' KV at most
    const auto slow = runServe(tight, train::Strategy::SmartUpdateOpt);

    EXPECT_GT(slow.traffic.kv_spill_read, 0.0);
    EXPECT_GT(slow.traffic.kv_spill_write, 0.0);
    // Spilled KV reads are real flows on the GPU link: decode steps take
    // strictly longer, so the workload drains strictly later.
    EXPECT_GT(slow.iteration_time, fast.iteration_time);
    EXPECT_GT(serve::summarize(slow).latency.p95,
              serve::summarize(fast).latency.p95);
}

TEST(KvCache, CsdTierCostsMoreThanHostTier)
{
    // Same spill volume, pushed one tier further down: KV past the host
    // budget stages through host memory AND crosses the storage media +
    // shared interconnect, so it can never be cheaper than host-resident
    // KV. (SU+O+C leaves the shared links unsaturated enough for the
    // tier difference to reach the makespan.)
    auto host_spill = kvServe();
    host_spill.output_tokens = 24; // enough decode steps to accumulate KV
    host_spill.kv.enabled = true;
    host_spill.kv.hbm_budget = MiB(4.0);
    host_spill.kv.host_budget = GiB(256.0); // spill stays in host memory
    const auto host_run =
        runServe(host_spill, train::Strategy::SmartUpdateOptComp);

    auto csd_spill = host_spill;
    csd_spill.kv.host_budget = MiB(4.0); // most spill reaches the CSDs
    const auto csd_run =
        runServe(csd_spill, train::Strategy::SmartUpdateOptComp);

    EXPECT_GT(csd_run.iteration_time, host_run.iteration_time);
}

TEST(KvCache, LongerOutputsGrowSpillTraffic)
{
    auto config = kvServe();
    config.kv.enabled = true;
    config.kv.hbm_budget = MiB(16.0);
    const auto short_run = runServe(config, train::Strategy::SmartUpdateOpt);
    config.output_tokens = 24;
    const auto long_run = runServe(config, train::Strategy::SmartUpdateOpt);

    // Twice the decode steps re-reading an ever-larger resident set:
    // spill traffic must grow superlinearly in the output length.
    EXPECT_GT(long_run.traffic.kv_spill_read,
              2.0 * short_run.traffic.kv_spill_read);
}

TEST(KvCache, RepeatedKvRunsAreBitIdentical)
{
    auto config = kvServe();
    config.kv.enabled = true;
    config.kv.hbm_budget = MiB(16.0);
    config.kv.host_budget = MiB(32.0);
    const auto a = runServe(config, train::Strategy::SmartUpdateOptComp);
    const auto b = runServe(config, train::Strategy::SmartUpdateOptComp);
    expectRecordsBitIdentical(a.requests, b.requests);
    EXPECT_EQ(a.iteration_time, b.iteration_time);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.traffic.kv_spill_read, b.traffic.kv_spill_read);
}

TEST(KvCache, BytesPerTokenDerivesFromTheModel)
{
    const auto model = smallModel();
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOpt;
    system.num_devices = 4;
    train::SimContext ctx(system);
    serve::ServeConfig config = kvServe();
    config.kv.enabled = true;
    serve::InferenceBuilder builder(model, system, config, ctx);

    // Default: K and V, one fp16 hidden vector per layer.
    EXPECT_EQ(builder.kvBytesPerToken(),
              2.0 * model.num_layers * model.hidden_dim * kBytesFp16);
}

/** The model-derived KV bytes of one smallModel() token. */
Bytes
tokenBytes()
{
    train::SystemConfig system;
    train::SimContext ctx(system);
    const auto model = smallModel(); // the builder keeps a reference
    const serve::ServeConfig config = kvServe();
    return serve::InferenceBuilder(model, system, config, ctx)
        .kvBytesPerToken();
}

/** Spill bytes (read, write) one forward pass declaring @p reads and
 *  @p writes ledgers on a builder with a 10-token HBM tier and a 20-token
 *  host tier (so tokens [10, 30) are host, 30+ CSD). */
std::pair<Bytes, Bytes>
spillOfOnePass(std::vector<kv::KvTokenRange> reads,
               std::vector<kv::KvTokenRange> writes)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOpt;
    system.num_devices = 4;
    train::SimContext ctx(system);
    serve::ServeConfig config = kvServe();
    config.kv.enabled = true;
    config.kv.hbm_budget = 10.0 * tokenBytes();
    config.kv.host_budget = 20.0 * tokenBytes();
    const auto model = smallModel(); // the builder keeps a reference
    serve::InferenceBuilder builder(model, system, config, ctx);

    serve::StepShape shape;
    shape.compute_tokens = 1.0;
    shape.kv_reads = std::move(reads);
    shape.kv_writes = std::move(writes);
    builder.buildForwardPass(shape, 0);
    ctx.graph.start();
    ctx.sim.run();
    EXPECT_TRUE(ctx.graph.done());
    return {ctx.traffic.kv_spill_read, ctx.traffic.kv_spill_write};
}

TEST(KvCache, TierSplitOfDeclaredRangesIsExact)
{
    // Contiguous declaration: reads [0, 40) straddle both tier
    // boundaries (10 HBM + 20 host + 10 CSD tokens); the write [40, 45)
    // lies wholly in the CSD tier.
    const Bytes token = tokenBytes();
    const auto contiguous = spillOfOnePass({{0, 40}}, {{40, 45}});
    EXPECT_EQ(contiguous.first, (20.0 + 10.0) * token);
    EXPECT_EQ(contiguous.second, 5.0 * token);

    // Paged-style plan: reads with holes at [8, 12) and [20, 28) —
    // [0, 8) HBM, [12, 20) host, [28, 36) 2 host + 6 CSD; writes in two
    // disjoint ranges — [8, 12) 2 HBM + 2 host, [36, 40) CSD.
    const auto paged =
        spillOfOnePass({{0, 8}, {12, 20}, {28, 36}}, {{8, 12}, {36, 40}});
    EXPECT_EQ(paged.first, (8.0 + 2.0 + 6.0) * token);
    EXPECT_EQ(paged.second, (2.0 + 4.0) * token);
}

TEST(KvCache, ValidateRejectsNonsensicalConfigs)
{
    serve::ServeConfig config = kvServe();
    config.kv.enabled = true;
    EXPECT_TRUE(config.validate().empty());

    // A zero HBM budget cannot hold even one step's working set.
    config.kv.hbm_budget = 0.0;
    EXPECT_FALSE(config.validate().empty());

    config = kvServe();
    config.kv.enabled = true;
    config.kv.host_budget = 0.0;
    EXPECT_FALSE(config.validate().empty());

    // An infinite budget has no whole-page count under the paged layout.
    config = kvServe();
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.hbm_budget = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().empty());
    config = kvServe();
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.host_budget = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().empty());

    // Disabled KV leaves the other fields inert: no rejection.
    config = kvServe();
    config.kv.enabled = false;
    config.kv.hbm_budget = 0.0;
    EXPECT_TRUE(config.validate().empty());

    // ... except the layout, which contradicts a disabled model outright.
    config = kvServe();
    config.kv.enabled = false;
    config.kv.layout = serve::KvLayout::Paged;
    EXPECT_FALSE(config.validate().empty());

    // The paged allocator needs a positive page size.
    config = kvServe();
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.block_tokens = 0;
    EXPECT_FALSE(config.validate().empty());

    // Prefix sharing needs per-request block tables: contiguous KV has
    // nowhere to map shared pages.
    config = kvServe();
    config.kv.enabled = true;
    config.kv.prefix.share_fraction = 0.5;
    EXPECT_FALSE(config.validate().empty());

    // The share fraction is a probability.
    config = kvServe();
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.prefix.share_fraction = 1.5;
    EXPECT_FALSE(config.validate().empty());

    // Enabled sharing needs a sane prefix pool.
    config = kvServe();
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.prefix.share_fraction = 0.5;
    config.kv.prefix.num_prefixes = 0;
    EXPECT_FALSE(config.validate().empty());

    // And the well-formed paged + prefix config passes.
    config = kvServe();
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.prefix.share_fraction = 0.5;
    EXPECT_TRUE(config.validate().empty());
}

// ---- paged layout ----------------------------------------------------------

TEST(PagedKv, AmpleHbmPagedMatchesContiguousAndDisabledBitForBit)
{
    // With every page inside the HBM tier and no prefixes, the paged
    // planner's merged ranges stay below the budget, no flow is issued,
    // and the schedule is exactly the contiguous — and pre-KV — one.
    const auto off = runServe(kvServe(), train::Strategy::SmartUpdateOpt);

    auto contiguous = kvServe();
    contiguous.kv.enabled = true;
    contiguous.kv.hbm_budget = GiB(256.0);
    const auto cont = runServe(contiguous, train::Strategy::SmartUpdateOpt);

    auto paged = contiguous;
    paged.kv.layout = serve::KvLayout::Paged;
    paged.kv.block_tokens = 16;
    const auto pg = runServe(paged, train::Strategy::SmartUpdateOpt);

    expectRecordsBitIdentical(off.requests, pg.requests);
    expectRecordsBitIdentical(cont.requests, pg.requests);
    EXPECT_EQ(off.iteration_time, pg.iteration_time);
    EXPECT_EQ(off.events_executed, pg.events_executed);
    EXPECT_EQ(pg.traffic.kv_spill_read, 0.0);
    EXPECT_EQ(pg.traffic.kv_spill_write, 0.0);
}

TEST(PagedKv, SerialRequestsUnderSpillMatchContiguousBitForBit)
{
    // The oracle anchor under REAL spill: with one request in flight at a
    // time (max_batch = 1) and block_tokens covering the whole working
    // set, every request occupies slot 0 of a drained arena, so its
    // resident range is [0, fill) and its appends [fill, fill + n) — the
    // exact splitKvRange() arguments of the contiguous layout, hence
    // bit-identical flows even while KV crosses the host and CSD tiers.
    auto contiguous = kvServe();
    contiguous.max_batch = 1;
    contiguous.output_tokens = 24;
    contiguous.kv.enabled = true;
    contiguous.kv.hbm_budget = MiB(2.0);
    contiguous.kv.host_budget = MiB(2.0);
    const auto cont =
        runServe(contiguous, train::Strategy::SmartUpdateOptComp);
    EXPECT_GT(cont.traffic.kv_spill_read, 0.0); // the anchor has teeth

    auto paged = contiguous;
    paged.kv.layout = serve::KvLayout::Paged;
    paged.kv.block_tokens = 4096; // one page >= any request's KV
    const auto pg = runServe(paged, train::Strategy::SmartUpdateOptComp);

    expectRecordsBitIdentical(cont.requests, pg.requests);
    EXPECT_EQ(cont.iteration_time, pg.iteration_time);
    EXPECT_EQ(cont.events_executed, pg.events_executed);
    EXPECT_EQ(cont.traffic.kv_spill_read, pg.traffic.kv_spill_read);
    EXPECT_EQ(cont.traffic.kv_spill_write, pg.traffic.kv_spill_write);
}

TEST(PagedKv, RepeatedPagedRunsAreBitIdentical)
{
    auto config = kvServe();
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.block_tokens = 16;
    config.kv.hbm_budget = MiB(16.0);
    config.kv.host_budget = MiB(32.0);
    config.kv.prefix.share_fraction = 0.75;
    config.kv.prefix.num_prefixes = 2;
    config.kv.prefix.prefix_tokens = 40;
    const auto a = runServe(config, train::Strategy::SmartUpdateOptComp);
    const auto b = runServe(config, train::Strategy::SmartUpdateOptComp);
    expectRecordsBitIdentical(a.requests, b.requests);
    EXPECT_EQ(a.iteration_time, b.iteration_time);
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.traffic.kv_spill_read, b.traffic.kv_spill_read);
    EXPECT_EQ(a.kv.prefix_hits, b.kv.prefix_hits);
    EXPECT_EQ(a.kv.cow_copies, b.kv.cow_copies);
    EXPECT_EQ(a.kv.peak_span_blocks, b.kv.peak_span_blocks);
}

TEST(PagedKv, PrefixSharingShrinksKvWritesAndPrefillCompute)
{
    auto config = kvServe();
    config.num_requests = 16;
    config.kv.enabled = true;
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.block_tokens = 16;
    config.kv.hbm_budget = MiB(4.0); // tight: writes become spill flows
    config.kv.host_budget = MiB(8.0);
    const auto solo = runServe(config, train::Strategy::SmartUpdateOptComp);

    auto shared = config;
    shared.kv.prefix.share_fraction = 1.0;
    shared.kv.prefix.num_prefixes = 1;
    shared.kv.prefix.prefix_tokens = 48; // of the 64-token prompts
    const auto hit = runServe(shared, train::Strategy::SmartUpdateOptComp);

    // Every request past the first maps the cached prefix instead of
    // rewriting it, so spill writes shrink; the skipped prefill compute
    // and writes also finish the workload no later.
    EXPECT_GT(hit.kv.prefix_hits, 0u);
    EXPECT_LT(hit.traffic.kv_spill_write, solo.traffic.kv_spill_write);
    EXPECT_LE(hit.iteration_time, solo.iteration_time);

    // 48 tokens end on a 16-token page boundary: no COW. A misaligned
    // prefix COWs once per hit request.
    EXPECT_EQ(hit.kv.cow_copies, 0u);
    auto misaligned = shared;
    misaligned.kv.prefix.prefix_tokens = 40;
    const auto cow =
        runServe(misaligned, train::Strategy::SmartUpdateOptComp);
    EXPECT_EQ(cow.kv.cow_copies, cow.kv.prefix_hits);
}

} // namespace
} // namespace smartinf
