/**
 * @file
 * Alias-regression tests for the RunSpec hash over the new workload and
 * serving knobs (ROADMAP: new config knobs must join the FNV-1a hash in
 * src/exp/run_spec.cc or cached results alias). The contract under test:
 * any two specs differing in exactly one result-affecting field hash
 * differently, and fields the workload kind cannot consume are normalized
 * out (so e.g. a training spec is one cache entry across serve configs).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <set>
#include <vector>

#include "exp/result_io.h"
#include "exp/run_spec.h"

namespace smartinf::exp {
namespace {

RunSpec
servingSpec()
{
    RunSpec spec;
    spec.workload = train::WorkloadKind::Serving;
    spec.model = train::ModelSpec::gpt2(0.5);
    // The quantized-weight engine so weight_wire_fraction is live.
    spec.system.strategy = train::Strategy::SmartUpdateOptComp;
    spec.system.num_devices = 4;
    return spec;
}

TEST(RunSpecHash, EveryNewServingFieldChangesTheHash)
{
    const RunSpec base = servingSpec();

    // One mutator per new result-affecting field.
    struct Mutation {
        const char *field;
        std::function<void(RunSpec &)> apply;
    };
    const std::vector<Mutation> mutations = {
        {"workload",
         [](RunSpec &s) { s.workload = train::WorkloadKind::Training; }},
        {"serve.scheduler",
         [](RunSpec &s) {
             s.serve.scheduler = serve::SchedulerPolicy::Fifo;
         }},
        {"serve.num_requests", [](RunSpec &s) { s.serve.num_requests += 1; }},
        {"serve.arrival_rate",
         [](RunSpec &s) { s.serve.arrival_rate *= 2.0; }},
        {"serve.seed", [](RunSpec &s) { s.serve.seed += 1; }},
        {"serve.prompt_tokens",
         [](RunSpec &s) { s.serve.prompt_tokens += 1; }},
        {"serve.output_tokens",
         [](RunSpec &s) { s.serve.output_tokens += 1; }},
        {"serve.max_batch", [](RunSpec &s) { s.serve.max_batch += 1; }},
        {"serve.weight_wire_fraction",
         [](RunSpec &s) { s.serve.weight_wire_fraction = 0.125; }},
        {"serve.trace", [](RunSpec &s) { s.serve.trace = {0.0, 1.0}; }},
        {"serve.prompt_lengths.kind",
         [](RunSpec &s) {
             s.serve.prompt_lengths.kind = serve::LengthDistKind::Uniform;
         }},
        {"serve.output_lengths.kind",
         [](RunSpec &s) {
             s.serve.output_lengths.kind =
                 serve::LengthDistKind::Lognormal;
         }},
        {"serve.kv.enabled",
         [](RunSpec &s) { s.serve.kv.enabled = true; }},
        {"serve.client_mode",
         [](RunSpec &s) {
             s.serve.client_mode = serve::ClientMode::ClosedLoop;
         }},
    };

    // Every single-field mutation must produce a distinct hash — distinct
    // from the base and pairwise distinct from every other mutation.
    std::set<std::uint64_t> hashes{base.hash()};
    for (const Mutation &m : mutations) {
        RunSpec mutated = base;
        m.apply(mutated);
        const auto [_, inserted] = hashes.insert(mutated.hash());
        EXPECT_TRUE(inserted) << "hash alias on field " << m.field;
    }
    EXPECT_EQ(hashes.size(), mutations.size() + 1);
}

TEST(RunSpecHash, TraceContentChangesTheHash)
{
    RunSpec a = servingSpec();
    a.serve.trace = {0.0, 1.0, 2.0};
    RunSpec b = a;
    b.serve.trace = {0.0, 1.0, 2.5};
    RunSpec c = a;
    c.serve.trace = {0.0, 1.0, 2.0, 3.0};
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_NE(a.hash(), c.hash());
    EXPECT_NE(b.hash(), c.hash());
}

TEST(RunSpecHash, TrainingSpecsNormalizeServingKnobsOut)
{
    // A training run cannot consume the serve config, so differing serve
    // fields must NOT split the cache entry.
    RunSpec a = servingSpec();
    a.workload = train::WorkloadKind::Training;
    RunSpec b = a;
    b.serve.arrival_rate *= 3.0;
    b.serve.max_batch += 2;
    b.serve.seed += 7;
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(RunSpecHash, ServingSpecsNormalizeTrainingKnobsOut)
{
    RunSpec a = servingSpec();
    RunSpec b = a;
    b.train.batch_size += 4;
    b.train.seq_len *= 2;
    EXPECT_EQ(a.hash(), b.hash());

    // Training-only SystemConfig knobs must not split serving cache
    // entries either: the serving path has no optimizer update, no
    // gradient compression, and no gradient-sync collective.
    RunSpec c = servingSpec();
    RunSpec d = c;
    d.system.optimizer = optim::OptimizerKind::SgdMomentum;
    d.system.compression_wire_fraction = 0.1;
    EXPECT_EQ(c.hash(), d.hash());

    RunSpec e = servingSpec();
    e.system.num_nodes = 4;
    RunSpec f = e;
    f.system.overlap_grad_sync = !f.system.overlap_grad_sync;
    f.system.nic_bandwidth *= 2.0;
    EXPECT_EQ(e.hash(), f.hash());
    // ... while a training spec still keys on them.
    RunSpec g = e;
    g.workload = train::WorkloadKind::Training;
    RunSpec h = g;
    h.system.overlap_grad_sync = !h.system.overlap_grad_sync;
    EXPECT_NE(g.hash(), h.hash());
}

TEST(RunSpecHash, WeightFractionIsNormalizedForDenseEngines)
{
    // Mirrors the compression_wire_fraction normalization: dense-weight
    // engines ignore the quantization ratio, so it must not split their
    // cache entries — but the quantized engine must key on it.
    RunSpec dense = servingSpec();
    dense.system.strategy = train::Strategy::SmartUpdateOpt;
    RunSpec dense2 = dense;
    dense2.serve.weight_wire_fraction = 0.5;
    EXPECT_EQ(dense.hash(), dense2.hash());

    RunSpec quant = servingSpec();
    RunSpec quant2 = quant;
    quant2.serve.weight_wire_fraction = 0.5;
    EXPECT_NE(quant.hash(), quant2.hash());
}

TEST(RunSpecHash, OpenLoopKnobsAreNormalizedUnderATrace)
{
    // With a trace set, generation ignores num_requests/arrival_rate/seed
    // entirely — hashing them anyway would alias nothing but split caches.
    RunSpec a = servingSpec();
    a.serve.trace = {0.0, 0.5};
    RunSpec b = a;
    b.serve.num_requests += 5;
    b.serve.arrival_rate *= 2.0;
    b.serve.seed += 1;
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(RunSpecHash, KvKnobsKeyOnlyWhenEnabled)
{
    // Disabled KV leaves every budget inert — one cache entry.
    RunSpec off = servingSpec();
    RunSpec off2 = off;
    off2.serve.kv.hbm_budget *= 2.0;
    off2.serve.kv.host_budget *= 2.0;
    EXPECT_EQ(off.hash(), off2.hash());

    // Enabled KV keys on every budget knob, each one separately.
    RunSpec on = servingSpec();
    on.serve.kv.enabled = true;
    std::set<std::uint64_t> hashes{on.hash()};
    RunSpec mutated = on;
    mutated.serve.kv.hbm_budget *= 2.0;
    EXPECT_TRUE(hashes.insert(mutated.hash()).second);
    mutated = on;
    mutated.serve.kv.host_budget *= 2.0;
    EXPECT_TRUE(hashes.insert(mutated.hash()).second);
}

TEST(RunSpecHash, PagedKvKnobsKeyOnlyForThePagedLayout)
{
    // Contiguous KV ignores the page size and every prefix knob, so they
    // must normalize out of its cache entry...
    RunSpec contig = servingSpec();
    contig.serve.kv.enabled = true;
    RunSpec contig2 = contig;
    contig2.serve.kv.block_tokens = 64;
    contig2.serve.kv.prefix.share_fraction = 0.9;
    contig2.serve.kv.prefix.num_prefixes = 7;
    contig2.serve.kv.prefix.prefix_tokens = 123;
    EXPECT_EQ(contig.hash(), contig2.hash());

    // ...while the paged layout keys on the layout itself and the page
    // size, each separately.
    RunSpec paged = contig;
    paged.serve.kv.layout = serve::KvLayout::Paged;
    EXPECT_NE(contig.hash(), paged.hash());
    RunSpec paged2 = paged;
    paged2.serve.kv.block_tokens *= 2;
    EXPECT_NE(paged.hash(), paged2.hash());

    // share_fraction = 0 disables sharing, leaving the prefix mix shape
    // inert; a nonzero share revives it knob by knob.
    RunSpec noshare = paged;
    RunSpec noshare2 = paged;
    noshare2.serve.kv.prefix.num_prefixes = 9;
    noshare2.serve.kv.prefix.prefix_tokens = 77;
    EXPECT_EQ(noshare.hash(), noshare2.hash());

    RunSpec shared = paged;
    shared.serve.kv.prefix.share_fraction = 0.5;
    EXPECT_NE(paged.hash(), shared.hash());
    RunSpec shared2 = shared;
    shared2.serve.kv.prefix.num_prefixes += 1;
    EXPECT_NE(shared.hash(), shared2.hash());
    RunSpec shared3 = shared;
    shared3.serve.kv.prefix.prefix_tokens += 16;
    EXPECT_NE(shared.hash(), shared3.hash());
}

TEST(RunSpecHash, PrefixSharingRevivesTheSeedLikeSampledLengths)
{
    // Closed loop + Fixed lengths: the seed is normally dead (arrivals
    // are reactive, lengths constant) — but prefix sharing draws the
    // per-request prefix assignment from the seed's prefix stream, so it
    // must key again.
    RunSpec base = servingSpec();
    base.serve.client_mode = serve::ClientMode::ClosedLoop;
    base.serve.kv.enabled = true;
    base.serve.kv.layout = serve::KvLayout::Paged;
    base.serve.kv.block_tokens = 16;

    RunSpec dead = base;
    dead.serve.seed += 1;
    EXPECT_EQ(base.hash(), dead.hash());

    RunSpec sharing = base;
    sharing.serve.kv.prefix.share_fraction = 0.5;
    sharing.serve.kv.prefix.num_prefixes = 2;
    sharing.serve.kv.prefix.prefix_tokens = 32;
    RunSpec sharing2 = sharing;
    sharing2.serve.seed += 1;
    EXPECT_NE(sharing.hash(), sharing2.hash());

    // Same rule under a trace: arrivals come from the trace, but the
    // prefix stream still consumes the seed.
    RunSpec traced = sharing;
    traced.serve.trace = {0.0, 1.0};
    RunSpec traced2 = traced;
    traced2.serve.seed += 1;
    EXPECT_NE(traced.hash(), traced2.hash());
}

TEST(RunSpecHash, LengthDistParamsKeyOnlyForTheirKind)
{
    // Fixed: the lognormal shape is inert; the scalar keys (covered by
    // the mutation sweep above).
    RunSpec fixed = servingSpec();
    RunSpec fixed2 = fixed;
    fixed2.serve.output_lengths.log_mean = 9.0;
    fixed2.serve.output_lengths.min_tokens = 3;
    EXPECT_EQ(fixed.hash(), fixed2.hash());

    // Uniform: bounds key, lognormal shape stays inert, and the now-dead
    // scalar stops keying.
    RunSpec uni = servingSpec();
    uni.serve.output_lengths.kind = serve::LengthDistKind::Uniform;
    RunSpec uni2 = uni;
    uni2.serve.output_lengths.max_tokens += 8;
    EXPECT_NE(uni.hash(), uni2.hash());
    RunSpec uni3 = uni;
    uni3.serve.output_lengths.log_sigma = 7.0;
    uni3.serve.output_tokens += 100;
    EXPECT_EQ(uni.hash(), uni3.hash());

    // Lognormal: the ln-space shape keys.
    RunSpec log = servingSpec();
    log.serve.output_lengths.kind = serve::LengthDistKind::Lognormal;
    RunSpec log2 = log;
    log2.serve.output_lengths.log_sigma *= 2.0;
    EXPECT_NE(log.hash(), log2.hash());
}

TEST(RunSpecHash, ClosedLoopNormalizesOpenLoopKnobsAndViceVersa)
{
    RunSpec closed = servingSpec();
    closed.serve.client_mode = serve::ClientMode::ClosedLoop;

    // Arrivals are reactive: the open-loop rate cannot matter, and with
    // Fixed lengths neither can the seed.
    RunSpec closed2 = closed;
    closed2.serve.arrival_rate *= 4.0;
    closed2.serve.seed += 3;
    EXPECT_EQ(closed.hash(), closed2.hash());

    // The closed-loop shape keys: population and think time.
    RunSpec closed3 = closed;
    closed3.serve.concurrency += 1;
    EXPECT_NE(closed.hash(), closed3.hash());
    RunSpec closed4 = closed;
    closed4.serve.think_time += 0.5;
    EXPECT_NE(closed.hash(), closed4.hash());

    // Sampled lengths revive the seed (it feeds the length stream).
    RunSpec sampled = closed;
    sampled.serve.output_lengths.kind = serve::LengthDistKind::Lognormal;
    RunSpec sampled2 = sampled;
    sampled2.serve.seed += 1;
    EXPECT_NE(sampled.hash(), sampled2.hash());

    // Open loop: the closed-loop shape is inert.
    RunSpec open = servingSpec();
    RunSpec open2 = open;
    open2.serve.concurrency += 5;
    open2.serve.think_time += 1.0;
    EXPECT_EQ(open.hash(), open2.hash());
}

TEST(RunSpecHash, TraceWithSampledLengthsKeysOnTheSeed)
{
    RunSpec a = servingSpec();
    a.serve.trace = {0.0, 1.0};
    a.serve.output_lengths.kind = serve::LengthDistKind::Uniform;
    a.serve.output_lengths.min_tokens = 1;
    a.serve.output_lengths.max_tokens = 32;
    RunSpec b = a;
    b.serve.seed += 1;
    EXPECT_NE(a.hash(), b.hash());
}

TEST(RunSpecHash, DescribeDistinguishesServingSpecs)
{
    const RunSpec spec = servingSpec();
    const std::string label = spec.describe();
    EXPECT_NE(label.find("serve-continuous"), std::string::npos) << label;
    EXPECT_NE(label.find("/b8"), std::string::npos) << label;

    RunSpec training = spec;
    training.workload = train::WorkloadKind::Training;
    EXPECT_EQ(training.describe().find("serve"), std::string::npos);

    RunSpec closed = spec;
    closed.serve.client_mode = serve::ClientMode::ClosedLoop;
    closed.serve.concurrency = 12;
    EXPECT_NE(closed.describe().find("/cl12"), std::string::npos)
        << closed.describe();

    RunSpec kv = spec;
    kv.serve.kv.enabled = true;
    EXPECT_NE(kv.describe().find("/kv"), std::string::npos)
        << kv.describe();
    EXPECT_EQ(kv.describe().find("/paged"), std::string::npos)
        << kv.describe();

    RunSpec paged = kv;
    paged.serve.kv.layout = serve::KvLayout::Paged;
    paged.serve.kv.block_tokens = 16;
    EXPECT_NE(paged.describe().find("/paged16"), std::string::npos)
        << paged.describe();
    paged.serve.kv.prefix.share_fraction = 0.5;
    paged.serve.kv.prefix.num_prefixes = 2;
    paged.serve.kv.prefix.prefix_tokens = 64;
    EXPECT_NE(paged.describe().find("/px0.5"), std::string::npos)
        << paged.describe();

    RunSpec mixed = spec;
    mixed.serve.output_lengths.kind = serve::LengthDistKind::Lognormal;
    EXPECT_NE(mixed.describe().find("/o-lognormal"), std::string::npos)
        << mixed.describe();
}

TEST(RunSpecHash, FaultKnobsAreInertWhileDisabled)
{
    // A disabled fault model is one cache entry no matter how its knobs
    // are set — for both workload kinds.
    for (const auto kind :
         {train::WorkloadKind::Training, train::WorkloadKind::Serving}) {
        RunSpec a = servingSpec();
        a.workload = kind;
        RunSpec b = a;
        b.fault.horizon *= 2.0;
        b.fault.seed += 1;
        b.fault.node_mtbf = 100.0;
        b.fault.retry_limit += 2;
        b.fault.checkpoint_interval += 1;
        b.fault.num_iterations += 4;
        EXPECT_EQ(a.hash(), b.hash()) << "workload kind "
                                      << static_cast<int>(kind);
    }

    // Flipping the master switch splits the entry (the checkpointed
    // training workload replaces runIteration even with no category
    // armed).
    RunSpec off = servingSpec();
    off.workload = train::WorkloadKind::Training;
    RunSpec on = off;
    on.fault.enabled = true;
    EXPECT_NE(off.hash(), on.hash());
}

TEST(RunSpecHash, TrainingFaultNormalization)
{
    RunSpec base = servingSpec();
    base.workload = train::WorkloadKind::Training;
    base.fault.enabled = true;

    // Checkpoint knobs and job length shape the checkpointed workload —
    // they key even with no fault category armed.
    RunSpec ckpt = base;
    ckpt.fault.checkpoint_interval += 1;
    EXPECT_NE(base.hash(), ckpt.hash());
    RunSpec iters = base;
    iters.fault.num_iterations += 4;
    EXPECT_NE(base.hash(), iters.hash());

    // The retry limit is serving-only: inert under training even with a
    // crash process armed.
    RunSpec armed = base;
    armed.fault.node_mtbf = 120.0;
    RunSpec retry = armed;
    retry.fault.retry_limit += 2;
    EXPECT_EQ(armed.hash(), retry.hash());

    // The fault seed keys only once a category is armed (no category →
    // no schedule drawn → the seed cannot matter).
    RunSpec seeded = base;
    seeded.fault.seed += 1;
    EXPECT_EQ(base.hash(), seeded.hash());
    RunSpec armed_seeded = armed;
    armed_seeded.fault.seed += 1;
    EXPECT_NE(armed.hash(), armed_seeded.hash());

    // Each category's episode parameters key only while that category's
    // MTBF is finite.
    RunSpec shape = base;
    shape.fault.degrade_factor = 0.25;
    shape.fault.degrade_duration *= 2.0;
    shape.fault.repair_time *= 2.0;
    EXPECT_EQ(base.hash(), shape.hash());

    RunSpec degrade = base;
    degrade.fault.degrade_mtbf = 60.0;
    RunSpec degrade2 = degrade;
    degrade2.fault.degrade_factor = 0.25;
    EXPECT_NE(degrade.hash(), degrade2.hash());

    RunSpec repair = armed;
    repair.fault.repair_time *= 2.0;
    EXPECT_NE(armed.hash(), repair.hash());
}

TEST(RunSpecHash, ServingFaultNormalization)
{
    RunSpec base = servingSpec();
    base.fault.enabled = true;

    // Checkpoint knobs are training-only; the fault seed is derived from
    // serve.seed (already hashed), so FaultConfig::seed is inert too.
    RunSpec armed = base;
    armed.fault.node_mtbf = 120.0;
    RunSpec inert = armed;
    inert.fault.checkpoint_interval += 1;
    inert.fault.num_iterations += 4;
    inert.fault.seed += 1;
    EXPECT_EQ(armed.hash(), inert.hash());

    // The retry limit keys only with a crash process armed — only node
    // crashes displace requests.
    RunSpec retry_unarmed = base;
    retry_unarmed.fault.retry_limit += 2;
    EXPECT_EQ(base.hash(), retry_unarmed.hash());

    RunSpec retry = armed;
    retry.fault.retry_limit += 2;
    EXPECT_NE(armed.hash(), retry.hash());
}

TEST(RunSpecHash, DescribeTagsFaultSpecs)
{
    RunSpec plain = servingSpec();
    EXPECT_EQ(plain.describe().find("/mtbf"), std::string::npos)
        << plain.describe();

    RunSpec training = servingSpec();
    training.workload = train::WorkloadKind::Training;
    training.fault.enabled = true;
    training.fault.node_mtbf = 300.0;
    training.fault.num_iterations = 8;
    training.fault.checkpoint_interval = 2;
    const std::string tlabel = training.describe();
    EXPECT_NE(tlabel.find("/mtbf300"), std::string::npos) << tlabel;
    EXPECT_NE(tlabel.find("/i8/ckpt2"), std::string::npos) << tlabel;
    EXPECT_EQ(tlabel.find("/retry"), std::string::npos) << tlabel;

    RunSpec serving = servingSpec();
    serving.fault.enabled = true;
    serving.fault.node_mtbf = 120.0;
    serving.fault.retry_limit = 5;
    const std::string slabel = serving.describe();
    EXPECT_NE(slabel.find("/mtbf120"), std::string::npos) << slabel;
    EXPECT_NE(slabel.find("/retry5"), std::string::npos) << slabel;
    EXPECT_EQ(slabel.find("/ckpt"), std::string::npos) << slabel;

    RunSpec episodes = servingSpec();
    episodes.fault.enabled = true;
    episodes.fault.degrade_mtbf = 60.0;
    const std::string elabel = episodes.describe();
    EXPECT_NE(elabel.find("/deg60"), std::string::npos) << elabel;
}

TEST(RunSpecHash, CtrlKnobsAreInertWhileDisabled)
{
    // A disabled control plane is one cache entry no matter how the
    // nested knobs sit (they are rejected when *armed* while disabled,
    // but un-armed shape knobs like the policy or target must normalize
    // out).
    const RunSpec base = servingSpec();
    RunSpec b = base;
    b.serve.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    b.serve.ctrl.slo.target_p99_s = 9.0;
    b.serve.ctrl.autoscale.max_replicas = 7;
    EXPECT_EQ(base.hash(), b.hash());
    // Flipping the master switch splits the entry.
    RunSpec on = base;
    on.serve.ctrl.enabled = true;
    EXPECT_NE(base.hash(), on.hash());
}

TEST(RunSpecHash, EveryArmedCtrlKnobChangesTheHash)
{
    RunSpec base = servingSpec();
    base.serve.ctrl.enabled = true;
    base.serve.ctrl.slo.admission = ctrl::AdmissionMode::Defer;
    base.serve.ctrl.slo.target_p99_s = 2.0;
    base.serve.ctrl.autoscale.enabled = true;
    base.serve.ctrl.autoscale.max_replicas = 3;

    struct Mutation {
        const char *field;
        std::function<void(RunSpec &)> apply;
    };
    const std::vector<Mutation> mutations = {
        {"ctrl.policy",
         [](RunSpec &s) {
             s.serve.ctrl.policy = ctrl::DispatchPolicy::PowerOfTwoChoices;
         }},
        {"ctrl.slo.admission",
         [](RunSpec &s) {
             s.serve.ctrl.slo.admission = ctrl::AdmissionMode::Reject;
         }},
        {"ctrl.slo.target_p99_s",
         [](RunSpec &s) { s.serve.ctrl.slo.target_p99_s = 4.0; }},
        {"ctrl.slo.defer_delay_s",
         [](RunSpec &s) { s.serve.ctrl.slo.defer_delay_s = 0.25; }},
        {"ctrl.slo.max_defers",
         [](RunSpec &s) { s.serve.ctrl.slo.max_defers += 1; }},
        {"ctrl.autoscale.enabled",
         [](RunSpec &s) { s.serve.ctrl.autoscale.enabled = false; }},
        {"ctrl.autoscale.min_replicas",
         [](RunSpec &s) { s.serve.ctrl.autoscale.min_replicas += 1; }},
        {"ctrl.autoscale.max_replicas",
         [](RunSpec &s) { s.serve.ctrl.autoscale.max_replicas += 1; }},
        {"ctrl.autoscale.window_s",
         [](RunSpec &s) { s.serve.ctrl.autoscale.window_s *= 2.0; }},
        {"ctrl.autoscale.cooldown_s",
         [](RunSpec &s) { s.serve.ctrl.autoscale.cooldown_s *= 2.0; }},
        {"ctrl.autoscale.scale_up_depth",
         [](RunSpec &s) { s.serve.ctrl.autoscale.scale_up_depth += 1.0; }},
        {"ctrl.autoscale.scale_down_depth",
         [](RunSpec &s) {
             s.serve.ctrl.autoscale.scale_down_depth += 0.25;
         }},
    };
    std::set<std::uint64_t> hashes{base.hash()};
    for (const Mutation &m : mutations) {
        RunSpec mutated = base;
        m.apply(mutated);
        const auto [_, inserted] = hashes.insert(mutated.hash());
        EXPECT_TRUE(inserted) << "hash alias on field " << m.field;
    }
    EXPECT_EQ(hashes.size(), mutations.size() + 1);
}

TEST(RunSpecHash, CtrlNormalizesUnarmedFeatureShapes)
{
    // Enabled plane, round-robin, everything off: the SLO/defer/autoscale
    // shape knobs cannot affect the result and must normalize out.
    RunSpec base = servingSpec();
    base.serve.ctrl.enabled = true;
    RunSpec b = base;
    b.serve.ctrl.slo.target_p99_s = 9.0; // admission Off: target inert
    b.serve.ctrl.slo.defer_delay_s = 0.125;
    b.serve.ctrl.slo.max_defers = 7;
    b.serve.ctrl.autoscale.min_replicas = 1; // autoscale off: shape inert
    b.serve.ctrl.autoscale.window_s = 99.0;
    EXPECT_EQ(base.hash(), b.hash());

    // Defer shape keys only under Defer (Reject never re-judges).
    RunSpec reject = base;
    reject.serve.ctrl.slo.admission = ctrl::AdmissionMode::Reject;
    reject.serve.ctrl.slo.target_p99_s = 2.0;
    RunSpec reject2 = reject;
    reject2.serve.ctrl.slo.defer_delay_s = 0.125;
    reject2.serve.ctrl.slo.max_defers = 7;
    EXPECT_EQ(reject.hash(), reject2.hash());

    // With admission Off the p99 target is inert even under autoscaling:
    // the autoscaler keys on load alone.
    RunSpec att = base;
    att.serve.ctrl.autoscale.enabled = true;
    att.serve.ctrl.autoscale.max_replicas = 3;
    att.serve.ctrl.slo.target_p99_s = 2.0;
    RunSpec att2 = att;
    att2.serve.ctrl.slo.target_p99_s = 4.0;
    EXPECT_EQ(att.hash(), att2.hash());
}

TEST(RunSpecHash, CtrlRandomnessRevivesTheSeedLikeSampledLengths)
{
    // Closed loop + Fixed lengths: the seed is normally dead. Enabled
    // round-robin draws nothing — still dead. A tie-breaking policy
    // consumes the ctrl stream, so the seed must revive.
    RunSpec dead = servingSpec();
    dead.serve.client_mode = serve::ClientMode::ClosedLoop;
    dead.serve.ctrl.enabled = true;
    RunSpec dead2 = dead;
    dead2.serve.seed += 1;
    EXPECT_EQ(dead.hash(), dead2.hash());

    RunSpec jsq = dead;
    jsq.serve.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    RunSpec jsq2 = jsq;
    jsq2.serve.seed += 1;
    EXPECT_NE(jsq.hash(), jsq2.hash());
}

TEST(RunSpecHash, DescribeTagsCtrlSpecs)
{
    RunSpec plain = servingSpec();
    EXPECT_EQ(plain.describe().find("/ctrl"), std::string::npos)
        << plain.describe();

    RunSpec full = servingSpec();
    full.serve.ctrl.enabled = true;
    full.serve.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    full.serve.ctrl.slo.admission = ctrl::AdmissionMode::Reject;
    full.serve.ctrl.slo.target_p99_s = 2.0;
    full.serve.ctrl.autoscale.enabled = true;
    full.serve.ctrl.autoscale.min_replicas = 1;
    full.serve.ctrl.autoscale.max_replicas = 3;
    const std::string label = full.describe();
    EXPECT_NE(label.find("/ctrl-jsq"), std::string::npos) << label;
    EXPECT_NE(label.find("/slo-reject2"), std::string::npos) << label;
    EXPECT_NE(label.find("/as1-3"), std::string::npos) << label;

    RunSpec bare = servingSpec();
    bare.serve.ctrl.enabled = true;
    const std::string blabel = bare.describe();
    EXPECT_NE(blabel.find("/ctrl-round-robin"), std::string::npos)
        << blabel;
    EXPECT_EQ(blabel.find("/slo-"), std::string::npos) << blabel;
    EXPECT_EQ(blabel.find("/as"), std::string::npos) << blabel;
}

TEST(RunSpecHash, ModulationKnobsAreInertWhileDisabled)
{
    // The no-new-knob alias: a default (disabled) modulation block is
    // the same cache entry as a pre-modulation spec no matter how its
    // shape knobs are set — generation never consults them.
    RunSpec base = servingSpec();
    RunSpec shaped = base;
    shaped.serve.modulation.diurnal_amplitude = 0.9;
    shaped.serve.modulation.diurnal_period_s = 60.0;
    shaped.serve.modulation.burst_rate_multiplier = 8.0;
    shaped.serve.modulation.burst_mean_gap_s = 1.0;
    EXPECT_EQ(base.hash(), shaped.hash());
    EXPECT_EQ(base.describe(), shaped.describe());
}

TEST(RunSpecHash, EveryArmedModulationKnobChangesTheHash)
{
    RunSpec base = servingSpec();
    base.serve.modulation.enabled = true;
    base.serve.modulation.diurnal_amplitude = 0.5;
    base.serve.modulation.diurnal_period_s = 120.0;
    base.serve.modulation.burst_rate_multiplier = 3.0;
    base.serve.modulation.burst_mean_gap_s = 30.0;
    base.serve.modulation.burst_mean_duration_s = 5.0;

    struct Mutation {
        const char *field;
        std::function<void(RunSpec &)> apply;
    };
    const std::vector<Mutation> mutations = {
        {"enabled", [](RunSpec &s) { s.serve.modulation.enabled = false; }},
        {"diurnal_amplitude",
         [](RunSpec &s) { s.serve.modulation.diurnal_amplitude = 0.25; }},
        {"diurnal_period_s",
         [](RunSpec &s) { s.serve.modulation.diurnal_period_s = 60.0; }},
        {"burst_rate_multiplier",
         [](RunSpec &s) {
             s.serve.modulation.burst_rate_multiplier = 2.0;
         }},
        {"burst_mean_gap_s",
         [](RunSpec &s) { s.serve.modulation.burst_mean_gap_s = 15.0; }},
        {"burst_mean_duration_s",
         [](RunSpec &s) {
             s.serve.modulation.burst_mean_duration_s = 2.0;
         }},
    };
    std::set<std::uint64_t> hashes = {base.hash()};
    for (const Mutation &m : mutations) {
        RunSpec mutated = base;
        m.apply(mutated);
        EXPECT_TRUE(hashes.insert(mutated.hash()).second)
            << m.field << " did not change the hash";
    }
}

TEST(RunSpecHash, ModulationNormalizesUnarmedComponentShapes)
{
    // Bursts armed, sinusoid flat: the diurnal shape knobs are inert.
    RunSpec bursts = servingSpec();
    bursts.serve.modulation.enabled = true;
    bursts.serve.modulation.burst_rate_multiplier = 3.0;
    RunSpec bursts2 = bursts;
    bursts2.serve.modulation.diurnal_period_s = 7.0;
    EXPECT_EQ(bursts.hash(), bursts2.hash());

    // Sinusoid armed, multiplier 1: the burst shape knobs are inert.
    RunSpec diurnal = servingSpec();
    diurnal.serve.modulation.enabled = true;
    diurnal.serve.modulation.diurnal_amplitude = 0.5;
    RunSpec diurnal2 = diurnal;
    diurnal2.serve.modulation.burst_mean_gap_s = 1.0;
    diurnal2.serve.modulation.burst_mean_duration_s = 99.0;
    EXPECT_EQ(diurnal.hash(), diurnal2.hash());

    // Modulation shapes only generated open-loop arrivals: under a
    // trace or closed loop the whole block is normalized out (validate
    // rejects those combinations; the hash must agree they alias).
    RunSpec traced = servingSpec();
    traced.serve.trace = {0.0, 1.0};
    RunSpec traced2 = traced;
    traced2.serve.modulation.enabled = true;
    traced2.serve.modulation.diurnal_amplitude = 0.5;
    EXPECT_EQ(traced.hash(), traced2.hash());
    RunSpec closed = servingSpec();
    closed.serve.client_mode = serve::ClientMode::ClosedLoop;
    RunSpec closed2 = closed;
    closed2.serve.modulation.enabled = true;
    closed2.serve.modulation.diurnal_amplitude = 0.5;
    EXPECT_EQ(closed.hash(), closed2.hash());
}

TEST(RunSpecHash, RecordCapZeroAliasesTheDefault)
{
    // cap 0 keeps today's exact behavior: one cache entry no matter how
    // stream_window_s is set. A positive cap truncates retention and
    // must key the hash — and then the window width keys too.
    RunSpec base = servingSpec();
    RunSpec windowed = base;
    windowed.serve.stream_window_s = 5.0; // inert while cap is off
    EXPECT_EQ(base.hash(), windowed.hash());
    EXPECT_EQ(base.describe(), windowed.describe());

    RunSpec capped = base;
    capped.serve.record_cap = 1024;
    EXPECT_NE(base.hash(), capped.hash());
    RunSpec capped2 = capped;
    capped2.serve.record_cap = 2048;
    EXPECT_NE(capped.hash(), capped2.hash());
    RunSpec capped_window = capped;
    capped_window.serve.stream_window_s = 5.0;
    EXPECT_NE(capped.hash(), capped_window.hash());
}

TEST(RunSpecHash, DescribeTagsStreamingSpecs)
{
    RunSpec spec = servingSpec();
    spec.serve.record_cap = 4096;
    spec.serve.modulation.enabled = true;
    spec.serve.modulation.diurnal_amplitude = 0.6;
    spec.serve.modulation.burst_rate_multiplier = 4.0;
    const std::string label = spec.describe();
    EXPECT_NE(label.find("/cap4096"), std::string::npos) << label;
    EXPECT_NE(label.find("/diurnal0.6"), std::string::npos) << label;
    EXPECT_NE(label.find("/burst4"), std::string::npos) << label;
}

TEST(RunSpecHash, ArmedFaultsReviveTheSeedInEveryClientMode)
{
    // A serving run draws its fault schedule from faultSeed(serve.seed),
    // so with faults armed two seeds are two runs even where nothing else
    // reads the seed: closed-loop clients and trace-driven arrivals with
    // fixed lengths, round-robin dispatch and no prefix mix.
    RunSpec closed = servingSpec();
    closed.serve.client_mode = serve::ClientMode::ClosedLoop;
    closed.fault.enabled = true;
    closed.fault.node_mtbf = 60.0;
    RunSpec closed_seed = closed;
    closed_seed.serve.seed += 1;
    EXPECT_NE(closed.hash(), closed_seed.hash());

    RunSpec traced = servingSpec();
    traced.serve.trace = {0.0, 1.0, 2.0};
    traced.fault.enabled = true;
    traced.fault.degrade_mtbf = 30.0;
    RunSpec traced_seed = traced;
    traced_seed.serve.seed += 1;
    EXPECT_NE(traced.hash(), traced_seed.hash());

    // Enabled with no category armed draws no schedule: the seed stays
    // inert.
    RunSpec unarmed = closed;
    unarmed.fault.node_mtbf = fault::FaultConfig::kNever;
    RunSpec unarmed_seed = unarmed;
    unarmed_seed.serve.seed += 1;
    EXPECT_EQ(unarmed.hash(), unarmed_seed.hash());
}

/**
 * Walks every row of a RunSpec's config structs in hash order (serve,
 * system, fault), and reports or changes the row at one index. The block
 * path is the one validation messages name ("kv.prefix", "calib").
 */
struct RowProbe {
    enum class Act { Inspect, Perturb, Set };
    enum class Part { Serve, System, Fault };

    int target = -1;
    Act act = Act::Inspect;
    double set_to = 0.0;
    /** The walk being visited; serve rows count only on serving specs
     *  (the hash skips them). */
    Part walking = Part::Serve;
    bool serve_live = true;

    int rows = 0;
    std::string path;
    Part part = Part::Serve;
    bool matters = false;
    bool checked = false;
    bool has_range = false;
    bool integral = false;
    FieldRange range{};

    std::vector<std::string> blocks;

    template <typename T>
    void
    operator()(const FieldRow<T> &row)
    {
        if (rows++ != target)
            return;
        path.clear();
        for (const std::string &b : blocks)
            path += b + ".";
        path += row.name;
        part = walking;
        matters = row.matters && (walking != Part::Serve || serve_live);
        checked = row.checked;
        has_range = row.range != nullptr;
        if (has_range)
            range = *row.range;
        using V = std::remove_const_t<T>;
        integral = std::is_integral_v<V>;
        if constexpr (!std::is_const_v<T>) {
            if (act == Act::Perturb)
                perturb(row);
            else if (act == Act::Set) {
                if constexpr (std::is_arithmetic_v<V>)
                    row.value = static_cast<V>(set_to);
            }
        }
    }

    template <typename T>
    void
    perturb(const FieldRow<T> &row)
    {
        using V = std::remove_const_t<T>;
        V &v = row.value;
        if constexpr (std::is_same_v<V, bool>) {
            v = !v;
        } else if constexpr (std::is_enum_v<V>) {
            const auto next = static_cast<V>(static_cast<int>(v) + 1);
            v = std::string(row.label(next)) != "?" ? next : V{};
        } else if constexpr (std::is_same_v<V, std::vector<double>>) {
            v.push_back(v.empty() ? 0.0 : v.back() + 1.0);
        } else if constexpr (std::is_integral_v<V>) {
            v = row.range && static_cast<double>(v) + 1 > row.range->hi
                    ? v - 1
                    : v + 1;
        } else {
            // The first candidate that stays in range and changes v (1 for
            // an unarmed kNever MTBF, the midpoint for a 0 in [0, 1)).
            const double mid =
                row.range ? (row.range->lo + row.range->hi) / 2.0 : 1.0;
            for (const double c : {v * 2.0, v / 2.0, v + 1.0, 1.0, mid}) {
                if (c != v && std::isfinite(c) &&
                    (!row.range ||
                     (c >= row.range->lo && c <= row.range->hi))) {
                    v = c;
                    return;
                }
            }
            ADD_FAILURE() << "no in-range perturbation for " << row.name;
        }
    }

    void
    enter(const char *key, bool, const char *alias = nullptr)
    {
        blocks.push_back(alias ? alias : key);
    }
    void leave() { blocks.pop_back(); }
    void gate(bool, bool) {}
    template <typename T>
    void rule(bool, const char *, const T &)
    {}

    /** Walks @p spec with the scopes RunSpec::hash() uses. */
    void
    walk(RunSpec &spec)
    {
        const bool training = spec.workload == train::WorkloadKind::Training;
        serve_live = !training;
        walking = Part::Serve;
        serve::walkFields(
            *this, spec.serve,
            {.quantized_weights = spec.system.strategy ==
                                  train::Strategy::SmartUpdateOptComp,
             .fault_stream = spec.fault.enabled && spec.fault.anyFaults()});
        walking = Part::System;
        train::walkFields(*this, spec.system, training);
        walking = Part::Fault;
        enter("fault", true);
        fault::walkFields(*this, spec.fault, training);
        leave();
    }
};

RowProbe
probe(RunSpec spec, int row)
{
    RowProbe p;
    p.target = row;
    p.walk(spec);
    return p;
}

RunSpec
perturbed(RunSpec spec, int row)
{
    RowProbe p;
    p.target = row;
    p.act = RowProbe::Act::Perturb;
    p.walk(spec);
    return spec;
}

RunSpec
withValue(RunSpec spec, int row, double value)
{
    RowProbe p;
    p.target = row;
    p.act = RowProbe::Act::Set;
    p.set_to = value;
    p.walk(spec);
    return spec;
}

std::string
specJson(const RunSpec &spec)
{
    RunRecord record;
    record.spec = spec;
    record.result.kind = spec.workload;
    std::ostringstream oss;
    writeRecordJson(oss, record);
    return oss.str();
}

/** Errors of the validate() that owns a row's walk. */
std::vector<std::string>
ownerErrors(const RunSpec &spec, RowProbe::Part part)
{
    switch (part) {
      case RowProbe::Part::Serve: return spec.serve.validate();
      case RowProbe::Part::System: return spec.system.validate();
      case RowProbe::Part::Fault: return spec.fault.validate();
    }
    return {};
}

/** Specs that, between them, arm every row of every walk. */
std::vector<RunSpec>
armedSpecs()
{
    RunSpec training;
    training.model = train::ModelSpec::gpt2(0.5);
    training.system.strategy = train::Strategy::SmartUpdateOptComp;
    training.system.num_nodes = 2;
    training.fault.enabled = true;
    training.fault.node_mtbf = 300.0;
    training.fault.degrade_mtbf = 200.0;

    RunSpec open = servingSpec();
    open.serve.prompt_lengths.kind = serve::LengthDistKind::Lognormal;
    open.serve.output_lengths.kind = serve::LengthDistKind::Uniform;
    open.serve.output_lengths.max_tokens = 64;
    open.serve.kv.enabled = true;
    open.serve.kv.layout = serve::KvLayout::Paged;
    open.serve.kv.prefix.share_fraction = 0.5;
    open.serve.ctrl.enabled = true;
    open.serve.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    open.serve.ctrl.slo.admission = ctrl::AdmissionMode::Defer;
    open.serve.ctrl.slo.target_p99_s = 2.0;
    open.serve.ctrl.autoscale.enabled = true;
    open.serve.ctrl.autoscale.max_replicas = 3;
    open.serve.modulation.enabled = true;
    open.serve.modulation.diurnal_amplitude = 0.5;
    open.serve.modulation.burst_rate_multiplier = 3.0;
    open.serve.record_cap = 100;
    open.fault.enabled = true;
    open.fault.node_mtbf = 300.0;

    RunSpec closed = servingSpec();
    closed.serve.client_mode = serve::ClientMode::ClosedLoop;
    closed.serve.think_time = 0.5;

    RunSpec traced = servingSpec();
    traced.serve.trace = {0.0, 1.0, 2.0};
    traced.serve.output_lengths.kind = serve::LengthDistKind::Lognormal;

    for (const RunSpec *s : {&training, &open, &closed, &traced})
        EXPECT_TRUE(s->system.validate().empty() &&
                    s->serve.validate().empty() && s->fault.validate().empty())
            << s->describe();
    return {training, open, closed, traced};
}

TEST(RunSpecHash, EveryWalkedRowKeysExactlyWhereItMatters)
{
    const std::vector<RunSpec> armed = armedSpecs();
    const int rows = probe(armed[0], -1).rows;
    ASSERT_GT(rows, 80);

    for (int row = 0; row < rows; ++row) {
        // Where the row matters, perturbing it in range moves the hash
        // and, for the blocks the spec JSON writes, the JSON.
        bool mattered = false;
        for (const RunSpec &spec : armed) {
            const RowProbe p = probe(spec, row);
            ASSERT_EQ(p.rows, rows);
            if (!p.matters)
                continue;
            mattered = true;
            const RunSpec moved = perturbed(spec, row);
            EXPECT_NE(spec.hash(), moved.hash()) << p.path;
            if (p.part != RowProbe::Part::Fault) // no fault block in JSON
                EXPECT_NE(specJson(spec), specJson(moved)) << p.path;
        }
        EXPECT_TRUE(mattered) << probe(armed[0], row).path
                              << " matters in no armed spec";

        // Where it does not, the same perturbation is inert. trace and
        // record_cap gate themselves: perturbing them arms them.
        RunSpec serving;
        serving.workload = train::WorkloadKind::Serving;
        for (const RunSpec &spec : {RunSpec{}, serving}) {
            const RowProbe p = probe(spec, row);
            if (p.matters)
                continue;
            const RunSpec moved = perturbed(spec, row);
            if (probe(moved, row).matters) {
                EXPECT_TRUE(p.path == "trace" || p.path == "record_cap")
                    << p.path;
                continue;
            }
            EXPECT_EQ(spec.hash(), moved.hash()) << p.path;
        }
    }
}

TEST(RunSpecHash, EveryWalkedRangeRejectsBelowAboveAndNan)
{
    const std::vector<RunSpec> armed = armedSpecs();
    const int rows = probe(armed[0], -1).rows;
    const double inf = std::numeric_limits<double>::infinity();
    int ranged = 0;
    for (int row = 0; row < rows; ++row) {
        const RowProbe info = probe(armed[0], row);
        if (!info.has_range)
            continue;
        ++ranged;
        const RunSpec *owner = nullptr;
        for (const RunSpec &spec : armed) {
            if (probe(spec, row).checked) {
                owner = &spec;
                break;
            }
        }
        ASSERT_NE(owner, nullptr) << info.path << " is checked nowhere";
        const FieldRange r = info.range;
        std::vector<double> bad;
        if (info.integral) {
            bad.push_back(r.lo - 1);
            if (r.hi < inf)
                bad.push_back(r.hi + 1);
        } else {
            bad.push_back(std::nextafter(r.lo, -inf));
            if (r.hi < inf)
                bad.push_back(std::nextafter(r.hi, inf));
            bad.push_back(std::numeric_limits<double>::quiet_NaN());
        }
        for (const double value : bad) {
            const RunSpec broken = withValue(*owner, row, value);
            bool named = false;
            for (const std::string &e : ownerErrors(broken, info.part))
                named |= e.find(info.path + " must be") != std::string::npos;
            EXPECT_TRUE(named) << info.path << " = " << value;
        }
    }
    EXPECT_GT(ranged, 50);
}

} // namespace
} // namespace smartinf::exp
