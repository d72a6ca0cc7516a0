#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>

#include "bench.h"
#include "common/random.h"
#include "compress/topk.h"
#include "core/smart_infinity.h"
#include "obs/profiler.h"
#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "train/engine.h"
#include "train/training_workload.h"

namespace perfbench {

using namespace smartinf;

namespace {

bool
relativelyEqual(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

void
appendSummary(std::vector<double> &out, const serve::LatencySummary &s)
{
    out.insert(out.end(), {s.p50, s.p95, s.p99, s.mean, s.max});
}

/**
 * Everything a simulation repetition produced that the model determines:
 * event count, simulated times, traffic, and (serving) the summarized
 * request metrics and KV/control-plane statistics. Repetitions of one
 * input must agree on it bit for bit.
 */
std::vector<double>
fingerprint(const train::WorkloadResult &r, const serve::ServingMetrics &m)
{
    const train::TrafficLedger &t = r.traffic;
    std::vector<double> out = {
        static_cast<double>(r.events_executed), r.iteration_time,
        r.phases.forward, r.phases.backward, r.phases.update,
        t.shared_opt_read, t.shared_opt_write, t.shared_grad_read,
        t.shared_grad_write, t.shared_param_up, t.internal_read,
        t.internal_write, t.internode_tx, t.internode_rx, t.kv_spill_read,
        t.kv_spill_write, r.queue_depth_time_integral,
        static_cast<double>(r.peak_queue_depth),
        static_cast<double>(r.kv.prefix_hits),
        static_cast<double>(r.kv.prefix_misses),
        static_cast<double>(r.kv.prefix_evictions),
        static_cast<double>(r.kv.cow_copies),
        static_cast<double>(r.kv.peak_used_blocks),
        static_cast<double>(r.kv.peak_span_blocks), r.kv.peak_fragmentation,
        r.kv.peak_block_table_bytes, static_cast<double>(r.ctrl.rejected),
        static_cast<double>(r.ctrl.deferrals),
        static_cast<double>(r.ctrl.peak_active_replicas),
        static_cast<double>(m.num_requests), static_cast<double>(m.num_served),
        static_cast<double>(m.num_shed), static_cast<double>(m.num_rejected),
        m.goodput, m.output_tokens_per_sec, m.mean_queue_depth,
        m.load_imbalance};
    appendSummary(out, m.latency);
    appendSummary(out, m.ttft);
    appendSummary(out, m.queue_delay);
    return out;
}

/**
 * A workload that runs one simulation per repetition through the public
 * Engine::run entry point, on a fresh engine and workload (a
 * train::Workload is single-use). The timed region is Engine::run, plus
 * serve::summarize for serving.
 */
class SimWorkload final : public Workload
{
  public:
    /** Training when @p serve is empty, serving otherwise. */
    SimWorkload(train::ModelSpec model, train::SystemConfig system,
                std::optional<serve::ServeConfig> serve)
        : model_(std::move(model)), system_(std::move(system)),
          serve_(std::move(serve))
    {
    }

    /**
     * Construction takes about a hundred nanoseconds, so one sample is the
     * mean of kSetupBatch constructions. They rotate over kSetupSlots live
     * systems: one reused heap address can make a whole process fast or
     * slow, while many addresses average that out. The last one built is
     * the one rep() runs.
     */
    double
    setUp() override
    {
        constexpr int kSetupBatch = 1000;
        constexpr int kSetupSlots = 64;
        std::vector<System> slots(kSetupSlots);
        double total = 0.0;
        for (int i = 0; i < kSetupBatch; ++i) {
            System &slot = slots[i % kSetupSlots];
            slot = {};
            total += construct(slot);
        }
        next_ = std::move(slots[(kSetupBatch - 1) % kSetupSlots]);
        setup_s_ = total / kSetupBatch;
        return setup_s_;
    }

    double rep(Spans &spans, Checks &checks, Readings *traced) override;

  private:
    /** A constructed engine and the single-use workload it will run. */
    struct System {
        std::unique_ptr<train::Engine> engine;
        std::unique_ptr<train::Workload> workload;
    };

    /** Construct into @p out; returns the host seconds it took. */
    double
    construct(System &out) const
    {
        const auto start = Clock::now();
        out.engine = train::makeEngine(model_, {}, system_);
        if (serve_)
            out.workload =
                std::make_unique<serve::InferenceWorkload>(model_, *serve_);
        else
            out.workload = std::make_unique<train::TrainingWorkload>(
                model_, train::TrainConfig{});
        return secondsSince(start);
    }

    void check(const train::WorkloadResult &result,
               const serve::ServingMetrics &metrics, Checks &checks);
    void read(const train::WorkloadResult &result,
              const serve::ServingMetrics &metrics, Readings &r) const;

    train::ModelSpec model_;
    train::SystemConfig system_;
    std::optional<serve::ServeConfig> serve_;
    System next_;          ///< built by setUp(), consumed by rep()
    double setup_s_ = 0.0; ///< setUp()'s last sample
    /** Fingerprint of the first repetition; later ones must match it. */
    std::vector<double> reference_;
};

double
SimWorkload::rep(Spans &spans, Checks &checks, Readings *traced)
{
    const System system = std::move(next_);
    auto &prof = obs::Profiler::instance();
    if (traced) {
        prof.enable(true);
        prof.reset();
    }
    Span run(spans, "run");
    const train::WorkloadResult result =
        system.engine->run(*system.workload);
    const double run_s = run.stop();
    prof.enable(false);

    serve::ServingMetrics metrics;
    double summarize_s = 0.0;
    if (serve_) {
        Span span(spans, "summarize");
        metrics = serve::summarize(result);
        summarize_s = span.stop();
    }
    {
        Span span(spans, "check");
        check(result, metrics, checks);
    }
    if (traced) {
        Readings &r = *traced;
        r["train.setup_s"] = setup_s_;
        r["train.run_s"] = run_s;
        r["serve.summarize_s"] = summarize_s;
        read(result, metrics, r);
    }
    return run_s + summarize_s;
}

void
SimWorkload::check(const train::WorkloadResult &result,
                   const serve::ServingMetrics &metrics, Checks &checks)
{
    checks.expect(result.events_executed > 0 && result.iteration_time > 0.0,
                  "the simulation executed no events");
    const std::vector<double> print = fingerprint(result, metrics);
    if (reference_.empty()) {
        reference_ = print;
    } else {
        checks.expect(std::memcmp(print.data(), reference_.data(),
                                  print.size() * sizeof(double)) == 0,
                      "repetition differs from the first one");
    }
    if (serve_) {
        checks.expect(metrics.num_served + metrics.num_shed +
                              metrics.num_rejected ==
                          serve_->num_requests,
                      "served + shed + rejected != requests offered");
        return;
    }
    checks.expect(relativelyEqual(result.phases.total(),
                                  result.iteration_time),
                  "training phases do not sum to the iteration time");
    checks.expect(relativelyEqual(result.traffic.internode_tx,
                                  result.traffic.internode_rx),
                  "inter-node bytes sent != bytes received");
}

void
SimWorkload::read(const train::WorkloadResult &result,
                  const serve::ServingMetrics &m, Readings &r) const
{
    using obs::Section;
    const auto &prof = obs::Profiler::instance();
    const train::TrafficLedger &t = result.traffic;
    r["sim.events"] = static_cast<double>(result.events_executed);
    r["sim.dispatch_s"] = prof.seconds(Section::EventDispatch);
    r["sim.task_complete_s"] = prof.seconds(Section::TaskComplete);
    r["sim.task_launches"] = static_cast<double>(prof.taskLaunches());
    const auto recomputes = prof.calls(Section::FlowRecompute);
    r["net.recompute_s"] = prof.seconds(Section::FlowRecompute);
    r["net.recompute_calls"] = static_cast<double>(recomputes);
    r["net.flows_per_recompute"] =
        recomputes == 0 ? 0.0
                        : static_cast<double>(prof.flowsTouched()) /
                              static_cast<double>(recomputes);
    r["net.flow_callbacks_s"] = prof.seconds(Section::FlowCallbacks);
    r["net.shared_bytes"] = t.sharedTotal();
    r["net.csd_internal_bytes"] = t.internal_read + t.internal_write;
    r["dist.internode_bytes"] = t.internodeTotal();

    if (!serve_) {
        r["train.fw_s"] = result.phases.forward;
        r["train.bw_s"] = result.phases.backward;
        r["train.update_s"] = result.phases.update;
        r["sim_iter_s"] = result.iteration_time;
        return;
    }

    const double offered = serve_->num_requests;
    r["serve.steps"] =
        static_cast<double>(prof.calls(Section::SchedulerStep));
    r["serve.step_build_s"] = prof.seconds(Section::SchedulerStep);
    r["serve.queue_delay_p50_s"] = m.queue_delay.p50;
    r["serve.queue_delay_p99_s"] = m.queue_delay.p99;
    r["serve.mean_queue_depth"] = m.mean_queue_depth;
    r["serve.output_tokens_per_s"] = m.output_tokens_per_sec;
    r["serve.kv_spill_read_bytes"] = t.kv_spill_read;
    r["serve.kv_spill_write_bytes"] = t.kv_spill_write;
    r["ctrl.reject_frac"] = m.num_rejected / offered;
    r["ctrl.load_imbalance"] = m.load_imbalance;
    r["sim_ttft_p50_s"] = m.ttft.p50;
    r["sim_ttft_p99_s"] = m.ttft.p99;
    r["sim_latency_p50_s"] = m.latency.p50;
    r["sim_latency_p99_s"] = m.latency.p99;
    r["sim_goodput_rps"] = m.goodput;

    if (serve_->kv.paged()) {
        const train::KvCacheStats &kv = result.kv;
        r["kv.prefix_hit_rate"] = kv.hitRate();
        r["kv.prefix_evictions"] = static_cast<double>(kv.prefix_evictions);
        r["kv.cow_copies"] = static_cast<double>(kv.cow_copies);
        r["kv.peak_fragmentation"] = kv.peak_fragmentation;
        r["kv.peak_used_blocks"] = kv.peak_used_blocks;
    }
    // Attainment needs every record, so it is read only where the
    // workload keeps them all (record_cap 0). Rejected and shed requests
    // count as misses.
    const Seconds slo = serve_->ctrl.slo.target_p99_s;
    if (slo > 0.0 && serve_->record_cap == 0) {
        const auto met = std::count_if(
            result.requests.begin(), result.requests.end(),
            [slo](const train::RequestRecord &rec) {
                return rec.successful() && rec.latency() <= slo;
            });
        r["sim_slo_attain_frac"] = static_cast<double>(met) / offered;
    }
}

/** The paper's scale-out training point: one SU+O+C iteration of GPT-2
 *  4.0B on 32 nodes x 8 CSDs with ring all-reduce. Training draws no
 *  randomness, so the seed is unused. */
std::unique_ptr<Workload>
trainScaleout(std::uint64_t)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 8;
    system.num_nodes = 32;
    return std::make_unique<SimWorkload>(train::ModelSpec::gpt2(4.0), system,
                                         std::nullopt);
}

/** Long open-loop Poisson stream on one replica (the streaming,
 *  record-capped serving path). */
std::unique_ptr<Workload>
serveStream(std::uint64_t seed)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;

    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.num_requests = 20000;
    config.arrival_rate = 8.0;
    config.seed = seed;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.max_batch = 8;
    config.record_cap = 4096;
    config.stream_window_s = 60.0;
    return std::make_unique<SimWorkload>(train::ModelSpec::gpt2(0.5), system,
                                         config);
}

/** Four replicas under the control plane with paged, prefix-shared KV
 *  that spills to host memory and the CSDs. */
std::unique_ptr<Workload>
serveClusterPrefix(std::uint64_t seed)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 6;
    system.num_nodes = 4;

    serve::ServeConfig config;
    config.scheduler = serve::SchedulerPolicy::Continuous;
    config.num_requests = 1000;
    config.arrival_rate = 1.0;
    config.seed = seed;
    config.prompt_tokens = 256;
    config.output_lengths.kind = serve::LengthDistKind::Lognormal;
    config.output_lengths.log_mean = 3.5;
    config.output_lengths.log_sigma = 0.7;
    config.output_lengths.min_tokens = 8;
    config.output_lengths.max_tokens = 128;
    config.max_batch = 8;
    config.kv.enabled = true;
    config.kv.hbm_budget = GiB(0.25);
    config.kv.host_budget = GiB(0.5);
    config.kv.layout = serve::KvLayout::Paged;
    config.kv.block_tokens = 16;
    config.kv.prefix.share_fraction = 0.5;
    config.kv.prefix.num_prefixes = 4;
    config.kv.prefix.prefix_tokens = 200;
    config.ctrl.enabled = true;
    config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    config.ctrl.slo.admission = ctrl::AdmissionMode::Reject;
    config.ctrl.slo.target_p99_s = 60.0;
    return std::make_unique<SimWorkload>(train::ModelSpec::gpt2(4.0), system,
                                         config);
}

/** One CSD's element range of the flat parameter vector. */
struct Shard {
    std::size_t offset = 0;
    std::size_t len = 0;
};

/** Host seconds of Top-K compressing every shard of @p grads the way
 *  SmartInfinityCluster::step does; with @p dense, also decompress there. */
double
compressShards(const std::vector<Shard> &shards, double keep_fraction,
               const float *grads, Spans &spans, float *dense)
{
    double seconds = 0.0;
    for (const Shard &shard : shards) {
        compress::TopKCompressor topk(keep_fraction);
        Span span(spans, "topk");
        const compress::SparseGradient sparse =
            topk.compress(grads + shard.offset, shard.len);
        seconds += span.stop();
        if (dense)
            compress::TopKCompressor::decompress(sparse, dense + shard.offset,
                                                 shard.len);
    }
    return seconds;
}

/**
 * Real SU+O+C optimizer steps on real bytes through SmartInfinityCluster:
 * SmartComp Top-K, the FPGA decompressor and Adam updater, and the
 * two-thread transfer handler. Every repetition runs on a freshly
 * initialized cluster and times kStepsPerRep steps, so every repetition
 * does the same work and must end with the same master parameters: those
 * of a host-backend Adam fed the same per-shard Top-K gradients, computed
 * once with the inputs.
 */
class FunctionalUpdate final : public Workload
{
  public:
    static constexpr std::size_t kParams = std::size_t{1} << 22;
    static constexpr int kStepsPerRep = 10;

    explicit FunctionalUpdate(std::uint64_t seed) : params_(kParams)
    {
        config_.num_csds = 4;
        config_.optimizer = optim::OptimizerKind::Adam;
        config_.compression = true;
        config_.keep_fraction = 0.01;

        Rng rng(seed);
        for (float &p : params_)
            p = static_cast<float>(rng.normal(0.0, 0.02));
        for (auto &grads : grads_) {
            grads.resize(kParams);
            for (float &g : grads)
                g = static_cast<float>(rng.normal(0.0, 1e-3));
        }
        computeReference();
    }

    /** A freshly initialized cluster; the sample is the constructor and
     *  initialize() calls. */
    double
    setUp() override
    {
        cluster_.reset();
        const auto start = Clock::now();
        cluster_ = std::make_unique<SmartInfinityCluster>(config_);
        cluster_->initialize(params_.data(), kParams);
        return secondsSince(start);
    }

    double rep(Spans &spans, Checks &checks, Readings *traced) override;

  private:
    const float *grads(std::uint64_t step) const
    {
        return grads_[step % 2].data();
    }
    void computeReference();

    ClusterConfig config_;
    std::vector<float> params_;
    /** Two seeded gradient sets, used on alternate steps. */
    std::vector<float> grads_[2];
    std::vector<Shard> shards_;
    /** Master parameters after kStepsPerRep reference steps. */
    std::vector<float> expected_;
    std::size_t expected_wire_bytes_ = 0;
    std::unique_ptr<SmartInfinityCluster> cluster_;
};

void
FunctionalUpdate::computeReference()
{
    setUp();
    for (int d = 0; d < cluster_->numCsds(); ++d)
        shards_.push_back({cluster_->shardOffset(d), cluster_->shardLength(d)});
    cluster_.reset();

    Spans untraced("reference"); // never activated: records nothing
    std::vector<float> dense(kParams);
    nn::HostBackend host(config_.optimizer, config_.hyperparams);
    host.initialize(params_.data(), kParams);
    for (std::uint64_t t = 1; t <= kStepsPerRep; ++t) {
        compressShards(shards_, config_.keep_fraction, grads(t), untraced,
                       dense.data());
        host.step(dense.data(), kParams, t);
    }
    expected_.assign(host.masterParams(), host.masterParams() + kParams);
    const compress::TopKCompressor topk(config_.keep_fraction);
    for (const Shard &shard : shards_)
        expected_wire_bytes_ += topk.keepCount(shard.len) *
                                (sizeof(std::uint32_t) + sizeof(float));
}

double
FunctionalUpdate::rep(Spans &spans, Checks &checks, Readings *traced)
{
    std::vector<double> step_s, topk_s;
    for (std::uint64_t t = 1; t <= kStepsPerRep; ++t) {
        Span span(spans, "step");
        cluster_->step(grads(t), kParams, t);
        step_s.push_back(span.stop());
        if (traced)
            topk_s.push_back(compressShards(shards_, config_.keep_fraction,
                                            grads(t), spans, nullptr));
    }

    Span check(spans, "check");
    const float *got = cluster_->masterParams();
    const auto mismatches = std::inner_product(
        got, got + kParams, expected_.begin(), std::size_t{0}, std::plus<>(),
        [](float a, float b) {
            return std::memcmp(&a, &b, sizeof(float)) != 0 ? 1 : 0;
        });
    checks.expect(mismatches == 0,
                  std::to_string(mismatches) +
                      " master params differ from the host-backend "
                      "reference");
    checks.expect(cluster_->lastGradWireBytes() ==
                      static_cast<double>(expected_wire_bytes_),
                  "gradient wire bytes != kept elements x 8 B");
    check.stop();

    if (traced) {
        Readings &r = *traced;
        r["core.step_s"] = median(step_s);
        r["compress.topk_s"] = median(topk_s);
        r["csd.handler_s"] = r["core.step_s"] - r["compress.topk_s"];
        r["compress.wire_bytes_per_step"] = cluster_->lastGradWireBytes();
        std::size_t peak = 0;
        for (int d = 0; d < cluster_->numCsds(); ++d)
            peak = std::max(peak,
                            cluster_->csd(d).fpgaMemory().peakAllocated());
        r["csd.peak_fpga_mem_bytes"] = static_cast<double>(peak);
    }
    return std::accumulate(step_s.begin(), step_s.end(), 0.0);
}

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t seed);

const std::vector<std::pair<std::string, Factory>> &
registry()
{
    static const std::vector<std::pair<std::string, Factory>> table = {
        {"train_scaleout_n32", trainScaleout},
        {"serve_stream_20k", serveStream},
        {"serve_cluster_prefix", serveClusterPrefix},
        {"functional_update",
         [](std::uint64_t seed) -> std::unique_ptr<Workload> {
             return std::make_unique<FunctionalUpdate>(seed);
         }},
    };
    return table;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &[name, make] : registry())
        names.push_back(name);
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    for (const auto &[known, make] : registry())
        if (known == name)
            return make(seed);
    return nullptr;
}

} // namespace perfbench
