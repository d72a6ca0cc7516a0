#include "exp/run_spec.h"

#include <cstring>
#include <sstream>

#include "serve/metrics.h"

namespace smartinf::exp {

namespace {

/**
 * FNV-1a over a canonical byte stream. Doubles are hashed by bit pattern
 * (the engines are bit-deterministic, so bit-equal inputs give bit-equal
 * results); enums and bools widen to int64 so the stream layout does not
 * depend on the compiler's underlying enum type.
 */
class HashStream
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    HashStream &
    operator<<(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        bytes(&bits, sizeof(bits));
        return *this;
    }

    HashStream &
    operator<<(std::int64_t v)
    {
        bytes(&v, sizeof(v));
        return *this;
    }

    HashStream &
    operator<<(const std::string &s)
    {
        *this << static_cast<std::int64_t>(s.size());
        bytes(s.data(), s.size());
        return *this;
    }

    template <typename E>
        requires std::is_enum_v<E>
    HashStream &
    operator<<(E v)
    {
        return *this << static_cast<std::int64_t>(v);
    }

    HashStream &
    operator<<(bool v)
    {
        return *this << static_cast<std::int64_t>(v);
    }

    HashStream &
    operator<<(int v)
    {
        return *this << static_cast<std::int64_t>(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull; // FNV offset basis
};

void
hashAppend(HashStream &hs, const train::Calibration &c)
{
    for (const train::CalibrationField &field : train::calibrationFields())
        hs << c.*field.member;
}

void
hashAppend(HashStream &hs, const train::ModelSpec &m)
{
    hs << m.name << m.family << m.num_params << m.num_layers << m.hidden_dim;
}

void
hashAppend(HashStream &hs, const train::TrainConfig &t)
{
    hs << t.batch_size << t.seq_len;
}

void
hashAppend(HashStream &hs, const serve::LengthDistribution &d,
           int fixed_tokens)
{
    hs << d.kind;
    // Semantic normalization: only the parameters the kind consumes are
    // hashed — a Fixed config at two log_sigmas is one cache entry, and
    // a Uniform config ignores the lognormal shape entirely.
    switch (d.kind) {
      case serve::LengthDistKind::Fixed:
        hs << fixed_tokens;
        break;
      case serve::LengthDistKind::Uniform:
        hs << d.min_tokens << d.max_tokens;
        break;
      case serve::LengthDistKind::Lognormal:
        hs << d.min_tokens << d.max_tokens << d.log_mean << d.log_sigma;
        break;
    }
}

void
hashAppend(HashStream &hs, const serve::ServeConfig &c,
           train::Strategy strategy)
{
    hs << c.scheduler << c.max_batch;
    hashAppend(hs, c.prompt_lengths, c.prompt_tokens);
    hashAppend(hs, c.output_lengths, c.output_tokens);
    // Semantic normalization, mirroring compression_wire_fraction: the
    // stored-weight quantization ratio only shapes SU+O+C runs.
    if (strategy == train::Strategy::SmartUpdateOptComp)
        hs << c.weight_wire_fraction;
    // KV model: when disabled every knob is inert and stays out. Within
    // the model the same normalization recurses: the contiguous layout
    // ignores the paged allocator's shape (block size, prefix mix), and a
    // paged run without prefix sharing ignores the prefix-pool shape.
    hs << c.kv.enabled;
    if (c.kv.enabled) {
        hs << c.kv.hbm_budget << c.kv.host_budget << c.kv.layout;
        if (c.kv.layout == serve::KvLayout::Paged) {
            hs << c.kv.block_tokens << c.kv.prefix.share_fraction;
            if (c.kv.prefix.enabled())
                hs << c.kv.prefix.num_prefixes << c.kv.prefix.prefix_tokens;
        }
    }
    // Control plane: when disabled every knob is inert and stays out.
    // Within the plane the same normalization recurses: SLO knobs only
    // under an armed admission mode (defer shape only under Defer), and
    // autoscale knobs only when autoscaling.
    hs << c.ctrl.enabled;
    if (c.ctrl.enabled) {
        hs << c.ctrl.policy;
        hs << c.ctrl.slo.admission;
        if (c.ctrl.slo.enabled())
            hs << c.ctrl.slo.target_p99_s;
        if (c.ctrl.slo.admission == ctrl::AdmissionMode::Defer)
            hs << c.ctrl.slo.defer_delay_s << c.ctrl.slo.max_defers;
        hs << c.ctrl.autoscale.enabled;
        if (c.ctrl.autoscale.enabled)
            hs << c.ctrl.autoscale.min_replicas
               << c.ctrl.autoscale.max_replicas << c.ctrl.autoscale.window_s
               << c.ctrl.autoscale.cooldown_s
               << c.ctrl.autoscale.scale_up_depth
               << c.ctrl.autoscale.scale_down_depth;
    }
    // Client model. The seed feeds four independent streams: arrivals
    // (open-loop, non-trace only), sampled lengths (any mode with a
    // non-Fixed distribution), prefix assignment (paged KV with a
    // shared-prefix mix), and the control plane's dispatch draws
    // (a policy that draws randomness) — it is hashed iff at least one
    // consumes it.
    const bool seed_shapes_requests =
        c.samplesLengths() || c.sharesPrefixes() || c.ctrl.drawsRandomness();
    hs << c.client_mode;
    if (c.client_mode == serve::ClientMode::ClosedLoop) {
        // Arrivals are reactive: arrival_rate and the trace are ignored
        // by generation and stay out of the hash.
        hs << c.num_requests << c.concurrency << c.think_time;
        if (seed_shapes_requests)
            hs << static_cast<std::int64_t>(c.seed);
    } else if (c.trace.empty()) {
        hs << c.num_requests << c.arrival_rate
           << static_cast<std::int64_t>(c.seed);
        // Arrival modulation reshapes only open-loop generated arrivals
        // (validate() rejects it anywhere else), so it is hashed only
        // here. Within it the usual normalization recurses: diurnal
        // shape only when the sinusoid is armed, burst shape only when
        // the multiplier exceeds 1.
        hs << c.modulation.enabled;
        if (c.modulation.enabled) {
            hs << c.modulation.diurnal_amplitude;
            if (c.modulation.diurnal())
                hs << c.modulation.diurnal_period_s;
            hs << c.modulation.burst_rate_multiplier;
            if (c.modulation.bursts())
                hs << c.modulation.burst_mean_gap_s
                   << c.modulation.burst_mean_duration_s;
        }
    } else {
        // A trace fully determines the arrivals; the open-loop knobs are
        // ignored by generation and stay out of the hash — but the seed
        // still shapes sampled lengths and prefix assignment.
        hs << static_cast<std::int64_t>(c.trace.size());
        for (const double arrival : c.trace)
            hs << arrival;
        if (seed_shapes_requests)
            hs << static_cast<std::int64_t>(c.seed);
    }
    // Record retention: cap off (0) is byte-identical to the uncapped
    // run — one cache entry no matter how stream_window_s is set; a
    // positive cap truncates the record vector and switches summaries to
    // the streaming aggregates, whose windowed series stream_window_s
    // shapes.
    hs << (c.record_cap > 0);
    if (c.record_cap > 0)
        hs << c.record_cap << c.stream_window_s;
}

void
hashAppend(HashStream &hs, const fault::FaultConfig &f,
           train::WorkloadKind workload)
{
    hs << f.enabled;
    // Semantic normalization: a disabled fault model is one cache entry
    // no matter how its knobs are set — nothing else is hashed.
    if (!f.enabled)
        return;
    const bool training = workload == train::WorkloadKind::Training;
    hs << f.horizon;
    // The fault stream seed: training runs draw from FaultConfig::seed;
    // serving runs derive it from ServeConfig::seed (already hashed), so
    // f.seed is inert there. With no category armed no schedule is drawn
    // and the seed is inert for both kinds.
    if (training && f.anyFaults())
        hs << static_cast<std::int64_t>(f.seed);
    // Each category's episode parameters only while that category's MTBF
    // is finite (an unarmed category draws no events and its shape knobs
    // cannot affect the result).
    hs << f.nodeFaults();
    if (f.nodeFaults())
        hs << f.node_mtbf << f.repair_time;
    hs << f.degradeFaults();
    if (f.degradeFaults())
        hs << f.degrade_mtbf << f.degrade_factor << f.degrade_duration;
    if (training) {
        // Checkpoint knobs shape only the checkpointed training workload;
        // the job length is part of the workload shape as well.
        hs << f.num_iterations << f.checkpoint_interval;
    } else if (f.nodeFaults()) {
        // The retry limit shapes only serving recovery, and only node
        // crashes displace requests — with no crash process armed the
        // whole failover path is unreachable.
        hs << f.retry_limit;
    }
}

void
hashAppend(HashStream &hs, const train::SystemConfig &s,
           train::WorkloadKind workload)
{
    const bool training = workload == train::WorkloadKind::Training;
    hs << s.strategy << s.num_devices << s.gpu << s.num_gpus
       << s.congested_topology;
    // Semantic normalization: fields that cannot affect the result in the
    // current regime stay out of the hash, so e.g. the BASE reference at
    // two compression ratios is one cache entry, not two. Serving skips
    // the training-only knobs: the optimizer, the gradient compression
    // ratio (serving keys on serve.weight_wire_fraction instead), and the
    // gradient-sync NIC/overlap shape (replicas exchange no traffic).
    if (training) {
        hs << s.optimizer;
        if (s.strategy == train::Strategy::SmartUpdateOptComp)
            hs << s.compression_wire_fraction;
    }
    hs << s.num_nodes;
    if (training && s.num_nodes > 1)
        hs << s.nic_bandwidth << s.nic_latency << s.overlap_grad_sync;
    hashAppend(hs, s.calib);
}

} // namespace

std::uint64_t
RunSpec::hash() const
{
    HashStream hs;
    hashAppend(hs, model);
    hs << workload;
    // Semantic normalization across workload kinds: only the config the
    // workload actually consumes is hashed, so e.g. a serving spec at two
    // training batch sizes is one cache entry.
    if (workload == train::WorkloadKind::Training)
        hashAppend(hs, train);
    else
        hashAppend(hs, serve, system.strategy);
    hashAppend(hs, system, workload);
    hashAppend(hs, fault, workload);
    return hs.value();
}

std::string
hashHex(std::uint64_t hash)
{
    std::ostringstream oss;
    oss << std::hex;
    oss.width(16);
    oss.fill('0');
    oss << hash;
    return oss.str();
}

std::string
RunSpec::hashHex() const
{
    return exp::hashHex(hash());
}

std::string
RunSpec::describe() const
{
    if (!label.empty())
        return label;
    std::ostringstream oss;
    oss << model.name << "/" << train::strategyName(system.strategy) << "/d"
        << system.num_devices;
    if (system.num_nodes > 1)
        oss << "/n" << system.num_nodes;
    if (system.gpu != train::GpuGrade::A5000 || system.num_gpus > 1)
        oss << "/" << system.num_gpus << "x" << train::gpuName(system.gpu);
    if (system.optimizer != optim::OptimizerKind::Adam)
        oss << "/" << optim::optimizerName(system.optimizer);
    if (system.strategy == train::Strategy::SmartUpdateOptComp)
        oss << "/c" << system.compression_wire_fraction;
    if (system.congested_topology)
        oss << "/congested";
    if (system.calib.fpga_dram_usable !=
        train::Calibration::defaults().fpga_dram_usable)
        oss << "/dram" << system.calib.fpga_dram_usable;
    if (workload == train::WorkloadKind::Serving) {
        oss << "/serve-" << serve::schedulerPolicyName(serve.scheduler)
            << "/b" << serve.max_batch << "/q" << serve.streamSize();
        if (serve.client_mode == serve::ClientMode::ClosedLoop)
            oss << "/cl" << serve.concurrency;
        else if (serve.trace.empty()) {
            oss << "/r" << serve.arrival_rate;
            // Modulation tags mirror the hash normalization: only armed
            // components appear.
            if (serve.modulation.diurnal())
                oss << "/diurnal" << serve.modulation.diurnal_amplitude;
            if (serve.modulation.bursts())
                oss << "/burst" << serve.modulation.burst_rate_multiplier;
        } else
            oss << "/trace";
        if (serve.record_cap > 0)
            oss << "/cap" << serve.record_cap;
        if (serve.prompt_lengths.kind != serve::LengthDistKind::Fixed)
            oss << "/p-"
                << serve::lengthDistKindName(serve.prompt_lengths.kind);
        else if (serve.prompt_tokens !=
                 serve::ServeConfig{}.prompt_tokens)
            oss << "/p" << serve.prompt_tokens;
        if (serve.output_lengths.kind != serve::LengthDistKind::Fixed)
            oss << "/o-"
                << serve::lengthDistKindName(serve.output_lengths.kind);
        else if (serve.output_tokens !=
                 serve::ServeConfig{}.output_tokens)
            oss << "/o" << serve.output_tokens;
        if (serve.kv.enabled) {
            oss << "/kv" << serve.kv.hbm_budget / GiB(1.0) << "g";
            if (serve.kv.paged()) {
                oss << "/paged" << serve.kv.block_tokens;
                if (serve.kv.prefix.enabled())
                    oss << "/px" << serve.kv.prefix.share_fraction;
            }
        }
        // Control-plane tags mirror the hash normalization: only armed
        // features appear.
        if (serve.ctrl.enabled) {
            oss << "/ctrl-"
                << ctrl::dispatchPolicyName(serve.ctrl.policy);
            if (serve.ctrl.slo.enabled())
                oss << "/slo-"
                    << ctrl::admissionModeName(serve.ctrl.slo.admission)
                    << serve.ctrl.slo.target_p99_s;
            if (serve.ctrl.autoscale.enabled)
                oss << "/as" << serve.ctrl.autoscale.min_replicas << "-"
                    << serve.ctrl.autoscale.max_replicas;
        }
    }
    // Fault tags mirror the hash normalization: only knobs that can shape
    // this spec's result appear, so two specs with the same tag string
    // genuinely alias.
    if (fault.enabled) {
        if (fault.nodeFaults())
            oss << "/mtbf" << fault.node_mtbf;
        if (fault.degradeFaults())
            oss << "/deg" << fault.degrade_mtbf;
        if (workload == train::WorkloadKind::Training)
            oss << "/i" << fault.num_iterations << "/ckpt"
                << fault.checkpoint_interval;
        else if (fault.nodeFaults())
            oss << "/retry" << fault.retry_limit;
    }
    return oss.str();
}

double
RunRecord::tokensPerSecond() const
{
    if (result.iteration_time <= 0.0)
        return 0.0;
    if (result.kind == train::WorkloadKind::Serving)
        return serve::summarize(result).output_tokens_per_sec;
    return spec.train.tokensPerIteration() * spec.system.num_nodes /
           result.iteration_time;
}

} // namespace smartinf::exp
