#include "exp/run_spec.h"

#include <cstring>
#include <sstream>
#include <type_traits>
#include <vector>

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

    /** @name Field-walk visitor (common/field_walk.h): hashes the rows
     *  that matter, in walk order. @{ */
    template <typename T>
    void
    operator()(const FieldRow<T> &row)
    {
        if (!row.matters)
            return;
        using V = std::remove_const_t<T>;
        if constexpr (std::is_same_v<V, std::vector<double>>) {
            *this << static_cast<std::int64_t>(row.value.size());
            for (const double x : row.value)
                *this << x;
        } else if constexpr (std::is_same_v<V, std::uint64_t>) {
            *this << static_cast<std::int64_t>(row.value);
        } else {
            *this << row.value;
        }
    }
    void enter(const char *, bool, const char * = nullptr) {}
    void leave() {}
    void
    gate(bool matters, bool value)
    {
        if (matters)
            *this << value;
    }
    template <typename T>
    void rule(bool, const char *, const T &)
    {}
    /** @} */

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull; // FNV offset basis
};

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
    const bool training = workload == train::WorkloadKind::Training;
    if (training)
        hashAppend(hs, train);
    else
        serve::walkFields(
            hs, serve,
            {.quantized_weights =
                 system.strategy == train::Strategy::SmartUpdateOptComp,
             .fault_stream = fault.enabled && fault.anyFaults()});
    train::walkFields(hs, system, training);
    fault::walkFields(hs, fault, training);
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
