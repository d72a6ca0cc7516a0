#include "exp/experiment.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace smartinf::exp {

ExperimentBuilder::ExperimentBuilder() = default;

template <typename T, typename Field>
ExperimentBuilder &
ExperimentBuilder::sweep(Slot slot, const char *name, std::vector<T> values,
                         Field field)
{
    const std::size_t n = values.size();
    axes_[slot] = {name, n,
                   [values = std::move(values), field](RunSpec &spec,
                                                       std::size_t i) {
                       field(spec) = values[i];
                   }};
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::base(const train::SystemConfig &system)
{
    base_ = system;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::serving(const serve::ServeConfig &config)
{
    workload_ = train::WorkloadKind::Serving;
    serve_base_ = config;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::model(const train::ModelSpec &m)
{
    return models({m});
}

ExperimentBuilder &
ExperimentBuilder::models(std::vector<train::ModelSpec> ms)
{
    return sweep(kModels, "models", std::move(ms),
                 [](RunSpec &s) -> auto & { return s.model; });
}

ExperimentBuilder &
ExperimentBuilder::strategy(train::Strategy s)
{
    return strategies({s});
}

ExperimentBuilder &
ExperimentBuilder::strategies(std::vector<train::Strategy> ss)
{
    return sweep(kStrategies, "strategies", std::move(ss),
                 [](RunSpec &s) -> auto & { return s.system.strategy; });
}

ExperimentBuilder &
ExperimentBuilder::devices(int n)
{
    return devices(std::vector<int>{n});
}

ExperimentBuilder &
ExperimentBuilder::devices(std::vector<int> ns)
{
    return sweep(kDevices, "devices", std::move(ns),
                 [](RunSpec &s) -> auto & { return s.system.num_devices; });
}

ExperimentBuilder &
ExperimentBuilder::gpu(train::GpuGrade g)
{
    return gpus({g});
}

ExperimentBuilder &
ExperimentBuilder::gpus(std::vector<train::GpuGrade> gs)
{
    return sweep(kGpus, "gpus", std::move(gs),
                 [](RunSpec &s) -> auto & { return s.system.gpu; });
}

ExperimentBuilder &
ExperimentBuilder::numGpus(std::vector<int> ns)
{
    return sweep(kNumGpus, "numGpus", std::move(ns),
                 [](RunSpec &s) -> auto & { return s.system.num_gpus; });
}

ExperimentBuilder &
ExperimentBuilder::nodes(int n)
{
    return nodes(std::vector<int>{n});
}

ExperimentBuilder &
ExperimentBuilder::nodes(std::vector<int> ns)
{
    return sweep(kNodes, "nodes", std::move(ns),
                 [](RunSpec &s) -> auto & { return s.system.num_nodes; });
}

ExperimentBuilder &
ExperimentBuilder::optimizers(std::vector<optim::OptimizerKind> ks)
{
    return sweep(kOptimizers, "optimizers", std::move(ks),
                 [](RunSpec &s) -> auto & { return s.system.optimizer; });
}

ExperimentBuilder &
ExperimentBuilder::compressionFractions(std::vector<double> fs)
{
    return sweep(kCompressionFractions, "compressionFractions", std::move(fs),
                 [](RunSpec &s) -> auto & {
                     return s.system.compression_wire_fraction;
                 });
}

ExperimentBuilder &
ExperimentBuilder::overlapGradSync(std::vector<bool> vs)
{
    return sweep(kOverlapGradSync, "overlapGradSync", std::move(vs),
                 [](RunSpec &s) -> auto & {
                     return s.system.overlap_grad_sync;
                 });
}

ExperimentBuilder &
ExperimentBuilder::calibrations(std::vector<train::Calibration> cs)
{
    return sweep(kCalibrations, "calibrations", std::move(cs),
                 [](RunSpec &s) -> auto & { return s.system.calib; });
}

ExperimentBuilder &
ExperimentBuilder::schedulers(std::vector<serve::SchedulerPolicy> ps)
{
    return sweep(kSchedulers, "schedulers", std::move(ps),
                 [](RunSpec &s) -> auto & { return s.serve.scheduler; });
}

ExperimentBuilder &
ExperimentBuilder::arrivalRates(std::vector<double> rs)
{
    return sweep(kArrivalRates, "arrivalRates", std::move(rs),
                 [](RunSpec &s) -> auto & { return s.serve.arrival_rate; });
}

ExperimentBuilder &
ExperimentBuilder::maxBatches(std::vector<int> bs)
{
    return sweep(kMaxBatches, "maxBatches", std::move(bs),
                 [](RunSpec &s) -> auto & { return s.serve.max_batch; });
}

ExperimentBuilder &
ExperimentBuilder::outputTokenCounts(std::vector<int> ts)
{
    return sweep(kOutputTokenCounts, "outputTokenCounts", std::move(ts),
                 [](RunSpec &s) -> auto & { return s.serve.output_tokens; });
}

ExperimentBuilder &
ExperimentBuilder::hbmBudgets(std::vector<double> bs)
{
    return sweep(kHbmBudgets, "hbmBudgets", std::move(bs),
                 [](RunSpec &s) -> auto & { return s.serve.kv.hbm_budget; });
}

ExperimentBuilder &
ExperimentBuilder::concurrencies(std::vector<int> cs)
{
    return sweep(kConcurrencies, "concurrencies", std::move(cs),
                 [](RunSpec &s) -> auto & { return s.serve.concurrency; });
}

ExperimentBuilder &
ExperimentBuilder::blockTokens(std::vector<int> ts)
{
    return sweep(kBlockTokens, "blockTokens", std::move(ts),
                 [](RunSpec &s) -> auto & { return s.serve.kv.block_tokens; });
}

ExperimentBuilder &
ExperimentBuilder::prefixShareFractions(std::vector<double> fs)
{
    return sweep(kPrefixShareFractions, "prefixShareFractions", std::move(fs),
                 [](RunSpec &s) -> auto & {
                     return s.serve.kv.prefix.share_fraction;
                 });
}

ExperimentBuilder &
ExperimentBuilder::dispatchPolicies(std::vector<ctrl::DispatchPolicy> ps)
{
    return sweep(kDispatchPolicies, "dispatchPolicies", std::move(ps),
                 [](RunSpec &s) -> auto & { return s.serve.ctrl.policy; });
}

ExperimentBuilder &
ExperimentBuilder::admissionModes(std::vector<ctrl::AdmissionMode> ms)
{
    return sweep(kAdmissionModes, "admissionModes", std::move(ms),
                 [](RunSpec &s) -> auto & {
                     return s.serve.ctrl.slo.admission;
                 });
}

ExperimentBuilder &
ExperimentBuilder::faults(const fault::FaultConfig &config)
{
    fault_base_ = config;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::checkpointIntervals(std::vector<int> ks)
{
    return sweep(kCheckpointIntervals, "checkpointIntervals", std::move(ks),
                 [](RunSpec &s) -> auto & {
                     return s.fault.checkpoint_interval;
                 });
}

ExperimentBuilder &
ExperimentBuilder::retryPolicies(std::vector<int> limits)
{
    return sweep(kRetryPolicies, "retryPolicies", std::move(limits),
                 [](RunSpec &s) -> auto & { return s.fault.retry_limit; });
}

ExperimentBuilder &
ExperimentBuilder::congested(bool on)
{
    congested_ = on;
    return *this;
}

std::size_t
ExperimentBuilder::size() const
{
    if (axes_[kModels].size == 0)
        return 0; // build() refuses a model-less builder
    std::size_t total = 1;
    for (const Axis &axis : axes_)
        total *= std::max<std::size_t>(axis.size, 1);
    return total;
}

std::vector<RunSpec>
ExperimentBuilder::build() const
{
    SI_REQUIRE(axes_[kModels].size > 0,
               "ExperimentBuilder needs at least one model");
    const std::size_t total = size();
    std::vector<RunSpec> specs;
    std::vector<std::uint64_t> hashes;
    specs.reserve(total);
    hashes.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        RunSpec spec;
        spec.workload = workload_;
        spec.serve = serve_base_;
        spec.system = base_;
        if (congested_.has_value())
            spec.system.congested_topology = *congested_;
        spec.fault = fault_base_;
        // Odometer expansion, last slot fastest: the nesting order
        // documented in the header.
        std::size_t rest = i;
        for (std::size_t a = kSlots; a-- > 0;) {
            if (axes_[a].size == 0)
                continue;
            axes_[a].apply(spec, rest % axes_[a].size);
            rest /= axes_[a].size;
        }
        hashes.push_back(spec.hash());
        spec.label = spec.describe();
        specs.push_back(std::move(spec));
    }
    // An axis matters iff some value changes some spec's hash relative to
    // its sibling at value 0 on that axis. A wholly inert axis would hand
    // back one aliased cached result per row — refuse it.
    std::size_t stride = 1;
    for (std::size_t a = kSlots; a-- > 0;) {
        const std::size_t n = std::max<std::size_t>(axes_[a].size, 1);
        bool matters = n < 2;
        for (std::size_t i = 0; i < total && !matters; ++i)
            matters = hashes[i] != hashes[i - i / stride % n * stride];
        SI_REQUIRE(matters, axes_[a].name,
                   "() axis is inert: no value changes RunSpec::hash(), "
                   "so every row would alias one result. Enable what "
                   "consumes the field on the base config (serving(), "
                   "client mode, kv, ctrl or faults()) or drop the axis");
        stride *= n;
    }
    return specs;
}

} // namespace smartinf::exp
