/**
 * @file
 * Declarative sweep construction. An ExperimentBuilder holds one value-list
 * per configuration axis (models, strategies, device counts, GPU grades,
 * node counts, optimizers, compression ratios, ...) and expands to the
 * cross-product of RunSpecs in a fixed deterministic order. Axes not
 * touched keep a single default value, so a builder with two axes set
 * yields exactly |axis1| x |axis2| specs. Every spec carries a *complete*
 * SystemConfig — the whole point of the redesign: no call site can silently
 * drop fields the way the old bench_util::runIteration default-constructed
 * num_nodes/congested_topology.
 */
#ifndef SMARTINF_EXP_EXPERIMENT_H
#define SMARTINF_EXP_EXPERIMENT_H

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "exp/run_spec.h"

namespace smartinf::exp {

/**
 * Fluent cross-product sweep builder.
 *
 * RunSpec::hash() is the one judge of which fields matter: build() hashes
 * every expanded spec and refuses an axis with two or more values when no
 * value changes any spec's hash (e.g. a serving axis on a training sweep,
 * concurrencies() on an open-loop stream, a fault axis while faults are
 * disabled) — such a sweep would hand back one aliased cached result per
 * row. A partly inert axis still expands: compressionFractions() over
 * BASE and SU+O+C gives one BASE spec per ratio, and those alias.
 * Config validation is not the builder's job; it happens when the
 * workload or engine is constructed.
 */
class ExperimentBuilder
{
  public:
    ExperimentBuilder();

    /**
     * Seed the non-axis fields (NIC specs, calibration, topology flags...)
     * for every generated spec. Axis setters called afterwards still
     * override their own field.
     */
    ExperimentBuilder &base(const train::SystemConfig &system);
    /**
     * Declare a serving sweep: every spec runs @p config's request stream
     * (workload = Serving; the default is Training). The serving axes below override their own
     * field of this base config.
     */
    ExperimentBuilder &serving(const serve::ServeConfig &config);

    /** @name Sweep axes (each replaces the axis' current value list). @{ */
    ExperimentBuilder &model(const train::ModelSpec &m);
    ExperimentBuilder &models(std::vector<train::ModelSpec> ms);
    ExperimentBuilder &strategy(train::Strategy s);
    ExperimentBuilder &strategies(std::vector<train::Strategy> ss);
    ExperimentBuilder &devices(int n);
    ExperimentBuilder &devices(std::vector<int> ns);
    ExperimentBuilder &gpu(train::GpuGrade g);
    ExperimentBuilder &gpus(std::vector<train::GpuGrade> gs);
    ExperimentBuilder &numGpus(std::vector<int> ns);
    ExperimentBuilder &nodes(int n);
    ExperimentBuilder &nodes(std::vector<int> ns);
    ExperimentBuilder &optimizers(std::vector<optim::OptimizerKind> ks);
    ExperimentBuilder &compressionFractions(std::vector<double> fs);
    ExperimentBuilder &overlapGradSync(std::vector<bool> vs);
    ExperimentBuilder &calibrations(std::vector<train::Calibration> cs);
    /** @name Serving axes (sweep fields of the serving() base config). @{ */
    ExperimentBuilder &schedulers(std::vector<serve::SchedulerPolicy> ps);
    ExperimentBuilder &arrivalRates(std::vector<double> rs);
    ExperimentBuilder &maxBatches(std::vector<int> bs);
    /** Sweep serve.output_tokens (sequence-length studies). */
    ExperimentBuilder &outputTokenCounts(std::vector<int> ts);
    /** Sweep serve.kv.hbm_budget (bytes). */
    ExperimentBuilder &hbmBudgets(std::vector<double> bs);
    /** Sweep serve.concurrency (closed-loop client population). */
    ExperimentBuilder &concurrencies(std::vector<int> cs);
    /** Sweep serve.kv.block_tokens (paged-KV page size). */
    ExperimentBuilder &blockTokens(std::vector<int> ts);
    /** Sweep serve.kv.prefix.share_fraction (shared-prompt mix). */
    ExperimentBuilder &prefixShareFractions(std::vector<double> fs);
    /** Sweep serve.ctrl.policy (request dispatch policy). */
    ExperimentBuilder &
    dispatchPolicies(std::vector<ctrl::DispatchPolicy> ps);
    /** Sweep serve.ctrl.slo.admission (SLO admission mode). */
    ExperimentBuilder &admissionModes(std::vector<ctrl::AdmissionMode> ms);
    /** @} */
    /** @name Fault axes (sweep fields of the faults() base config). @{ */
    /**
     * Seed the fault/recovery model for every generated spec (the
     * non-axis fields of RunSpec::fault). The fault axes below override
     * their own field.
     */
    ExperimentBuilder &faults(const fault::FaultConfig &config);
    /** Sweep fault.checkpoint_interval. */
    ExperimentBuilder &checkpointIntervals(std::vector<int> ks);
    /** Sweep fault.retry_limit. */
    ExperimentBuilder &retryPolicies(std::vector<int> limits);
    /** @} */
    /** @} */

    /** Single-value override of base().congested_topology; like the axes,
     *  it survives a later base() call. */
    ExperimentBuilder &congested(bool on);

    /** Number of specs build() will produce (product of axis sizes;
     *  0 while no model has been set, since build() would refuse). */
    std::size_t size() const;

    /**
     * Expand the cross product. Deterministic nesting order (outermost to
     * innermost): models, strategies, devices, gpus, numGpus,
     * optimizers, compressionFractions, nodes, overlapGradSync,
     * calibrations, schedulers, arrivalRates, maxBatches,
     * outputTokenCounts, hbmBudgets, concurrencies, blockTokens,
     * prefixShareFractions, dispatchPolicies, admissionModes,
     * checkpointIntervals, retryPolicies. Labels default to
     * RunSpec::describe().
     */
    std::vector<RunSpec> build() const;

  private:
    /** Axis slots, in the nesting order documented on build(). */
    enum Slot : std::size_t {
        kModels, kStrategies, kDevices, kGpus, kNumGpus,
        kOptimizers, kCompressionFractions, kNodes, kOverlapGradSync,
        kCalibrations, kSchedulers, kArrivalRates, kMaxBatches,
        kOutputTokenCounts, kHbmBudgets, kConcurrencies, kBlockTokens,
        kPrefixShareFractions, kDispatchPolicies, kAdmissionModes,
        kCheckpointIntervals, kRetryPolicies, kSlots
    };
    /** One sweep axis. size 0 means untouched: the spec keeps its base
     *  value and the axis counts as one value. */
    struct Axis {
        const char *name = nullptr;
        std::size_t size = 0;
        /** Write value @p i of the axis into @p spec. */
        std::function<void(RunSpec &spec, std::size_t i)> apply;
    };

    /** Store @p values in @p slot; @p field maps a spec to the field the
     *  axis writes. */
    template <typename T, typename Field>
    ExperimentBuilder &sweep(Slot slot, const char *name,
                             std::vector<T> values, Field field);

    train::SystemConfig base_;
    train::WorkloadKind workload_ = train::WorkloadKind::Training;
    serve::ServeConfig serve_base_;
    fault::FaultConfig fault_base_;
    std::optional<bool> congested_;
    std::array<Axis, kSlots> axes_;
};

} // namespace smartinf::exp

#endif // SMARTINF_EXP_EXPERIMENT_H
