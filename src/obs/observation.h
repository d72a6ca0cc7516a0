/**
 * @file
 * The observability umbrella that ties the passive recording pieces
 * (TraceSink, CounterSampler) to the simulation's observer hooks
 * (sim::SimObserver, net::FlowObserver) and to the serve layer's semantic
 * events. Strictly opt-in: nothing here runs unless the CLI installs an
 * Observation, and an installed Observation never feeds back into the
 * simulation (see the determinism contract in sim/observer.h and DESIGN.md
 * "Observability").
 *
 * Structure:
 *  - Observation is the process-wide session installed by `smartinf_bench
 *    --trace/--metrics`. It owns the merged trace document and counter
 *    series and hands out one RunObservation per engine run, labelled
 *    "r<k>: <engine> / <workload>" so runs of a sweep stay distinguishable.
 *  - RunObservation is the per-run recorder: Engine::run() creates it
 *    before build() and destroys it after the simulator drains. It
 *    registers itself as the run's SimObserver + FlowObserver, exposes the
 *    serve-facing hooks (scheduler steps, queue depth, KV occupancy) via
 *    SimContext::obs, and — for the run's duration — installs a
 *    thread-local log clock so inform()/warn() lines carry [t=...s]
 *    sim-time prefixes.
 *
 * Deliberately NOT a RunSpec axis: observation cannot change any simulated
 * result (pinned by tests), so it must never enter the result hash — a
 * traced run and an untraced run are the same experiment.
 */
#ifndef SMARTINF_OBS_OBSERVATION_H
#define SMARTINF_OBS_OBSERVATION_H

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/flow_network.h"
#include "obs/counter_sampler.h"
#include "obs/trace_sink.h"
#include "sim/observer.h"

namespace smartinf::obs {

/** What an Observation records; empty paths disable that output. */
struct ObservationOptions {
    std::string trace_path;   ///< Chrome-trace JSON out; "" = no timeline
    std::string metrics_path; ///< counter CSV out; "" = no time-series
    Seconds metrics_window = 1.0; ///< counter window width (sim seconds)
};

class Observation;

/**
 * Per-run recorder (one engine run = one Perfetto process group). Created
 * by Observation::beginRun(); records into its own private sink/sampler so
 * concurrent runs never contend; merged back under the session lock by
 * Observation::finishRun().
 */
class RunObservation final : public sim::SimObserver,
                             public net::FlowObserver
{
  public:
    RunObservation(std::string label, const ObservationOptions &opts,
                   sim::Simulator &sim, net::FlowNetwork &net);
    ~RunObservation() override;

    RunObservation(const RunObservation &) = delete;
    RunObservation &operator=(const RunObservation &) = delete;

    /** @name sim::SimObserver (task graph + resources). @{ */
    void taskStarted(std::size_t id, const sim::TaskLabel &label,
                     Seconds now) override;
    void taskFinished(std::size_t id, const sim::TaskLabel &label,
                      Seconds now) override;
    void taskAbandoned(std::size_t id, const sim::TaskLabel &label,
                       Seconds now) override;
    void jobStarted(const sim::Resource &resource, double work,
                    Seconds now) override;
    void jobFinished(const sim::Resource &resource, double work,
                     Seconds now) override;
    /** @} */

    /** @name net::FlowObserver (flow lifecycle + link rates). @{ */
    void flowStarted(net::FlowId id, const net::Route &route, Bytes bytes,
                     Seconds now) override;
    void flowRateChanged(net::FlowId id, BytesPerSec rate,
                         Seconds now) override;
    void linkRateChanged(const net::Link &link, BytesPerSec aggregate,
                         Seconds now) override;
    void flowFinished(net::FlowId id, Seconds now) override;
    void flowCancelled(net::FlowId id, Seconds now) override;
    /** @} */

    /**
     * @name Fault/recovery hooks (called through SimContext::obs).
     * One counter track ("faults") accumulates injections; each injection
     * and each recovery action lands as a trace instant on the fault track.
     * @{
     */
    void faultInjected(const std::string &kind, int node, Seconds now);
    void recoveryAction(const std::string &action, int node, Seconds now);
    /** @} */

    /**
     * @name Serve-layer hooks (called through SimContext::obs).
     * Scalar-only signatures keep obs/ below serve/ in the layering.
     * @{
     */
    void schedulerStepBegun(int node, int step, int batch_size,
                            int prefills, Seconds now);
    void schedulerStepFinished(int node, Seconds now);
    void queueDepth(int node, int depth, Seconds now);
    void runningBatch(int node, int size, Seconds now);
    void requestRetired(int node, int request_id, Seconds arrival,
                        Seconds finish, Seconds now);
    /** KV bytes resident per tier after a step's working set is laid out;
     *  @p scope is "" (single-node contiguous) or "n<k>", naming the
     *  series "kv[ scope].<tier>_bytes". */
    void kvOccupancy(const std::string &scope, Bytes hbm, Bytes host,
                     Bytes csd, Seconds now);
    /** Paged KV allocator gauges (per scheduler step, paged layout only):
     *  live/free page slots per tier, span/used fragmentation ratio, the
     *  block-table metadata footprint, and the prefix-cache hit rate. */
    void kvAllocator(const std::string &scope, int used_hbm, int free_hbm,
                     int used_host, int free_host, int used_csd,
                     double fragmentation, Bytes block_table_bytes,
                     double prefix_hit_rate, Seconds now);
    /** @} */

    /**
     * @name Control-plane hooks (called through SimContext::obs).
     * One counter track ("ctrl") accumulates replica-set state; each
     * control decision (reject / defer / scale-up / scale-down /
     * warmup-done / retire-replica) lands as a trace instant on the ctrl
     * track and as a `ctrl.<kind>` metric sample.
     * @{
     */
    void ctrlDecision(const std::string &kind, int node, Seconds now);
    /** Replica-set composition after a control-plane transition or tick. */
    void ctrlReplicas(int active, int warming, int draining, Seconds now);
    /** Per-retirement SLO verdict; the windowed mean of the 0/1 samples in
     *  the metrics CSV (`slo_attained.n<k>`) is the per-replica windowed
     *  attainment rate. */
    void sloAttainment(int node, bool attained, Seconds now);
    /** @} */

    const std::string &label() const { return label_; }
    const TraceSink &trace() const { return trace_; }
    const CounterSampler &counters() const { return counters_; }

  private:
    /** Last emitted state of one throttled timeline series. */
    struct Throttle {
        std::string args;     ///< rendered args of the last emission
        Seconds t = 0.0;      ///< time of the last emission
        bool emitted = false; ///< false until the first sample

        /** Records and admits @p rendered at @p now iff it is the first
         *  sample, or it changed and a sampling quantum passed since the
         *  last emission. */
        bool admit(const std::string &rendered, Seconds now);
    };

    /** Intern a per-resource / per-scheduler duration track. */
    uint32_t track(const std::string &name);
    /**
     * Emit a trace counter iff its rendered args changed AND at least one
     * sampling quantum (kTraceSampleDt in observation.cc) passed since the
     * series' last emission — sampled-counter semantics: fast 0<->busy
     * toggling (a media link fetching one layer per step) aliases to
     * ~1/dt points, and the displayed value can lag the true one by up to
     * one quantum. The metrics sampler still sees every exact sample; this
     * throttle only bounds *timeline* volume.
     */
    void traceCounter(const std::string &name, Seconds t,
                      std::string args_json);
    void metric(const std::string &name, Seconds t, double value);

    std::string label_;
    sim::Simulator &sim_;
    net::FlowNetwork &net_;

    TraceSink trace_;
    CounterSampler counters_;
    uint32_t pid_ = 0;

    int faults_seen_ = 0; ///< running count behind the "faults" counter

    std::unordered_map<std::string, uint32_t> track_by_name_;
    std::unordered_map<net::FlowId, std::string> flow_names_;
    std::unordered_map<net::FlowId, Throttle> flow_rate_throttle_;
    std::unordered_map<std::string, Throttle> counter_throttle_;

    std::function<Seconds()> prev_log_clock_;
};

/**
 * Process-wide observability session (see file comment). Install one with
 * install(); Engine::run() picks it up via current(). Thread-safe across
 * concurrent engine runs: per-run state is private to each
 * RunObservation, and begin/finish merge under a mutex.
 */
class Observation
{
  public:
    explicit Observation(ObservationOptions options);
    ~Observation();

    Observation(const Observation &) = delete;
    Observation &operator=(const Observation &) = delete;

    /** The installed session, or nullptr (the common case). */
    static Observation *current();
    /** Make this the process-wide session (pass nullptr via uninstall). */
    void install();
    void uninstall();

    const ObservationOptions &options() const { return options_; }

    /** Start recording one engine run; @p label is "<engine> / <workload>"
     *  (the session prepends a unique "r<k>: " run tag). */
    std::unique_ptr<RunObservation> beginRun(const std::string &label,
                                             sim::Simulator &sim,
                                             net::FlowNetwork &net);
    /** Merge a finished run's recordings into the session document. */
    void finishRun(std::unique_ptr<RunObservation> run);

    /** Number of runs recorded so far. */
    int runsRecorded() const { return runs_finished_; }

    /** Write the configured outputs (trace JSON and/or metrics CSV).
     *  @return false if any configured file could not be opened. */
    bool writeOutputs() const;

    /** @name Direct access for tests. @{ */
    const TraceSink &trace() const { return trace_; }
    const CounterSampler &counters() const { return counters_; }
    /** @} */

  private:
    ObservationOptions options_;
    mutable std::mutex mutex_;
    int runs_started_ = 0;
    int runs_finished_ = 0;
    TraceSink trace_;
    CounterSampler counters_;
};

} // namespace smartinf::obs

#endif // SMARTINF_OBS_OBSERVATION_H
