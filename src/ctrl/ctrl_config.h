/**
 * @file
 * Configuration of the cluster control plane: the policy layer that sits
 * between the generated request stream and the per-replica batch schedulers
 * inside serve::InferenceWorkload. Three orthogonal features share one
 * master switch:
 *
 *  - dispatch policies  — which replica a request is routed to
 *                          (round-robin / join-shortest-queue /
 *                          power-of-two-choices),
 *  - SLO admission      — reject or defer requests whose predicted
 *                          completion misses a latency SLO,
 *  - replica autoscaling — grow/shrink the active replica set on the
 *                          windowed queue-depth signal, paying a real
 *                          warm-up (parameter prefill) cost per scale-up
 *                          and draining before every retire.
 *
 * Disabled by default — and inert by contract when disabled: no fifth
 * stream is drawn, no tick event is armed, requests shard exactly as
 * `id % replicas`, and every pinned scenario's output stays bit-identical
 * to the pre-control-plane build.
 *
 * Determinism contract: the control plane owns a fifth derived PRNG stream,
 * Rng(ctrlSeed(seed)) — the arrival/length/prefix/fault streams never move
 * when control-plane knobs change. Unlike those four, the fifth stream is
 * consumed *lazily inside deterministic event callbacks* (a dispatch
 * decision cannot be pre-drawn: it reads queue depths that exist only at
 * dispatch time). Event order is deterministic, so the draw sequence — and
 * every result — still is. RoundRobin draws nothing at all, which is why
 * it leaves the seed dead in the RunSpec hash (see drawsRandomness()).
 */
#ifndef SMARTINF_CTRL_CTRL_CONFIG_H
#define SMARTINF_CTRL_CTRL_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/field_walk.h"
#include "common/units.h"

namespace smartinf::ctrl {

/** Replica-selection policy applied to every dispatched request. */
enum class DispatchPolicy {
    RoundRobin,        ///< request id modulo active replicas (draw-free)
    JoinShortestQueue, ///< least queued+running; ties drawn from ctrl stream
    PowerOfTwoChoices, ///< probe two replicas from the ctrl stream, pick shorter
};

const char *dispatchPolicyName(DispatchPolicy policy);
std::vector<DispatchPolicy> allDispatchPolicies();

/** What SLO admission control does with a predicted-miss request. */
enum class AdmissionMode {
    Off,    ///< admit everything (admission disabled)
    Reject, ///< turn predicted misses away immediately
    Defer,  ///< re-try admission after defer_delay, up to max_defers, then reject
};

const char *admissionModeName(AdmissionMode mode);
std::vector<AdmissionMode> allAdmissionModes();

/**
 * Latency-SLO admission control. The predictor is intentionally simple and
 * observable-driven: service time is estimated from an EWMA of *observed*
 * scheduler step times, and a request joining a replica with L requests
 * ahead of it is predicted to finish at
 *
 *     now + (L + 1 + output_tokens) * step_estimate
 *
 * (L steps to drain the queue ahead, one prefill, one step per decoded
 * token — a deliberate upper-bound model: continuous batching overlaps
 * requests, so attained latency is usually better than predicted). Until
 * the first step completes there is no estimate and everything is admitted
 * (optimistic cold start).
 */
struct SloConfig {
    AdmissionMode admission = AdmissionMode::Off;
    /** The latency SLO: predicted completion beyond arrival + target is a
     *  miss. Must be positive when admission is armed. Also the threshold
     *  of the per-node SLO-attainment observer series. */
    Seconds target_p99_s = 0.0;
    /** Defer mode: how long a deferred request waits before re-trying
     *  admission (hashed only under Defer). */
    Seconds defer_delay_s = 0.5;
    /** Defer mode: defers allowed before the request is rejected. */
    int max_defers = 4;

    bool enabled() const { return admission != AdmissionMode::Off; }
};

/**
 * Queue-driven replica autoscaling. The fleet is built at its maximum size
 * (hardware exists for every replica); autoscaling governs which replicas
 * are *active*. Every autoscale window the controller compares the
 * windowed mean load per active replica against the thresholds:
 *
 *  - scale UP   when mean load/replica > scale_up_depth;
 *  - scale DOWN when mean load/replica < scale_down_depth.
 *
 * Scale-up is not free: the new replica streams its full parameter set
 * (one warm-up prefill through serve::InferenceBuilder) before it joins
 * the dispatch set. Scale-down drains first — the victim replica stops
 * receiving dispatches and retires only once its queue and running batch
 * are empty (the graceful mirror of the fault layer's crash drain).
 * Decisions are separated by at least `cooldown_s`.
 */
struct AutoscaleConfig {
    bool enabled = false;
    int min_replicas = 1; ///< initial and minimum active replicas
    int max_replicas = 1; ///< ceiling (clamped to the fleet size at build)
    Seconds window_s = 5.0;   ///< signal window = evaluation period
    Seconds cooldown_s = 10.0; ///< minimum time between scaling decisions
    double scale_up_depth = 4.0;   ///< mean queued+running per active replica
    double scale_down_depth = 1.0; ///< idle threshold for draining a replica
};

/**
 * The control-plane configuration carried by serve::ServeConfig. Every
 * field affects simulated results when the master switch is on;
 * walkFields() below says when.
 */
struct CtrlConfig {
    /** Master switch. Off ⇒ byte-inert: dispatch is `id % replicas`. */
    bool enabled = false;
    DispatchPolicy policy = DispatchPolicy::RoundRobin;
    SloConfig slo;
    AutoscaleConfig autoscale;

    /**
     * Does this configuration consume the fifth PRNG stream? JSQ/P2C draw
     * tie-breaks/probes; RoundRobin draws nothing. Gates seed revival in
     * the RunSpec hash exactly like samplesLengths()/sharesPrefixes().
     */
    bool drawsRandomness() const
    {
        return enabled && policy != DispatchPolicy::RoundRobin;
    }

    /** Actionable error list; empty means usable. */
    std::vector<std::string> validate() const;
};

/**
 * The CtrlConfig walk (common/field_walk.h), in RunSpec hash order.
 * Nothing matters while disabled; the SLO target only under an armed
 * admission mode, the defer shape only under Defer, and the autoscale
 * shape only while autoscaling. The feature switches are not inert when
 * the plane is off: arming one there is a contradiction, not a no-op.
 */
template <typename V, FieldsOf<CtrlConfig> C>
void
walkFields(V &v, C &c)
{
    const bool on = c.enabled;
    const bool slo = on && c.slo.enabled();
    const bool defer = on && c.slo.admission == AdmissionMode::Defer;
    const bool scale = on && c.autoscale.enabled;
    field(v, "enabled", c.enabled, true);
    field(v, "policy", c.policy, on, dispatchPolicyName);
    v.rule(on || !c.slo.enabled(),
           "slo.admission requires ctrl.enabled (admission control runs "
           "inside the control plane; enable it or reset the admission "
           "mode)",
           admissionModeName(c.slo.admission));
    v.rule(on || !c.autoscale.enabled,
           "autoscale.enabled requires ctrl.enabled", c.autoscale.enabled);
    v.enter("slo", on);
    field(v, "admission", c.slo.admission, on, admissionModeName);
    field(v, "target_p99_s", c.slo.target_p99_s, slo,
          {kTiny, kUnbounded,
           "positive when admission control is armed (it is the SLO being "
           "admitted against)"});
    field(v, "defer_delay_s", c.slo.defer_delay_s, defer,
          {kTiny, kFiniteMax,
           "finite and positive under Defer (a zero delay would re-try "
           "admission in the same instant it just failed)"});
    field(v, "max_defers", c.slo.max_defers, defer,
          {1, kUnbounded,
           ">= 1 under Defer (use AdmissionMode::Reject for zero defers)"});
    v.leave();
    v.enter("autoscale", on);
    field(v, "enabled", c.autoscale.enabled, on);
    field(v, "min_replicas", c.autoscale.min_replicas, scale,
          {1, kUnbounded,
           ">= 1 (the fleet cannot scale to zero replicas)"});
    field(v, "max_replicas", c.autoscale.max_replicas, scale);
    v.rule(!scale || c.autoscale.max_replicas >= c.autoscale.min_replicas,
           "max_replicas must be >= min_replicas",
           c.autoscale.max_replicas);
    field(v, "window_s", c.autoscale.window_s, scale,
          {kTiny, kUnbounded,
           "positive (it is both the signal window and the evaluation "
           "period)"});
    field(v, "cooldown_s", c.autoscale.cooldown_s, scale,
          {0.0, kUnbounded, ">= 0"});
    field(v, "scale_up_depth", c.autoscale.scale_up_depth, scale);
    v.rule(!scale ||
               c.autoscale.scale_up_depth > c.autoscale.scale_down_depth,
           "scale_up_depth must exceed scale_down_depth (a "
           "non-hysteretic band would oscillate every window)",
           c.autoscale.scale_up_depth);
    field(v, "scale_down_depth", c.autoscale.scale_down_depth, scale,
          {0.0, kUnbounded, ">= 0"});
    v.leave();
}

/**
 * The fifth derived PRNG stream (after arrivals, lengths, prefixes,
 * faults): every control-plane draw — the dispatch tie-breaks/probes —
 * comes from one Rng(ctrlSeed(seed)), so toggling control-plane knobs
 * never moves the other four streams.
 */
inline std::uint64_t
ctrlSeed(std::uint64_t seed)
{
    return seed ^ 0xb97f4a7c159e3779ull;
}

} // namespace smartinf::ctrl

#endif // SMARTINF_CTRL_CTRL_CONFIG_H
