/**
 * @file
 * Configuration of the deterministic fault-injection + recovery model. One
 * FaultConfig drives both workload kinds: the training side consumes the
 * checkpoint/restart knobs (periodic checkpoint flows, crash → rewind to the
 * last durable checkpoint and replay), the serving side the failover knob
 * (drain on replica failure, retry on survivors with a fixed linear
 * backoff, shed once retry_limit re-dispatches are spent). Disabled by
 * default — and inert by contract when disabled: no schedule is drawn, no
 * sim event is armed, no revocation domain is opened, and every pinned
 * scenario's output stays bit-identical to the fault-free build.
 *
 * Determinism contract: all fault randomness is drawn *pre-sim* from a
 * fourth derived PRNG stream (fault_schedule.h faultSeed()), the same
 * pattern as the arrival/length/prefix streams — enabling faults never
 * perturbs what requests arrive or how long they are, only what happens to
 * the cluster while they are served.
 */
#ifndef SMARTINF_FAULT_FAULT_CONFIG_H
#define SMARTINF_FAULT_FAULT_CONFIG_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/field_walk.h"
#include "common/units.h"

namespace smartinf::fault {

/**
 * Knobs of the fault process and of both recovery models. Every field here
 * affects simulated results when enabled; walkFields() below says when.
 */
struct FaultConfig {
    /** An MTBF of kNever (the default) disables that fault category. */
    static constexpr Seconds kNever =
        std::numeric_limits<double>::infinity();

    /** Master switch. When false every other field is inert. */
    bool enabled = false;

    // -- fault process --------------------------------------------------------
    /** Fault events are drawn over [0, horizon) simulated seconds (finite:
     *  an armed category draws events until the horizon). */
    Seconds horizon = 600.0;
    /**
     * Base seed of the fault stream for *training* runs (which have no
     * client seed). Serving runs derive their fault stream from
     * ServeConfig::seed instead — faultSeed(serve.seed) — so sweeping the
     * client seed moves the fault pattern with it, exactly like the
     * arrival/length/prefix streams.
     */
    std::uint64_t seed = 0x5eedu;
    /** Mean time between whole-node crashes (exponential gaps). */
    Seconds node_mtbf = kNever;
    /** Mean time between NIC/link degradation episodes. */
    Seconds degrade_mtbf = kNever;
    /** Interconnect capacity multiplier during an episode, in (0, 1]. */
    double degrade_factor = 0.5;
    /** Length of one degradation episode. */
    Seconds degrade_duration = 30.0;

    // -- recovery: common -----------------------------------------------------
    /** A crashed node is restored this long after the fault. */
    Seconds repair_time = 30.0;

    // -- recovery: serving ----------------------------------------------------
    /** Re-dispatch attempts per displaced request before it is shed (the
     *  one shed rule; attempt k waits k * 0.5 s before re-dispatch). */
    int retry_limit = 3;

    // -- recovery: training ---------------------------------------------------
    /** Iterations the checkpointed training workload runs to completion. */
    int num_iterations = 8;
    /** Iterations between durable checkpoints (checkpoint 0 is implicit:
     *  the initial state is always durable). */
    int checkpoint_interval = 2;

    /** @name Category switches (finite MTBF = armed). @{ */
    bool nodeFaults() const { return node_mtbf < kNever; }
    bool degradeFaults() const { return degrade_mtbf < kNever; }
    bool anyFaults() const { return nodeFaults() || degradeFaults(); }
    /** @} */

    /** Actionable error list; empty means usable. Skipped when disabled
     *  (every field is then inert). */
    std::vector<std::string> validate() const;
};

/**
 * The FaultConfig walk (common/field_walk.h), in RunSpec hash order.
 * Nothing matters while disabled; each category's episode parameters only
 * while its MTBF is finite (an unarmed category draws no events);
 * checkpoint knobs and the job length only under @p training; the retry
 * limit only under serving with a crash process armed (only crashes
 * displace requests). FaultConfig::seed feeds training runs only: serving
 * draws its fault stream from ServeConfig::seed, whose row in the serve
 * walk covers it. Validation checks the MTBFs, the job shape and the retry
 * limit whenever the model is enabled.
 */
template <typename V, FieldsOf<FaultConfig> C>
void
walkFields(V &v, C &f, bool training)
{
    const bool on = f.enabled;
    const bool node = on && f.nodeFaults();
    const bool degrade = on && f.degradeFaults();
    field(v, "enabled", f.enabled, true);
    field(v, "horizon", f.horizon, on,
          {kTiny, kFiniteMax,
           "finite and positive (the window fault events are drawn over)"});
    field(v, "seed", f.seed, on && training && f.anyFaults());
    v.gate(on, f.nodeFaults());
    field(v, "node_mtbf", f.node_mtbf, node,
          {kTiny, kUnbounded,
           "positive (use FaultConfig::kNever to disable node crashes)"},
          on);
    field(v, "repair_time", f.repair_time, node,
          {kTiny, kFiniteMax,
           "finite and positive (how long a crashed node stays down)"});
    v.gate(on, f.degradeFaults());
    field(v, "degrade_mtbf", f.degrade_mtbf, degrade,
          {kTiny, kUnbounded,
           "positive (use FaultConfig::kNever to disable link degradation)"},
          on);
    field(v, "degrade_factor", f.degrade_factor, degrade,
          {kTiny, 1.0,
           "in (0, 1] (a zero capacity would starve the max-min "
           "scheduler)"});
    field(v, "degrade_duration", f.degrade_duration, degrade,
          {kTiny, kUnbounded, "positive"});
    field(v, "num_iterations", f.num_iterations, on && training,
          {1, kUnbounded,
           ">= 1 (iterations the checkpointed training run completes)"},
          on);
    field(v, "checkpoint_interval", f.checkpoint_interval, on && training,
          {1, kUnbounded, ">= 1 (iterations between durable checkpoints)"},
          on);
    field(v, "retry_limit", f.retry_limit, node && !training,
          {0, kUnbounded, ">= 0 (0 = shed displaced requests immediately)"},
          on);
}

} // namespace smartinf::fault

#endif // SMARTINF_FAULT_FAULT_CONFIG_H
