/**
 * @file
 * The unit of the experiment layer: one fully-specified engine run. A
 * RunSpec bundles everything train::makeEngine consumes (model, training
 * workload, system configuration) plus a display label, and hashes
 * deterministically over every field that can affect the simulated result —
 * the key the SweepRunner's result cache and the record emitters use.
 */
#ifndef SMARTINF_EXP_RUN_SPEC_H
#define SMARTINF_EXP_RUN_SPEC_H

#include <cstdint>
#include <string>

#include "fault/fault_config.h"
#include "serve/serve_config.h"
#include "train/engine.h"

namespace smartinf::exp {

/** A spec hash as fixed-width (16-digit) hex — the one format every
 *  emitter uses, so JSON and CSV consumers can join on it. */
std::string hashHex(std::uint64_t hash);

/** One fully-specified experiment point. */
struct RunSpec {
    /** Display label; not part of the hash (it cannot affect the result). */
    std::string label;
    /** What runs on the engine: a training iteration or a served request
     *  stream. Selects which of train/serve below is consumed. */
    train::WorkloadKind workload = train::WorkloadKind::Training;
    train::ModelSpec model;
    /** Per-iteration workload shape (training specs only). */
    train::TrainConfig train;
    /** Request stream + scheduling policy (serving specs only). */
    serve::ServeConfig serve;
    train::SystemConfig system;
    /**
     * Fault-injection + recovery model (both workload kinds; disabled by
     * default). This is the *canonical* fault config of the experiment
     * layer: the sweep runner injects it into the serving workload's
     * ServeConfig at dispatch (any serve.fault value set directly on the
     * spec is overwritten) and hands it to the checkpointed training
     * workload for training specs, so one axis drives both kinds and the
     * hash normalizes in exactly one place.
     */
    fault::FaultConfig fault;

    /**
     * Deterministic FNV-1a hash over every result-affecting field,
     * including the full Calibration block. Stable within one build of the
     * library (not across field additions — by design: new knobs must
     * invalidate cached results).
     */
    std::uint64_t hash() const;

    /** hash() rendered as fixed-width hex (JSON output, log lines). */
    std::string hashHex() const;

    /** Default label: "<model>/<strategy>/d<devices>[...]". */
    std::string describe() const;
};

/** One executed experiment point: the spec plus the simulated result. */
struct RunRecord {
    RunSpec spec;
    std::uint64_t spec_hash = 0;
    std::string engine_name;
    train::IterationResult result;

    /**
     * Cluster token throughput. Training: consumed tokens/iteration
     * (data parallelism multiplies the batch) over the iteration time.
     * Serving: output tokens generated over the workload makespan
     * (serve::summarize's output_tokens_per_sec, whole stream even when
     * record_cap truncates the records).
     */
    double tokensPerSecond() const;
};

} // namespace smartinf::exp

#endif // SMARTINF_EXP_RUN_SPEC_H
