/**
 * @file
 * The per-node inference phase builder: composes the shared phase
 * primitives (train/phase_builders.h) into batched forward passes with
 * layer-wise parameter streaming from the CSD/RAID substrate. Parameters
 * do not fit in GPU (or host) memory, so *every* pass re-streams the whole
 * model from storage — the serving analog of the paper's observation that
 * storage-offloaded training is dominated by shared-interconnect traffic.
 *
 * Strategy mapping (mirrors the training-side semantics):
 *  - BASE: dense FP16 weights striped over the software RAID0, streamed
 *    synchronously (fetch of layer l starts when layer l-1's compute
 *    finished — one staging buffer, no overlap).
 *  - SU: weights live whole-layer on their owner CSD (layer l on CSD
 *    l % D, the flattened distribution of §IV-D) with the same naive
 *    single-buffer handling: per-layer fetches are limited to one
 *    device's media rate and nothing overlaps.
 *  - SU+O: the optimized transfer handler multi-buffers the stream:
 *    several upcoming layers fetch in parallel from their (distinct)
 *    owner CSDs while the current layer computes, aggregating media
 *    bandwidth and hiding fetch latency behind compute.
 *  - SU+O+C: + weights stored quantized (serve.weight_wire_fraction of
 *    dense FP16) and dequantized on the GPU, shrinking every wire hop —
 *    decode steps are bandwidth-bound, so this is the serving analog of
 *    SmartComp.
 *
 * KV-cache model (opt-in via ServeConfig::kv): each step declares its KV
 * working set as a StepShape; resident KV beyond the HBM budget turns
 * into real flows — host-tier KV crosses the GPU link (contending with
 * the parameter stream on the same fluid-flow links), CSD-tier KV
 * additionally crosses the storage media and shared interconnect, striped
 * 1/D over all devices. With kv disabled, buildForwardPass creates
 * exactly the pre-KV task structure (bit-identical schedules).
 *
 * Determinism: the builder is called only from deterministic scheduler
 * event callbacks, and every byte/tier computation here is a pure
 * function of (StepShape, ServeConfig, SystemConfig, ModelSpec) — no
 * randomness, no iteration over unordered containers.
 */
#ifndef SMARTINF_SERVE_INFERENCE_BUILDER_H
#define SMARTINF_SERVE_INFERENCE_BUILDER_H

#include <string>
#include <vector>

#include "kv/kv_space.h"
#include "serve/serve_config.h"
#include "train/phase_builders.h"

namespace smartinf::serve {

/**
 * The aggregate shape of one scheduler step, in tokens. The scheduler
 * derives it from per-request state; the builder turns it into bytes,
 * splits it over the KV tiers, and issues the flows. Both KV layouts
 * declare their working set the same way, as token ranges whose
 * *positions* encode placement (HBM fills first, then host, then CSD):
 *  - contiguous: resident KV is one admission-order range from offset 0,
 *    so reads are [0, resident) (omitted when empty) and the write is
 *    [resident, resident + new);
 *  - paged: the KvSpace step plan, arena ranges whose page slots carry
 *    fragmentation and prefix sharing.
 * The KV ranges are empty whenever KV modeling is disabled.
 */
struct StepShape {
    /** Forward-pass tokens: full prompts of newly admitted requests
     *  (minus any shared-prefix hit) + one decode token per already-
     *  running request. */
    double compute_tokens = 0.0;
    /** Pre-append resident working set, in token ranges (merged: shared
     *  pages read once per step). Decode attention re-reads all of it. */
    std::vector<kv::KvTokenRange> kv_reads;
    /** This step's appended tokens, in token ranges. */
    std::vector<kv::KvTokenRange> kv_writes;
};

/** Builds one node's batched forward passes into a shared SimContext. */
class InferenceBuilder : public train::PhaseBuilder
{
  public:
    InferenceBuilder(const train::ModelSpec &model,
                     const train::SystemConfig &system,
                     const ServeConfig &serve, train::SimContext &ctx,
                     std::string prefix = {});

    /**
     * Build one scheduler step: a forward pass over every layer
     * processing shape.compute_tokens, with strategy-dependent parameter
     * streaming, plus (when ServeConfig::kv.enabled) the step's KV-cache
     * read/write flows on the spill tiers. Returns the pass's completion
     * task: the last layer's compute when no KV flows were issued
     * (bit-identical to the pre-KV builder), otherwise a barrier that
     * also gates on every KV flow.
     *
     * Dynamic-mode contract: when called after the graph started (the
     * normal case — the batch scheduler builds steps reactively), the
     * caller must releaseRange() the tasks created by this call.
     */
    TaskId buildForwardPass(const StepShape &shape, int step_index);

    /** Wire bytes one layer's stored parameters occupy. */
    Bytes paramWireBytesPerBlock() const;

    /** True when weights are stored quantized (SU+O+C). */
    bool weightsQuantized() const;

    /**
     * Layer-fetch lookahead: how many layers ahead of the current compute
     * the parameter stream may run (1 = no overlap; the optimized
     * handler's multi-buffering fetches from several owner CSDs at once).
     */
    int prefetchWindow() const;

    /**
     * KV bytes appended per processed token, derived from the model:
     * 2 (K+V) * num_layers * hidden_dim * sizeof(fp16).
     */
    Bytes kvBytesPerToken() const;

  private:
    /** A byte range's overlap with the three KV tiers (HBM fills first,
     *  then host, then CSD). */
    struct KvTierSplit {
        Bytes hbm = 0.0;  ///< free (on-package bandwidth not modeled)
        Bytes host = 0.0; ///< crosses the GPU link
        Bytes csd = 0.0;  ///< crosses storage media + shared interconnect
    };
    KvTierSplit splitKvRange(Bytes lo, Bytes hi) const;
    /** The summed tier split of token @p ranges. */
    KvTierSplit splitRanges(const std::vector<kv::KvTokenRange> &ranges) const;

    /** Issue the step's KV spill flows; appends their task ids (reads
     *  gate nothing, writes depend on @p after) to @p kv_tasks. */
    void buildKvFlows(const StepShape &shape, int step_index, TaskId after,
                      std::vector<TaskId> &kv_tasks);

    const ServeConfig &serve_;
};

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_INFERENCE_BUILDER_H
