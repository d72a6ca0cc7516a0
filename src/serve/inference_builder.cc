#include "serve/inference_builder.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/observation.h"
#include "train/sim_context.h"

namespace smartinf::serve {

using train::Strategy;
using TaskId = InferenceBuilder::TaskId;

InferenceBuilder::InferenceBuilder(const train::ModelSpec &model,
                                   const train::SystemConfig &system,
                                   const ServeConfig &serve,
                                   train::SimContext &ctx,
                                   std::string prefix)
    : PhaseBuilder(model, system, ctx, std::move(prefix)), serve_(serve)
{
}

bool
InferenceBuilder::weightsQuantized() const
{
    return system_.strategy == Strategy::SmartUpdateOptComp;
}

Bytes
InferenceBuilder::paramWireBytesPerBlock() const
{
    const Bytes dense = paramsPerBlock() * kBytesFp16;
    return weightsQuantized() ? dense * serve_.weight_wire_fraction : dense;
}

int
InferenceBuilder::prefetchWindow() const
{
    const bool optimized = system_.strategy == Strategy::SmartUpdateOpt ||
                           system_.strategy == Strategy::SmartUpdateOptComp;
    if (!optimized)
        return 1;
    // The optimized handler multi-buffers up to one layer per owner CSD
    // (their fetches come from distinct devices, so lookahead aggregates
    // media bandwidth until the shared trunk saturates).
    return std::max(2, std::min(system_.num_devices, 4));
}

Bytes
InferenceBuilder::kvBytesPerToken() const
{
    // K and V, one fp16 hidden vector each, per layer.
    return 2.0 * model_.num_layers * model_.hidden_dim * kBytesFp16;
}

InferenceBuilder::KvTierSplit
InferenceBuilder::splitKvRange(Bytes lo, Bytes hi) const
{
    // Tiers fill strictly in order: [0, H) is HBM, [H, H+M) host memory,
    // [H+M, inf) CSD storage. The split of any contiguous byte range is
    // its overlap with each interval.
    const Bytes hbm_end = serve_.kv.hbm_budget;
    const Bytes host_end = hbm_end + serve_.kv.host_budget;
    KvTierSplit split;
    split.hbm = std::max(0.0, std::min(hi, hbm_end) - lo);
    split.host =
        std::max(0.0, std::min(hi, host_end) - std::max(lo, hbm_end));
    split.csd = std::max(0.0, hi - std::max(lo, host_end));
    return split;
}

InferenceBuilder::KvTierSplit
InferenceBuilder::splitRanges(const std::vector<kv::KvTokenRange> &ranges) const
{
    // Token counts are integers, so the int64 -> double conversion is
    // exact. The upper end is lo plus the scaled extent, so the byte
    // arguments (and with them every golden) are those the layouts have
    // always priced; each range's split sums into the step's total.
    const Bytes per_token = kvBytesPerToken();
    KvTierSplit total;
    for (const kv::KvTokenRange &r : ranges) {
        const Bytes lo = static_cast<double>(r.lo) * per_token;
        const Bytes hi = lo + static_cast<double>(r.hi - r.lo) * per_token;
        const KvTierSplit s = splitKvRange(lo, hi);
        total.hbm += s.hbm;
        total.host += s.host;
        total.csd += s.csd;
    }
    return total;
}

void
InferenceBuilder::buildKvFlows(const StepShape &shape, int step_index,
                               TaskId after, std::vector<TaskId> &kv_tasks)
{
    const int devices = system_.num_devices;

    // Decode attention re-reads every resident KV byte: the step's read
    // ranges. Positions encode placement, so under the paged layout holes
    // left by retired requests (fragmentation) keep live pages in the
    // spill tiers.
    const KvTierSplit reads = splitRanges(shape.kv_reads);
    // HBM-tier KV is read at on-package bandwidth — not a modeled
    // bottleneck, so no task. Spilled tiers become real flows that start
    // with the step and contend with the parameter stream.
    if (reads.host > 0.0) {
        kv_tasks.push_back(ctx_.transfer(gpuDown(), reads.host,
                                         {"srv.kvread.host", step_index, 0}));
        ctx_.traffic.kv_spill_read += reads.host;
    }
    if (reads.csd > 0.0) {
        // Spilled KV stages through host memory: striped 1/D over every
        // device (RAID0-style, media rates aggregate into the shared
        // interconnect), then one GPU-link transfer once the stripes
        // land. The staging keeps the CSD tier a strict superset of the
        // host tier's cost — storage can never be cheaper than DRAM.
        const TaskId landed =
            ctx_.graph.barrier({"srv.kvread.csd", step_index, devices});
        const Bytes per_dev = reads.csd / devices;
        for (int d = 0; d < devices; ++d) {
            const TaskId stripe = ctx_.transfer(
                ssdReadRoute(d), per_dev, {"srv.kvread.csd", step_index, d});
            ctx_.graph.dependsOn(landed, stripe);
        }
        const TaskId up = ctx_.transfer(
            gpuDown(), reads.csd, {"srv.kvread.csdup", step_index, 0});
        ctx_.graph.dependsOn(up, landed);
        kv_tasks.push_back(up);
        ctx_.traffic.kv_spill_read += reads.csd;
    }

    // The step's new KV lands in its write ranges. Bytes crossing a tier
    // boundary are written through to that tier. Writes carry data
    // produced by the pass, so they depend on its last compute.
    const KvTierSplit writes = splitRanges(shape.kv_writes);
    if (writes.host > 0.0) {
        const TaskId w = ctx_.transfer(gpuUp(), writes.host,
                                       {"srv.kvwrite.host", step_index, 0});
        ctx_.graph.dependsOn(w, after);
        kv_tasks.push_back(w);
        ctx_.traffic.kv_spill_write += writes.host;
    }
    if (writes.csd > 0.0) {
        // Mirror of the staged read: GPU -> host memory first, then the
        // striped write-through to the devices' media.
        const TaskId down = ctx_.transfer(
            gpuUp(), writes.csd, {"srv.kvwrite.csdup", step_index, 0});
        ctx_.graph.dependsOn(down, after);
        const Bytes per_dev = writes.csd / devices;
        for (int d = 0; d < devices; ++d) {
            const TaskId stripe = ctx_.transfer(
                ssdWriteRoute(d), per_dev,
                {"srv.kvwrite.csd", step_index, d});
            ctx_.graph.dependsOn(stripe, down);
            kv_tasks.push_back(stripe);
        }
        ctx_.traffic.kv_spill_write += writes.csd;
    }
}

TaskId
InferenceBuilder::buildForwardPass(const StepShape &shape, int step_index)
{
    const double tokens = shape.compute_tokens;
    SI_ASSERT(tokens > 0.0, "empty forward pass");
    const int layers = model_.num_layers;
    const Bytes wire = paramWireBytesPerBlock();
    const Bytes dense = paramsPerBlock() * kBytesFp16;
    const int window = prefetchWindow();

    std::vector<TaskId> computes(layers, sim::TaskGraph::kInvalidTask);
    TaskId prev_compute = sim::TaskGraph::kInvalidTask;
    for (int l = 0; l < layers; ++l) {
        // 1. Stream the layer's stored parameters into host memory.
        TaskId fetch_gate, fetch_done;
        if (system_.strategy == Strategy::Baseline) {
            // RAID0 stripes the layer across every device.
            auto [gate, join] =
                storageReadStriped(wire, {"srv.fetch", step_index, l});
            fetch_gate = gate;
            fetch_done = join;
        } else {
            // Whole layer from its owner CSD (flattened distribution).
            const int owner = l % system_.num_devices;
            fetch_gate = fetch_done =
                storageRead(owner, wire, {"srv.fetch", step_index, l});
        }
        // Buffer window: the stream may run `window` layers ahead of
        // compute (window 1 = strictly synchronous streaming).
        if (l >= window)
            ctx_.graph.dependsOn(fetch_gate, computes[l - window]);
        ctx_.traffic.shared_param_up += wire;

        // 2. Host memory -> GPU.
        TaskId to_gpu = hostToGpu(wire, {"srv.togpu", step_index, l});
        ctx_.graph.dependsOn(to_gpu, fetch_done);

        // 3. Dequantize on the GPU (quantized-weight engines only); cost
        // mirrors the training-side GPU compression calibration.
        TaskId ready = to_gpu;
        if (weightsQuantized()) {
            const Flops work =
                dense / system_.calib.gpu_compress * gpuRate();
            TaskId dq = gpuCompute(work, {"srv.dequant", step_index, l});
            ctx_.graph.dependsOn(dq, to_gpu);
            ready = dq;
        }

        // 4. Forward compute for every token in the step (layers in
        // order on the node's GPU).
        TaskId compute = gpuCompute(2.0 * paramsPerBlock() * tokens,
                                    {"srv.compute", step_index, l});
        ctx_.graph.dependsOn(compute, ready);
        if (l > 0)
            ctx_.graph.dependsOn(compute, prev_compute);
        computes[l] = compute;
        prev_compute = compute;
    }

    // KV-cache flows (opt-in). When none are issued — kv disabled, or a
    // fully HBM-resident step — the pass completion is the last layer's
    // compute, exactly the pre-KV task structure.
    std::vector<TaskId> kv_tasks;
    if (serve_.kv.enabled) {
        buildKvFlows(shape, step_index, computes[layers - 1], kv_tasks);
        if (ctx_.obs && !serve_.kv.paged()) {
            // Contiguous occupancy after this step's appends land: the
            // tier split of [0, end of the last write range). The paged
            // layout's scheduler reports occupancy (and allocator gauges)
            // straight from KvSpace, which knows true placement.
            const std::int64_t end =
                shape.kv_writes.empty() ? 0 : shape.kv_writes.back().hi;
            const KvTierSplit occ = splitKvRange(
                0.0, static_cast<double>(end) * kvBytesPerToken());
            // Series scope: the node prefix without its '.' ("n<k>", as
            // the paged scheduler names it; "" on one node).
            ctx_.obs->kvOccupancy(prefix_.substr(0, prefix_.find('.')),
                                  occ.hbm, occ.host, occ.csd, ctx_.sim.now());
        }
    }
    if (kv_tasks.empty())
        return computes[layers - 1];

    const TaskId done = ctx_.graph.barrier({"srv.kvdone", step_index, 0});
    ctx_.graph.dependsOn(done, computes[layers - 1]);
    for (const TaskId t : kv_tasks)
        ctx_.graph.dependsOn(done, t);
    return done;
}

} // namespace smartinf::serve
