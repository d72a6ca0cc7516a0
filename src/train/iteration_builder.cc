#include "train/iteration_builder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "csd/smartssd.h"
#include "train/gpu_model.h"

namespace smartinf::train {

using TaskId = sim::TaskGraph::TaskId;

IterationBuilder::IterationBuilder(const ModelSpec &model,
                                   const TrainConfig &train,
                                   const SystemConfig &system, SimContext &ctx,
                                   std::string prefix)
    : PhaseBuilder(model, system, ctx, std::move(prefix)), train_(train)
{
    grad_to_host_.assign(model_.num_layers, sim::TaskGraph::kInvalidTask);
    grad_offload_gate_.assign(model_.num_layers, sim::TaskGraph::kInvalidTask);
}

// ---- model slicing ----------------------------------------------------------

Bytes
IterationBuilder::activationBytesPerBlock() const
{
    return static_cast<double>(train_.batch_size) * train_.seq_len *
           model_.hidden_dim * kBytesFp16;
}

bool
IterationBuilder::compressed() const
{
    return system_.strategy == Strategy::SmartUpdateOptComp;
}

/** Gradient bytes leaving the GPU for one block (wire format). */
Bytes
IterationBuilder::gradWireBytesPerBlock() const
{
    const Bytes dense = paramsPerBlock() * kBytesFp32;
    return compressed() ? dense * system_.compression_wire_fraction : dense;
}

TaskId
IterationBuilder::gradToHostTask(int block) const
{
    SI_ASSERT(block >= 0 && block < model_.num_layers, "bad block index");
    SI_ASSERT(grad_to_host_[block] != sim::TaskGraph::kInvalidTask,
              "buildBackward() not called yet");
    return grad_to_host_[block];
}

TaskId
IterationBuilder::gradOffloadGateTask(int block) const
{
    SI_ASSERT(block >= 0 && block < model_.num_layers, "bad block index");
    SI_ASSERT(grad_offload_gate_[block] != sim::TaskGraph::kInvalidTask,
              "buildBackward() not called yet");
    return grad_offload_gate_[block];
}

void
IterationBuilder::onNotify(uint64_t phase)
{
    (phase == kForwardDone ? fw_end_ : bw_end_) = ctx_.sim.now();
}

// ---- forward ----------------------------------------------------------------

TaskId
IterationBuilder::buildForward()
{
    const double tokens = train_.tokensPerIteration();
    const Flops fw_flops_per_block = 2.0 * paramsPerBlock() * tokens;
    TaskId fw_done = ctx_.graph.notify({this, kForwardDone}, {"fw.done"});

    TaskId prev_compute = sim::TaskGraph::kInvalidTask;
    for (int b = 0; b < model_.num_layers; ++b) {
        // 1. Load the block's FP16 parameters from host memory.
        TaskId load = hostToGpu(paramsPerBlock() * kBytesFp16,
                                {"fw.load", b});
        // 2. Forward compute on the GPU (blocks in order).
        TaskId compute = gpuCompute(fw_flops_per_block, {"fw.compute", b});
        ctx_.graph.dependsOn(compute, load);
        if (b > 0)
            ctx_.graph.dependsOn(compute, prev_compute);
        tpAllReduce(compute, {"fw.allreduce", b});
        // 3. Checkpoint activations to host memory.
        TaskId act = gpuToHost(activationBytesPerBlock(), {"fw.act", b});
        ctx_.graph.dependsOn(act, compute);
        ctx_.graph.dependsOn(fw_done, act);
        ctx_.graph.dependsOn(fw_done, compute);
        prev_compute = compute;
    }
    return fw_done;
}

/** Tensor-parallel activation all-reduce (congested multi-GPU only). */
void
IterationBuilder::tpAllReduce(TaskId after_compute, sim::TaskLabel label)
{
    if (!system_.congested_topology || system_.num_gpus <= 1)
        return;
    const double scale = 2.0 * (system_.num_gpus - 1) / system_.num_gpus;
    TaskId ar = ctx_.transfer(tpFabric(),
                              scale * activationBytesPerBlock() *
                                  system_.num_gpus,
                              label);
    ctx_.graph.dependsOn(ar, after_compute);
    // The next block's compute is serialized through the GPU resource;
    // the all-reduce overlaps it but must finish inside the phase.
}

// ---- backward ---------------------------------------------------------------

TaskId
IterationBuilder::buildBackward(TaskId fw_done)
{
    const double tokens = train_.tokensPerIteration();
    const Flops bw_flops_per_block = 4.0 * paramsPerBlock() * tokens;
    const Bytes dense_grad = paramsPerBlock() * kBytesFp32;
    TaskId bw_done = ctx_.graph.notify({this, kBackwardDone}, {"bw.done"});

    TaskId prev_compute = sim::TaskGraph::kInvalidTask;
    for (int b = 0; b < model_.num_layers; ++b) {
        // 1. Reload parameters + checkpointed activations.
        TaskId load = hostToGpu(
            paramsPerBlock() * kBytesFp16 + activationBytesPerBlock(),
            {"bw.load", b});
        ctx_.graph.dependsOn(load, fw_done);
        // 2. Backward compute.
        TaskId compute = gpuCompute(bw_flops_per_block, {"bw.compute", b});
        ctx_.graph.dependsOn(compute, load);
        if (b > 0)
            ctx_.graph.dependsOn(compute, prev_compute);
        tpAllReduce(compute, {"bw.allreduce", b});

        // 3. Optional GPU-side Top-K compression (SmartComp).
        TaskId producer = compute;
        if (compressed()) {
            const Flops compress_work =
                dense_grad / system_.calib.gpu_compress * gpuRate();
            TaskId comp = gpuCompute(compress_work, {"bw.compress", b});
            ctx_.graph.dependsOn(comp, compute);
            producer = comp;
        }

        // 4. Gradients to host memory, then offload to storage.
        TaskId to_host = gpuToHost(gradWireBytesPerBlock(),
                                   {"bw.tohost", b});
        ctx_.graph.dependsOn(to_host, producer);
        grad_to_host_[b] = to_host;
        const auto [gate, offload] = buildGradOffload(b);
        ctx_.graph.dependsOn(gate, to_host);
        grad_offload_gate_[b] = gate;
        ctx_.graph.dependsOn(bw_done, offload);
        ctx_.graph.dependsOn(bw_done, compute);
        prev_compute = compute;
    }
    return bw_done;
}

/**
 * Offload one block's gradients. Baseline stripes over the RAID0;
 * Smart-Infinity routes them to the owner CSD of the block's flattened
 * parameter range (§IV-D).
 */
std::pair<TaskId, TaskId>
IterationBuilder::buildGradOffload(int block)
{
    const Bytes wire = gradWireBytesPerBlock();
    ctx_.traffic.shared_grad_write += wire;
    if (system_.strategy == Strategy::Baseline) {
        // The stripes hang off a gate barrier so they start only once the
        // block's gradients exist in host memory (plus whatever extra
        // dependencies a caller points at the gate).
        TaskId gate = ctx_.graph.barrier({"bw.offload.start", block});
        TaskId joined = ctx_.graph.barrier({"bw.offload", block});
        const Bytes per_dev = wire / system_.num_devices;
        for (int d = 0; d < system_.num_devices; ++d) {
            TaskId part = storageWrite(d, per_dev, {"bw.offload", block, d});
            ctx_.graph.dependsOn(part, gate);
            ctx_.graph.dependsOn(joined, part);
        }
        return {gate, joined};
    }
    // Flattened equal distribution: consecutive blocks land on
    // consecutive owner CSDs.
    const int owner = block % system_.num_devices;
    TaskId t = storageWrite(owner, wire, {"bw.offload", block});
    return {t, t};
}

// ---- update: baseline -------------------------------------------------------

void
IterationBuilder::buildUpdate(TaskId ready)
{
    if (system_.strategy == Strategy::Baseline)
        buildBaselineUpdate(ready);
    else
        buildSmartUpdate(ready);
}

void
IterationBuilder::buildBaselineUpdate(TaskId ready)
{
    const int aux = optim::auxStateCount(system_.optimizer);
    const double p_block = paramsPerBlock();
    // Read side: gradients (FP32) + master + aux states.
    const Bytes read_bytes = p_block * kBytesFp32 * (2.0 + aux);
    // Write side: master + aux states.
    const Bytes write_bytes = p_block * kBytesFp32 * (1.0 + aux);

    TaskId prev_cpu = sim::TaskGraph::kInvalidTask;
    TaskId prev_read = sim::TaskGraph::kInvalidTask;
    TaskId prev_write = sim::TaskGraph::kInvalidTask;
    for (int b = 0; b < model_.num_layers; ++b) {
        // 1. Upload gradients + optimizer states from the RAID0. The
        // swapper streams blocks in order: block b's upload is issued
        // after block b-1's (sequential prefetch, overlapped with
        // compute and writeback through the full-duplex interconnect).
        TaskId read = ctx_.graph.barrier({"upd.read", b});
        for (int d = 0; d < system_.num_devices; ++d) {
            TaskId part = storageRead(d, read_bytes / system_.num_devices,
                                      {"upd.read", b, d});
            ctx_.graph.dependsOn(part, ready);
            if (b > 0)
                ctx_.graph.dependsOn(part, prev_read);
            ctx_.graph.dependsOn(read, part);
        }
        ctx_.traffic.shared_grad_read += p_block * kBytesFp32;
        ctx_.traffic.shared_opt_read += p_block * kBytesFp32 * (1.0 + aux);

        // 2./3. CPU (AVX) update of the block.
        TaskId cpu = ctx_.graph.compute(*cpu_, read_bytes, {"upd.cpu", b});
        ctx_.graph.dependsOn(cpu, read);
        if (b > 0)
            ctx_.graph.dependsOn(cpu, prev_cpu);

        // 5. Offload updated optimizer states back to the RAID0,
        // likewise streamed in block order.
        TaskId write = ctx_.graph.barrier({"upd.write", b});
        for (int d = 0; d < system_.num_devices; ++d) {
            TaskId part = storageWrite(d, write_bytes / system_.num_devices,
                                       {"upd.write", b, d});
            ctx_.graph.dependsOn(part, cpu);
            if (b > 0)
                ctx_.graph.dependsOn(part, prev_write);
            ctx_.graph.dependsOn(write, part);
        }
        ctx_.traffic.shared_opt_write += write_bytes;
        prev_cpu = cpu;
        prev_read = read;
        prev_write = write;
    }
}

// ---- update: Smart-Infinity -------------------------------------------------

void
IterationBuilder::buildSmartUpdate(TaskId ready)
{
    const Calibration &cal = system_.calib;
    const int aux = optim::auxStateCount(system_.optimizer);
    const double params_per_csd = model_.num_params / system_.num_devices;

    // Subgroup sizing against FPGA DRAM (the paper's D): the naive
    // handler dedicates the whole usable DRAM to one subgroup; the
    // optimized handler needs double buffers.
    const double resident_bytes_per_elem = kBytesFp32 * (2.0 + aux);
    const bool optimized = system_.strategy != Strategy::SmartUpdate;
    const double usable =
        csd::smartssd::kFpgaDram * cal.fpga_dram_usable /
        (optimized ? 2.0 : 1.0);
    const double subgroup_elems =
        std::max(1.0, std::floor(usable / resident_bytes_per_elem));
    const int num_subgroups =
        static_cast<int>(std::ceil(params_per_csd / subgroup_elems));

    for (int d = 0; d < system_.num_devices; ++d)
        buildCsdChain(d, ready, params_per_csd, num_subgroups, aux);
}

void
IterationBuilder::buildCsdChain(int d, TaskId ready, double params_per_csd,
                                int num_subgroups, int aux)
{
    const Calibration &cal = system_.calib;
    const bool optimized = system_.strategy != Strategy::SmartUpdate;
    const double elems = params_per_csd / num_subgroups;

    // Per-subgroup byte volumes.
    const Bytes grad_read =
        compressed()
            ? elems * kBytesFp32 * system_.compression_wire_fraction
            : elems * kBytesFp32;
    const Bytes state_read = elems * kBytesFp32 * (1.0 + aux);
    const Bytes param_write = elems * kBytesFp32;       // FP32 master (urgent)
    const Bytes state_write = elems * kBytesFp32 * aux; // mmt/var (lazy)
    const Bytes upstream = elems * kBytesFp32;          // paper's 2M total

    // Modeled kernel durations (Resource rate is 1.0 s/s).
    const Seconds update_secs =
        elems * kBytesFp32 * (2.0 + aux) / cal.fpga_updater;
    const Seconds decomp_secs = elems * kBytesFp32 / cal.fpga_decomp;

    TaskId prev_kernel = sim::TaskGraph::kInvalidTask;
    TaskId prev_write_all = sim::TaskGraph::kInvalidTask;

    for (int s = 0; s < num_subgroups; ++s) {
        // Labels carry (device, subgroup); the node prefix is a link/
        // resource concept, not a label one.

        // 1. P2P load: (compressed) gradients + optimizer states, on
        // the CSD's single DMA queue.
        TaskId read = internalTransfer(d, grad_read + state_read,
                                       cal.p2p_read, cal.ssd_read,
                                       {"csd.read", d, s});
        ctx_.graph.dependsOn(read, ready);
        ctx_.traffic.internal_read += grad_read + state_read;

        if (optimized) {
            // Double buffering: the next load may begin once the
            // previous subgroup's compute released its input buffer —
            // the DMA queue stays busy through kernels.
            if (s > 0)
                ctx_.graph.dependsOn(read, prev_kernel);
        } else {
            // Naive: one buffer — the whole previous tasklet (including
            // writeback) must finish first (Fig 5a), so the DMA engine
            // idles during every kernel.
            if (s > 0)
                ctx_.graph.dependsOn(read, prev_write_all);
        }

        // 2. Decompress (SmartComp) then update on the FPGA.
        TaskId kernel_dep = read;
        if (compressed()) {
            TaskId decomp = ctx_.graph.compute(*fpga_[d], decomp_secs,
                                               {"csd.decomp", d, s});
            ctx_.graph.dependsOn(decomp, read);
            kernel_dep = decomp;
        }
        TaskId kernel = ctx_.graph.compute(*fpga_[d], update_secs,
                                           {"csd.update", d, s});
        ctx_.graph.dependsOn(kernel, kernel_dep);

        // 3. Writeback. Optimized: urgent FP32 master first, lazy
        // momentum/variance after; naive: one combined transfer.
        TaskId write_params, write_all;
        if (optimized) {
            write_params = internalTransfer(d, param_write, cal.p2p_write,
                                            cal.ssd_write,
                                            {"csd.wparam", d, s});
            ctx_.graph.dependsOn(write_params, kernel);
            TaskId write_states = internalTransfer(
                d, state_write, cal.p2p_write, cal.ssd_write,
                {"csd.wstate", d, s});
            ctx_.graph.dependsOn(write_states, write_params);
            write_all = write_states;
        } else {
            write_all = internalTransfer(d, param_write + state_write,
                                         cal.p2p_write, cal.ssd_write,
                                         {"csd.wall", d, s});
            ctx_.graph.dependsOn(write_all, kernel);
            write_params = write_all;
        }
        ctx_.traffic.internal_write += param_write + state_write;

        // 4. Updated parameters upstream to host memory (overlappable
        // with the update of other subgroups — paper §IV-A).
        TaskId up = storageRead(d, upstream, {"csd.upstream", d, s});
        ctx_.graph.dependsOn(up, write_params);
        ctx_.traffic.shared_param_up += upstream;

        prev_kernel = kernel;
        prev_write_all = write_all;
    }
}

} // namespace smartinf::train
