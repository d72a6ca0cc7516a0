#include "train/phase_builders.h"

#include <algorithm>

#include "common/logging.h"
#include "train/gpu_model.h"
#include "train/system_builder.h"

namespace smartinf::train {

PhaseBuilder::PhaseBuilder(const ModelSpec &model, const SystemConfig &system,
                           SimContext &ctx, std::string prefix)
    : model_(model), system_(system), ctx_(ctx), prefix_(std::move(prefix))
{
    buildNodeLinks(ctx_.topo, system_, prefix_);
    resolveRoutes();
    buildResources();
}

void
PhaseBuilder::resolveRoutes()
{
    // Every transfer this node starts takes one of these routes; resolving
    // them here keeps link-name lookups off the per-flow path.
    const auto route = [this](net::Route links) {
        return ResolvedRoute{{}, &ctx_, std::move(links),
                             ctx_.system.calib.transfer_latency};
    };
    // Host memory <-> GPU. In the congested topology this shares the
    // expansion trunk with storage traffic (Fig 17).
    if (system_.congested_topology) {
        gpu_down_ = route({link("host.down"), link("gpu.down")});
        gpu_up_ = route({link("gpu.up"), link("host.up")});
        if (system_.num_gpus > 1)
            tp_fabric_ = route({link("tp.fabric")});
    } else {
        gpu_down_ = route({link("gpu.down")});
        gpu_up_ = route({link("gpu.up")});
    }
    for (int d = 0; d < system_.num_devices; ++d) {
        const std::string ssd = "ssd" + std::to_string(d);
        ssd_write_.push_back(route(
            {link("host.down"), link(ssd + ".down"), link(ssd + ".write")}));
        ssd_read_.push_back(route(
            {link(ssd + ".read"), link(ssd + ".up"), link("host.up")}));
    }
}

void
PhaseBuilder::buildResources()
{
    const Calibration &cal = system_.calib;
    const GpuModel gpu = GpuModel::get(system_.gpu);
    gpu_ = std::make_unique<sim::Resource>(
        ctx_.sim, pfx("gpu"), gpu.effective_flops * system_.num_gpus,
        cal.kernel_launch);
    cpu_ = std::make_unique<sim::Resource>(ctx_.sim, pfx("cpu.update"),
                                           cal.cpu_update, 20e-6);
    if (strategyUsesCsd(system_.strategy)) {
        for (int d = 0; d < system_.num_devices; ++d) {
            // FPGA kernel engine: work is expressed in seconds
            // (rate 1.0) so one resource serializes update and
            // decompression kernels.
            fpga_.push_back(std::make_unique<sim::Resource>(
                ctx_.sim, pfx("fpga" + std::to_string(d)), 1.0,
                cal.kernel_launch));
            // Single OpenCL P2P DMA queue per CSD: internal reads and
            // writes serialize on it.
            dma_.push_back(std::make_unique<sim::Resource>(
                ctx_.sim, pfx("dma" + std::to_string(d)), 1.0,
                cal.transfer_latency));
        }
    }
}

/** Internal P2P transfer as work (seconds) on the CSD's DMA engine. */
PhaseBuilder::TaskId
PhaseBuilder::internalTransfer(int d, Bytes bytes, BytesPerSec p2p_rate,
                               BytesPerSec media_rate, sim::TaskLabel label)
{
    const Seconds duration = bytes / std::min(p2p_rate, media_rate);
    return ctx_.graph.compute(*dma_[d], duration, label);
}

// ---- phase primitives -------------------------------------------------------

PhaseBuilder::TaskId
PhaseBuilder::hostToGpu(Bytes bytes, sim::TaskLabel label)
{
    return ctx_.transfer(gpuDown(), bytes, label);
}

PhaseBuilder::TaskId
PhaseBuilder::gpuToHost(Bytes bytes, sim::TaskLabel label)
{
    return ctx_.transfer(gpuUp(), bytes, label);
}

PhaseBuilder::TaskId
PhaseBuilder::gpuCompute(Flops work, sim::TaskLabel label)
{
    return ctx_.graph.compute(*gpu_, work, label);
}

PhaseBuilder::TaskId
PhaseBuilder::storageRead(int d, Bytes bytes, sim::TaskLabel label)
{
    SI_ASSERT(d >= 0 && d < system_.num_devices, "bad device index");
    return ctx_.transfer(ssdReadRoute(d), bytes, label);
}

PhaseBuilder::TaskId
PhaseBuilder::storageWrite(int d, Bytes bytes, sim::TaskLabel label)
{
    SI_ASSERT(d >= 0 && d < system_.num_devices, "bad device index");
    return ctx_.transfer(ssdWriteRoute(d), bytes, label);
}

std::pair<PhaseBuilder::TaskId, PhaseBuilder::TaskId>
PhaseBuilder::storageReadStriped(Bytes bytes, sim::TaskLabel label)
{
    const TaskId gate = ctx_.graph.barrier(label);
    const TaskId join = ctx_.graph.barrier(label);
    const Bytes per_dev = bytes / system_.num_devices;
    for (int d = 0; d < system_.num_devices; ++d) {
        const TaskId part = ctx_.transfer(ssdReadRoute(d), per_dev,
                                          {label.stem, label.a, d});
        ctx_.graph.dependsOn(part, gate);
        ctx_.graph.dependsOn(join, part);
    }
    return {gate, join};
}

} // namespace smartinf::train
