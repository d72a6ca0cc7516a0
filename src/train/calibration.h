/**
 * @file
 * Calibration constants for the performance model, each anchored to a
 * measurement the paper reports. Absolute seconds are not the goal (our
 * substrate is a simulator, not the authors' testbed); these constants are
 * chosen so the *shapes* hold: update >= ~75-80% of baseline iteration time
 * (Fig 3a), RAID0 saturating around 4 SSDs (Fig 3b), and the Fig 9/11
 * speedup bands. The SmartSSD's own rates (Fig 14) name csd/smartssd.h.
 */
#ifndef SMARTINF_TRAIN_CALIBRATION_H
#define SMARTINF_TRAIN_CALIBRATION_H

#include "common/field_walk.h"
#include "common/units.h"
#include "csd/smartssd.h"

namespace smartinf::train {

/** Tunable bandwidth/latency constants of the modeled system. */
struct Calibration {
    /** Sequential read of one SmartSSD NVMe (Fig 14 "SSD Read"). */
    BytesPerSec ssd_read = csd::smartssd::kSsdRead;
    /** Sequential write of one SmartSSD NVMe (Fig 14 "SSD Write"). */
    BytesPerSec ssd_write = csd::smartssd::kSsdWrite;

    /**
     * Per-member efficiency of the baseline's software RAID0 (mdadm chunk
     * striping + aio swapper access patterns achieve ~75% of raw sequential
     * media bandwidth). Smart-Infinity bypasses the RAID with direct
     * pread/pwrite P2P, so this applies to the baseline only. Calibrated to
     * the Fig 3(b) saturation curve (~2.4x, knee at ~4 SSDs).
     */
    double raid_efficiency = 0.75;

    /**
     * Per-device external PCIe Gen3 x4 link, per direction (raw 3.94 GB/s,
     * effective after protocol overhead).
     */
    BytesPerSec device_link = GBps(3.3);

    /**
     * Effective shared system-interconnect bandwidth per direction for
     * storage traffic (PCIe Gen3 x16 raw 15.75 GB/s; software RAID, aio and
     * pinned-buffer staging lower the achievable rate — calibrated to the
     * RAID0 saturation knee of Fig 3b).
     */
    BytesPerSec host_shared = GBps(6.0);

    /** Host DRAM bandwidth seen by GPU DMA (paper Fig 2: 16 GB/s). */
    BytesPerSec host_memory = GBps(16.0);

    /** GPU PCIe x16 link per direction (parameter/activation loads). */
    BytesPerSec gpu_link = GBps(12.0);

    /**
     * CSD-internal P2P effective rates (SSD <-> FPGA DRAM through the
     * internal switch). Transfers are issued by a single OpenCL P2P engine
     * per device, so reads and writes serialize on one DMA queue; the rate
     * applied to each transfer is min(p2p rate, media rate).
     */
    BytesPerSec p2p_read = GBps(3.0);
    BytesPerSec p2p_write = GBps(2.0);

    /**
     * Host CPU (AVX) optimizer-update throughput in *read-side* state bytes
     * per second (DeepSpeed CPU-Adam class performance on a 2-socket Xeon).
     */
    BytesPerSec cpu_update = GBps(5.0);

    /** GPU-side Top-K compression throughput (sort + pack), bytes/s. */
    BytesPerSec gpu_compress = GBps(80.0);

    /** FPGA updater throughput in state-stream bytes/s (Fig 14 Adam). */
    BytesPerSec fpga_updater = csd::smartssd::kAdamUpdater;
    /** FPGA Top-K decompressor throughput in output bytes/s (Fig 14). */
    BytesPerSec fpga_decomp = csd::smartssd::kTopKDecompressor;

    /** Fixed latency per bulk transfer (syscall + DMA setup). */
    Seconds transfer_latency = 150e-6;
    /** Fixed latency per FPGA kernel invocation (OpenCL enqueue). */
    Seconds kernel_launch = 80e-6;

    /** Usable fraction of FPGA DRAM for subgroup buffers. */
    double fpga_dram_usable = 0.8;

    static const Calibration &defaults();
};

/**
 * The Calibration walk (common/field_walk.h), in declaration order. Every
 * field matters in every run; rates must be finite and positive,
 * latencies finite and non-negative, fractions in (0, 1].
 */
template <typename V, FieldsOf<Calibration> C>
void
walkFields(V &v, C &c)
{
    constexpr FieldRange rate{kTiny, kFiniteMax, "finite and > 0"};
    constexpr FieldRange latency{0.0, kFiniteMax, "finite and >= 0"};
    constexpr FieldRange fraction{kTiny, 1.0, "in (0, 1]"};
    field(v, "ssd_read", c.ssd_read, true, rate);
    field(v, "ssd_write", c.ssd_write, true, rate);
    field(v, "raid_efficiency", c.raid_efficiency, true, fraction);
    field(v, "device_link", c.device_link, true, rate);
    field(v, "host_shared", c.host_shared, true, rate);
    field(v, "host_memory", c.host_memory, true, rate);
    field(v, "gpu_link", c.gpu_link, true, rate);
    field(v, "p2p_read", c.p2p_read, true, rate);
    field(v, "p2p_write", c.p2p_write, true, rate);
    field(v, "cpu_update", c.cpu_update, true, rate);
    field(v, "gpu_compress", c.gpu_compress, true, rate);
    field(v, "fpga_updater", c.fpga_updater, true, rate);
    field(v, "fpga_decomp", c.fpga_decomp, true, rate);
    field(v, "transfer_latency", c.transfer_latency, true, latency);
    field(v, "kernel_launch", c.kernel_launch, true, latency);
    field(v, "fpga_dram_usable", c.fpga_dram_usable, true, fraction);
}

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_CALIBRATION_H
