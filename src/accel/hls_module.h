/**
 * @file
 * The user-facing customization surface of the accelerator (paper §VI,
 * Fig 8 "User Level"): Smart-Infinity ships HLS templates for custom
 * updaters/decompressors. A user kernel subclasses UpdaterModule or
 * DecompressorModule and is installed on a CSD directly; this module holds
 * the template's performance analyzer for updaters (see
 * examples/custom_updater.cc).
 */
#ifndef SMARTINF_ACCEL_HLS_MODULE_H
#define SMARTINF_ACCEL_HLS_MODULE_H

#include "accel/updater.h"

namespace smartinf::accel {

/** Result of the performance analyzer. */
struct PerfReport {
    /** Modeled device throughput (bytes of stream per second). */
    BytesPerSec modeled_throughput = 0.0;
    /** Host emulation rate while checking (elements per second). */
    double emulation_elems_per_sec = 0.0;
    /** Whether the modeled throughput keeps up with SSD read bandwidth. */
    bool keeps_up_with_ssd = false;
};

/** Run the performance analyzer for an updater. */
PerfReport analyzeUpdater(const UpdaterModule &module,
                          std::size_t n = 1 << 16);

} // namespace smartinf::accel

#endif // SMARTINF_ACCEL_HLS_MODULE_H
