/**
 * @file
 * The user-facing customization surface of the accelerator (paper §VI,
 * Fig 8 "User Level"): Smart-Infinity ships HLS templates for custom
 * updaters/decompressors, each with a sanity checker (logic vs. the host
 * reference) and a performance analyzer. This module reproduces the two
 * tools: a user kernel subclasses UpdaterModule or DecompressorModule, is
 * checked and analyzed here, and is installed on a CSD directly (see
 * examples/custom_updater.cc).
 */
#ifndef SMARTINF_ACCEL_HLS_MODULE_H
#define SMARTINF_ACCEL_HLS_MODULE_H

#include <string>

#include "accel/decompressor.h"
#include "accel/updater.h"

namespace smartinf::accel {

/** Result of checking a module's logic against the host reference. */
struct SanityReport {
    bool passed = false;
    std::size_t elements_checked = 0;
    /** Output floats whose bit pattern differs from the reference. */
    std::size_t mismatches = 0;
    /**
     * Maximum absolute divergence over the mismatches (0 for
     * bit-identical); NaN or infinity when a mismatch is non-finite.
     */
    double max_abs_diff = 0.0;
    std::string detail;
};

/** Result of the performance analyzer. */
struct PerfReport {
    /** Modeled device throughput (bytes of stream per second). */
    BytesPerSec modeled_throughput = 0.0;
    /** Host emulation rate while checking (elements per second). */
    double emulation_elems_per_sec = 0.0;
    /** Whether the modeled throughput keeps up with SSD read bandwidth. */
    bool keeps_up_with_ssd = false;
};

/**
 * Verify an updater module against the host reference optimizer over
 * @p steps random update steps of @p n elements. Passes only when the
 * master parameters and every state array are bit-identical (the built-ins
 * run the reference's own step).
 */
SanityReport sanityCheckUpdater(const UpdaterModule &module,
                                std::size_t n = 1 << 14,
                                unsigned steps = 4, uint64_t seed = 1234);

/** Verify a decompressor against the reference scatter, bit for bit. */
SanityReport sanityCheckDecompressor(const DecompressorModule &module,
                                     double keep_fraction = 0.01,
                                     std::size_t n = 1 << 14,
                                     uint64_t seed = 1234);

/** Run the performance analyzer for an updater. */
PerfReport analyzeUpdater(const UpdaterModule &module,
                          std::size_t n = 1 << 16);

/** Run the performance analyzer for a decompressor. */
PerfReport analyzeDecompressor(const DecompressorModule &module,
                               double keep_fraction = 0.01,
                               std::size_t n = 1 << 16);

} // namespace smartinf::accel

#endif // SMARTINF_ACCEL_HLS_MODULE_H
