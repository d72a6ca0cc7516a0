/**
 * @file
 * The measured numbers of a Samsung SmartSSD (paper Fig 2: a 4 TB NVMe
 * SSD next to a KU15P FPGA with 4 GB DDR4), the one device both layers
 * model: the Calibration defaults, SmartUpdate's subgroup sizing, Csd's
 * FPGA memory, the built-in kernels and fig14 all read them from here.
 */
#ifndef SMARTINF_CSD_SMARTSSD_H
#define SMARTINF_CSD_SMARTSSD_H

#include "common/units.h"

namespace smartinf::csd::smartssd {

/** Sequential NVMe read and write (Fig 14 "SSD Read"/"SSD Write"). */
inline constexpr BytesPerSec kSsdRead = GBps(3.2);
inline constexpr BytesPerSec kSsdWrite = GBps(2.0);
/** FPGA DDR4 capacity. */
inline constexpr Bytes kFpgaDram = GiB(4.0);
/** Fig 14 kernel rates: the Adam updater in state-stream bytes/s
 *  (> 7 GB/s), the Top-K decompressor in output bytes/s (just above SSD
 *  read). */
inline constexpr BytesPerSec kAdamUpdater = GBps(7.2);
inline constexpr BytesPerSec kTopKDecompressor = GBps(3.6);

} // namespace smartinf::csd::smartssd

#endif // SMARTINF_CSD_SMARTSSD_H
