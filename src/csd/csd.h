/**
 * @file
 * A computational storage device (paper Fig 2): an NVMe SSD and a
 * lightweight FPGA joined by an internal PCIe switch, so SSD<->FPGA peer-to-
 * peer traffic never touches the host's shared interconnect. This class is
 * the *functional* composition (contents + device memory + kernels); its
 * FPGA memory is the SmartSSD's DRAM (csd/smartssd.h), the same number the
 * timing layer sizes SmartUpdate subgroups against.
 */
#ifndef SMARTINF_CSD_CSD_H
#define SMARTINF_CSD_CSD_H

#include <memory>
#include <string>

#include "accel/decompressor.h"
#include "accel/fpga_resources.h"
#include "accel/updater.h"
#include "csd/device_memory.h"
#include "storage/block_device.h"

namespace smartinf::csd {

/** One CSD instance: functional SSD contents + FPGA memory + kernels. */
class Csd
{
  public:
    /**
     * @param name diagnostic identifier ("csd0", ...)
     * @param functional_capacity addressable bytes of the emulated SSD
     *        contents, costing new host memory only where written (sized
     *        to the shard, so much smaller than the device's 4 TB)
     */
    Csd(std::string name, std::size_t functional_capacity);

    /**
     * Install the updater kernel (the "device binary" of paper Fig 8).
     * Replaces any prior updater and re-places the resource model.
     */
    void installUpdater(std::unique_ptr<accel::UpdaterModule> updater);

    /** Install the decompressor kernel (SmartComp). */
    void
    installDecompressor(std::unique_ptr<accel::DecompressorModule> decomp);

    const std::string &name() const { return name_; }

    storage::BlockDevice &ssd() { return ssd_; }
    const storage::BlockDevice &ssd() const { return ssd_; }

    DeviceMemory &fpgaMemory() { return fpga_memory_; }

    accel::UpdaterModule *updater() { return updater_.get(); }
    const accel::UpdaterModule *updater() const { return updater_.get(); }
    accel::DecompressorModule *decompressor() { return decompressor_.get(); }
    const accel::DecompressorModule *decompressor() const
    {
        return decompressor_.get();
    }

    const accel::FpgaResourceModel &resources() const { return resources_; }

  private:
    void replaceModules();

    std::string name_;
    storage::BlockDevice ssd_;
    DeviceMemory fpga_memory_;
    std::unique_ptr<accel::UpdaterModule> updater_;
    std::unique_ptr<accel::DecompressorModule> decompressor_;
    accel::FpgaResourceModel resources_;
};

} // namespace smartinf::csd

#endif // SMARTINF_CSD_CSD_H
