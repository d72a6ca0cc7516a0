#include "train/calibration.h"

#include <limits>

namespace smartinf::train {

namespace {

constexpr double kTiny = std::numeric_limits<double>::denorm_min();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr const char *kRate = "finite and > 0";
constexpr const char *kLatency = "finite and >= 0";
constexpr const char *kFraction = "in (0, 1]";

constexpr CalibrationField kFields[] = {
    {"ssd_read", &Calibration::ssd_read, kTiny, kMax, kRate},
    {"ssd_write", &Calibration::ssd_write, kTiny, kMax, kRate},
    {"raid_efficiency", &Calibration::raid_efficiency, kTiny, 1.0, kFraction},
    {"device_link", &Calibration::device_link, kTiny, kMax, kRate},
    {"host_shared", &Calibration::host_shared, kTiny, kMax, kRate},
    {"host_memory", &Calibration::host_memory, kTiny, kMax, kRate},
    {"gpu_link", &Calibration::gpu_link, kTiny, kMax, kRate},
    {"p2p_read", &Calibration::p2p_read, kTiny, kMax, kRate},
    {"p2p_write", &Calibration::p2p_write, kTiny, kMax, kRate},
    {"cpu_update", &Calibration::cpu_update, kTiny, kMax, kRate},
    {"gpu_compress", &Calibration::gpu_compress, kTiny, kMax, kRate},
    {"fpga_updater", &Calibration::fpga_updater, kTiny, kMax, kRate},
    {"fpga_decomp", &Calibration::fpga_decomp, kTiny, kMax, kRate},
    {"transfer_latency", &Calibration::transfer_latency, 0.0, kMax, kLatency},
    {"kernel_launch", &Calibration::kernel_launch, 0.0, kMax, kLatency},
    {"fpga_dram_usable", &Calibration::fpga_dram_usable, kTiny, 1.0,
     kFraction},
};

} // namespace

std::span<const CalibrationField>
calibrationFields()
{
    return kFields;
}

const Calibration &
Calibration::defaults()
{
    static const Calibration defaults{};
    return defaults;
}

} // namespace smartinf::train
