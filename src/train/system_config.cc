#include "train/system_config.h"

#include <limits>
#include <sstream>

#include "common/enum_names.h"
#include "common/validation.h"

namespace smartinf::train {

const char *
strategyName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::Baseline: return "BASE";
      case Strategy::SmartUpdate: return "SU";
      case Strategy::SmartUpdateOpt: return "SU+O";
      case Strategy::SmartUpdateOptComp: return "SU+O+C";
    }
    return "?";
}

std::optional<Strategy>
strategyFromName(const std::string &name)
{
    return enumFromName(allStrategies(), strategyName, name);
}

std::vector<Strategy>
allStrategies()
{
    return {Strategy::Baseline, Strategy::SmartUpdate,
            Strategy::SmartUpdateOpt, Strategy::SmartUpdateOptComp};
}

std::string
joinErrors(const std::vector<std::string> &errors)
{
    std::string out;
    for (const auto &error : errors) {
        if (!out.empty())
            out += "; ";
        out += error;
    }
    return out;
}

namespace {

/** One Calibration field's legal range, [lo, hi]; NaN fails it. */
struct CalibRange {
    const char *name;
    double Calibration::*member;
    double lo;
    double hi;
    const char *rule;
};

constexpr double kTiny = std::numeric_limits<double>::denorm_min();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr const char *kRate = "finite and > 0";
constexpr const char *kLatency = "finite and >= 0";
constexpr const char *kFraction = "in (0, 1]";

constexpr CalibRange kCalibRanges[] = {
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

std::vector<std::string>
SystemConfig::validate() const
{
    std::vector<std::string> errors;
    requireField(errors, num_devices >= 1, "num_devices must be >= 1",
                 num_devices);
    requireField(errors, num_gpus >= 1, "num_gpus must be >= 1", num_gpus);
    if (strategy == Strategy::SmartUpdateOptComp) {
        requireField(errors,
                     compression_wire_fraction > 0.0 &&
                         compression_wire_fraction <= 1.0,
                     "compression_wire_fraction must be in (0, 1]",
                     compression_wire_fraction);
    }
    requireField(errors, num_nodes >= 1, "num_nodes must be >= 1",
                 num_nodes);
    if (num_nodes > 1) {
        requireField(errors, nic_bandwidth > 0.0,
                     "nic_bandwidth must be positive for multi-node configs",
                     nic_bandwidth);
        requireField(errors, nic_latency >= 0.0, "nic_latency must be >= 0",
                     nic_latency);
    }
    // Engine's constructor runs this inside the timed set-up, so the
    // all-valid case is one branch-free pass of plain comparisons.
    auto inRange = [this](const CalibRange &field) {
        const double v = calib.*field.member;
        return (v >= field.lo) & (v <= field.hi);
    };
    bool all_in_range = true;
    for (const CalibRange &field : kCalibRanges)
        all_in_range &= inRange(field);
    if (all_in_range)
        return errors;
    for (const CalibRange &field : kCalibRanges) {
        if (inRange(field))
            continue;
        std::ostringstream oss;
        oss << "calib." << field.name << " must be " << field.rule
            << ", got " << calib.*field.member;
        errors.push_back(oss.str());
    }
    return errors;
}

} // namespace smartinf::train
