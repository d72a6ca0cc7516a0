#include "train/system_config.h"

#include <cmath>
#include <sstream>

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
        requireField(errors, std::isfinite(nic_latency) && nic_latency >= 0.0,
                     "nic_latency must be finite and >= 0", nic_latency);
    }
    // Engine's constructor runs this inside the timed set-up, so the
    // all-valid case is one branch-free pass of plain comparisons.
    auto inRange = [this](const CalibrationField &field) {
        const double v = calib.*field.member;
        return (v >= field.lo) & (v <= field.hi);
    };
    bool all_in_range = true;
    for (const CalibrationField &field : calibrationFields())
        all_in_range &= inRange(field);
    if (all_in_range)
        return errors;
    for (const CalibrationField &field : calibrationFields()) {
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
