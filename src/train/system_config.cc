#include "train/system_config.h"

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
    // Engine's constructor runs this inside the timed set-up: a valid
    // config is one pass of plain comparisons.
    std::vector<std::string> errors;
    FieldValidator check(errors);
    walkFields(check, *this, true);
    return errors;
}

} // namespace smartinf::train
