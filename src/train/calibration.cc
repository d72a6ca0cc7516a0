#include "train/calibration.h"

namespace smartinf::train {

const Calibration &
Calibration::defaults()
{
    static const Calibration defaults{};
    return defaults;
}

} // namespace smartinf::train
