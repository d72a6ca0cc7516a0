#include "fault/fault_config.h"

namespace smartinf::fault {

std::vector<std::string>
FaultConfig::validate() const
{
    std::vector<std::string> errors;
    FieldValidator check(errors);
    block(check, "fault", *this, true);
    return errors;
}

} // namespace smartinf::fault
