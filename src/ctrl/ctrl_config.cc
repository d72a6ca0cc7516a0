#include "ctrl/ctrl_config.h"

namespace smartinf::ctrl {

const char *
dispatchPolicyName(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin: return "round-robin";
      case DispatchPolicy::JoinShortestQueue: return "jsq";
      case DispatchPolicy::PowerOfTwoChoices: return "p2c";
    }
    return "?";
}

std::vector<DispatchPolicy>
allDispatchPolicies()
{
    return {DispatchPolicy::RoundRobin, DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::PowerOfTwoChoices};
}

const char *
admissionModeName(AdmissionMode mode)
{
    switch (mode) {
      case AdmissionMode::Off: return "off";
      case AdmissionMode::Reject: return "reject";
      case AdmissionMode::Defer: return "defer";
    }
    return "?";
}

std::vector<AdmissionMode>
allAdmissionModes()
{
    return {AdmissionMode::Off, AdmissionMode::Reject, AdmissionMode::Defer};
}

std::vector<std::string>
CtrlConfig::validate() const
{
    std::vector<std::string> errors;
    FieldValidator check(errors);
    block(check, "ctrl", *this);
    return errors;
}

} // namespace smartinf::ctrl
