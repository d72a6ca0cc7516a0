#include "ctrl/ctrl_config.h"

#include <cmath>

#include "common/validation.h"

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
SloConfig::validate() const
{
    std::vector<std::string> errors;
    if (!enabled())
        return errors; // remaining fields are inert
    requireField(errors, target_p99_s > 0.0,
                 "ctrl.slo.target_p99_s must be positive when admission "
                 "control is armed (it is the SLO being admitted against)",
                 target_p99_s);
    if (admission == AdmissionMode::Defer) {
        requireField(errors,
                     std::isfinite(defer_delay_s) && defer_delay_s > 0.0,
                     "ctrl.slo.defer_delay_s must be finite and positive "
                     "under Defer (a zero delay would re-try admission in "
                     "the same instant it just failed)",
                     defer_delay_s);
        requireField(errors, max_defers >= 1,
                     "ctrl.slo.max_defers must be >= 1 under Defer (use "
                     "AdmissionMode::Reject for zero defers)",
                     max_defers);
    }
    return errors;
}

std::vector<std::string>
AutoscaleConfig::validate() const
{
    std::vector<std::string> errors;
    if (!enabled)
        return errors; // remaining fields are inert
    requireField(errors, min_replicas >= 1,
                 "ctrl.autoscale.min_replicas must be >= 1 (the fleet "
                 "cannot scale to zero replicas)",
                 min_replicas);
    requireField(errors, max_replicas >= min_replicas,
                 "ctrl.autoscale.max_replicas must be >= min_replicas",
                 max_replicas);
    requireField(errors, window_s > 0.0,
                 "ctrl.autoscale.window_s must be positive (it is both the "
                 "signal window and the evaluation period)",
                 window_s);
    requireField(errors, cooldown_s >= 0.0,
                 "ctrl.autoscale.cooldown_s must be >= 0", cooldown_s);
    requireField(errors, scale_up_depth > scale_down_depth,
                 "ctrl.autoscale.scale_up_depth must exceed "
                 "scale_down_depth (a non-hysteretic band would oscillate "
                 "every window)",
                 scale_up_depth);
    requireField(errors, scale_down_depth >= 0.0,
                 "ctrl.autoscale.scale_down_depth must be >= 0",
                 scale_down_depth);
    return errors;
}

std::vector<std::string>
CtrlConfig::validate() const
{
    std::vector<std::string> errors;
    if (!enabled) {
        // Like kv.layout, the feature switches are not inert when the
        // master switch is off: asking for admission control or
        // autoscaling with no control plane is a contradiction, not a
        // normalizable no-op.
        requireField(errors, !slo.enabled(),
                     "ctrl.slo.admission requires ctrl.enabled (admission "
                     "control runs inside the control plane; enable it or "
                     "reset the admission mode)",
                     admissionModeName(slo.admission));
        requireField(errors, !autoscale.enabled,
                     "ctrl.autoscale.enabled requires ctrl.enabled",
                     autoscale.enabled);
        return errors;
    }
    for (auto &e : slo.validate())
        errors.push_back(std::move(e));
    for (auto &e : autoscale.validate())
        errors.push_back(std::move(e));
    return errors;
}

} // namespace smartinf::ctrl
