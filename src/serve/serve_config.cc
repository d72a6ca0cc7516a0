#include "serve/serve_config.h"

#include <cmath>

namespace smartinf::serve {

const char *
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Fifo: return "fifo";
      case SchedulerPolicy::Continuous: return "continuous";
    }
    return "?";
}

std::vector<SchedulerPolicy>
allSchedulerPolicies()
{
    return {SchedulerPolicy::Fifo, SchedulerPolicy::Continuous};
}

const char *
clientModeName(ClientMode mode)
{
    switch (mode) {
      case ClientMode::OpenLoop: return "open-loop";
      case ClientMode::ClosedLoop: return "closed-loop";
    }
    return "?";
}

const char *
lengthDistKindName(LengthDistKind kind)
{
    switch (kind) {
      case LengthDistKind::Fixed: return "fixed";
      case LengthDistKind::Uniform: return "uniform";
      case LengthDistKind::Lognormal: return "lognormal";
    }
    return "?";
}

const char *
kvLayoutName(KvLayout layout)
{
    switch (layout) {
      case KvLayout::Contiguous: return "contiguous";
      case KvLayout::Paged: return "paged";
    }
    return "?";
}

std::vector<std::string>
ServeConfig::validate() const
{
    std::vector<std::string> errors;
    FieldValidator check(errors);
    walkFields(check, *this, ServeScope{});
    if (client_mode == ClientMode::OpenLoop) {
        for (std::size_t i = 0; i < trace.size(); ++i) {
            // A NaN slips past both comparisons and +inf past all of them;
            // either would reach the event queue as a simulated time.
            if (!std::isfinite(trace[i]) || trace[i] < 0.0 ||
                (i > 0 && trace[i] < trace[i - 1])) {
                errors.push_back(
                    "trace arrivals must be finite, non-negative and "
                    "non-decreasing");
                break;
            }
        }
    }
    for (auto &e : fault.validate())
        errors.push_back(std::move(e));
    return errors;
}

} // namespace smartinf::serve
