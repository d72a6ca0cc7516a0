#include "fault/fault_config.h"

#include <cmath>

#include "common/validation.h"

namespace smartinf::fault {

std::vector<std::string>
FaultConfig::validate() const
{
    std::vector<std::string> errors;
    if (!enabled)
        return errors; // every field is inert while disabled

    requireField(errors, std::isfinite(horizon) && horizon > 0.0,
                 "fault.horizon must be finite and positive (the window "
                 "fault events are drawn over)",
                 horizon);
    requireField(errors, node_mtbf > 0.0,
                 "fault.node_mtbf must be positive (use FaultConfig::kNever "
                 "to disable node crashes)",
                 node_mtbf);
    requireField(errors, degrade_mtbf > 0.0,
                 "fault.degrade_mtbf must be positive (use "
                 "FaultConfig::kNever to disable link degradation)",
                 degrade_mtbf);
    if (degradeFaults()) {
        requireField(errors, degrade_factor > 0.0 && degrade_factor <= 1.0,
                     "fault.degrade_factor must be in (0, 1] (a zero "
                     "capacity would starve the max-min scheduler)",
                     degrade_factor);
        requireField(errors, degrade_duration > 0.0,
                     "fault.degrade_duration must be positive",
                     degrade_duration);
    }
    if (nodeFaults())
        requireField(errors, std::isfinite(repair_time) && repair_time > 0.0,
                     "fault.repair_time must be finite and positive (how "
                     "long a crashed node stays down)",
                     repair_time);
    requireField(errors, retry_limit >= 0,
                 "fault.retry_limit must be >= 0 (0 = shed displaced "
                 "requests immediately)",
                 retry_limit);
    requireField(errors, num_iterations > 0,
                 "fault.num_iterations must be >= 1 (iterations the "
                 "checkpointed training run completes)",
                 num_iterations);
    requireField(errors, checkpoint_interval > 0,
                 "fault.checkpoint_interval must be >= 1 (iterations "
                 "between durable checkpoints)",
                 checkpoint_interval);
    return errors;
}

} // namespace smartinf::fault
