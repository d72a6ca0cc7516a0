#include "serve/serve_config.h"

#include <cmath>

#include "common/validation.h"

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
LengthDistribution::validate(const std::string &prefix) const
{
    std::vector<std::string> errors;
    if (kind == LengthDistKind::Fixed)
        return errors; // the scalar field is validated by ServeConfig
    requireField(errors, min_tokens >= 1,
                 (prefix + "_lengths.min_tokens must be >= 1").c_str(),
                 min_tokens);
    requireField(errors, max_tokens >= min_tokens,
                 (prefix + "_lengths.max_tokens must be >= min_tokens")
                     .c_str(),
                 max_tokens);
    if (kind == LengthDistKind::Lognormal) {
        // A non-finite parameter draws NaN or inf lengths, which the clamp
        // silently turns into min_tokens or max_tokens.
        requireField(errors, std::isfinite(log_mean),
                     (prefix + "_lengths.log_mean must be finite").c_str(),
                     log_mean);
        requireField(errors, std::isfinite(log_sigma) && log_sigma >= 0.0,
                     (prefix + "_lengths.log_sigma must be finite and >= 0")
                         .c_str(),
                     log_sigma);
    }
    return errors;
}

std::vector<std::string>
KvCacheConfig::validate() const
{
    std::vector<std::string> errors;
    if (!enabled) {
        // The layout is the one knob that is *not* inert when disabled:
        // asking for paged allocation with no KV model is a contradiction,
        // not a normalizable no-op.
        requireField(errors, layout == KvLayout::Contiguous,
                     "kv.layout=paged requires kv.enabled (the paged "
                     "allocator models KV placement; enable the KV model "
                     "or drop the layout override)",
                     kvLayoutName(layout));
        return errors; // remaining fields are inert
    }
    if (layout == KvLayout::Paged)
        requireField(errors, block_tokens >= 1,
                     "kv.block_tokens must be >= 1 under the paged layout "
                     "(tokens per KV page)",
                     block_tokens);
    requireField(errors, !(prefix.enabled() && layout == KvLayout::Contiguous),
                 "kv.prefix sharing requires kv.layout=paged (only "
                 "per-request block tables can map shared pages; set "
                 "kv.layout = KvLayout::Paged or clear "
                 "kv.prefix.share_fraction)",
                 prefix.share_fraction);
    if (layout == KvLayout::Paged) {
        requireField(errors,
                     prefix.share_fraction >= 0.0 &&
                         prefix.share_fraction <= 1.0,
                     "kv.prefix.share_fraction must be in [0, 1] (the "
                     "probability a request carries a shared prefix)",
                     prefix.share_fraction);
        if (prefix.enabled()) {
            requireField(errors, prefix.num_prefixes >= 1,
                         "kv.prefix.num_prefixes must be >= 1 when prefix "
                         "sharing is enabled",
                         prefix.num_prefixes);
            requireField(errors, prefix.prefix_tokens >= 1,
                         "kv.prefix.prefix_tokens must be >= 1 when prefix "
                         "sharing is enabled",
                         prefix.prefix_tokens);
        }
    }
    // A non-finite budget models nothing sensible: it has no whole-page
    // count.
    requireField(errors, std::isfinite(hbm_budget) && hbm_budget > 0.0,
                 "kv.hbm_budget must be finite and positive when KV "
                 "modeling is enabled: a zero budget cannot hold even one "
                 "decode step's working set (disable kv instead)",
                 hbm_budget);
    requireField(errors, std::isfinite(host_budget) && host_budget > 0.0,
                 "kv.host_budget must be finite and positive when KV "
                 "modeling is enabled (use a large budget to disable CSD "
                 "spill)",
                 host_budget);
    return errors;
}

std::vector<std::string>
ServeConfig::validate() const
{
    std::vector<std::string> errors;
    if (client_mode == ClientMode::ClosedLoop) {
        requireField(errors, num_requests >= 1,
                     "num_requests must be >= 1", num_requests);
        requireField(errors, concurrency >= 1,
                     "concurrency must be >= 1 in closed-loop mode",
                     concurrency);
        requireField(errors, std::isfinite(think_time) && think_time >= 0.0,
                     "think_time must be finite and >= 0", think_time);
        requireField(errors, trace.empty(),
                     "a trace cannot drive closed-loop clients (arrivals "
                     "are reactive); clear trace or use open-loop mode",
                     trace.size());
    } else if (trace.empty()) {
        requireField(errors, num_requests >= 1,
                     "num_requests must be >= 1", num_requests);
        requireField(errors, std::isfinite(arrival_rate) && arrival_rate > 0.0,
                     "arrival_rate must be finite and positive",
                     arrival_rate);
    } else {
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
    if (prompt_lengths.kind == LengthDistKind::Fixed)
        requireField(errors, prompt_tokens >= 1,
                     "prompt_tokens must be >= 1", prompt_tokens);
    if (output_lengths.kind == LengthDistKind::Fixed)
        requireField(errors, output_tokens >= 1,
                     "output_tokens must be >= 1", output_tokens);
    for (auto &e : prompt_lengths.validate("prompt"))
        errors.push_back(std::move(e));
    for (auto &e : output_lengths.validate("output"))
        errors.push_back(std::move(e));
    if (modulation.enabled) {
        requireField(errors, client_mode == ClientMode::OpenLoop,
                     "modulation requires open-loop arrivals (closed-loop "
                     "issue times are reactive, there is no arrival rate "
                     "to modulate)",
                     clientModeName(client_mode));
        requireField(errors, trace.empty(),
                     "modulation cannot apply to an explicit trace (the "
                     "trace already is the arrival process); clear trace "
                     "or drop modulation",
                     trace.size());
        requireField(errors,
                     modulation.diurnal_amplitude > 0.0 ||
                         modulation.burst_rate_multiplier > 1.0,
                     "modulation.enabled with neither a diurnal amplitude "
                     "nor a burst multiplier is a contradiction, not a "
                     "no-op (thinning changes the draw sequence); disable "
                     "modulation or arm a component",
                     modulation.diurnal_amplitude);
        requireField(errors,
                     modulation.diurnal_amplitude >= 0.0 &&
                         modulation.diurnal_amplitude < 1.0,
                     "modulation.diurnal_amplitude must be in [0, 1) (the "
                     "instantaneous rate must stay positive)",
                     modulation.diurnal_amplitude);
        if (modulation.diurnal_amplitude > 0.0)
            requireField(errors, modulation.diurnal_period_s > 0.0,
                         "modulation.diurnal_period_s must be positive "
                         "when the diurnal component is armed",
                         modulation.diurnal_period_s);
        // Thinning accepts a candidate with probability rate/envelope: an
        // infinite multiplier makes that ratio 0 or NaN, and generation
        // would never end.
        requireField(errors,
                     std::isfinite(modulation.burst_rate_multiplier) &&
                         modulation.burst_rate_multiplier >= 1.0,
                     "modulation.burst_rate_multiplier must be finite and "
                     ">= 1 (bursts raise the rate; 1 disables them)",
                     modulation.burst_rate_multiplier);
        if (modulation.burst_rate_multiplier > 1.0) {
            requireField(errors, modulation.burst_mean_gap_s > 0.0,
                         "modulation.burst_mean_gap_s must be positive "
                         "when bursts are armed",
                         modulation.burst_mean_gap_s);
            requireField(errors, modulation.burst_mean_duration_s > 0.0,
                         "modulation.burst_mean_duration_s must be "
                         "positive when bursts are armed",
                         modulation.burst_mean_duration_s);
        }
    }
    requireField(errors, record_cap >= 0,
                 "record_cap must be >= 0 (0 keeps every record)",
                 record_cap);
    if (record_cap > 0)
        requireField(errors,
                     std::isfinite(stream_window_s) && stream_window_s > 0.0,
                     "stream_window_s must be finite and positive when "
                     "record_cap bounds the retained records",
                     stream_window_s);
    requireField(errors, max_batch >= 1, "max_batch must be >= 1",
                 max_batch);
    requireField(errors,
                 weight_wire_fraction > 0.0 && weight_wire_fraction <= 1.0,
                 "weight_wire_fraction must be in (0, 1]",
                 weight_wire_fraction);
    for (auto &e : kv.validate())
        errors.push_back(std::move(e));
    for (auto &e : fault.validate())
        errors.push_back(std::move(e));
    for (auto &e : ctrl.validate())
        errors.push_back(std::move(e));
    return errors;
}

} // namespace smartinf::serve
