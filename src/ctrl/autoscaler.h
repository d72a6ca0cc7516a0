/**
 * @file
 * The queue-driven autoscale controller: windowed signal accumulation plus
 * the hysteretic scale-up/scale-down decision of AutoscaleConfig. Pure
 * decision state — the serve layer samples fleet load into it and asks
 * for a verdict once per window tick;
 * warming-up, draining, and retiring replicas are the caller's job (they
 * involve the simulator). Draw-free: autoscaling alone never consumes the
 * ctrl stream.
 */
#ifndef SMARTINF_CTRL_AUTOSCALER_H
#define SMARTINF_CTRL_AUTOSCALER_H

#include "common/units.h"
#include "ctrl/ctrl_config.h"

namespace smartinf::ctrl {

/** What the autoscaler wants done at a window boundary. */
enum class ScaleAction { None, ScaleUp, ScaleDown };

class Autoscaler {
  public:
    explicit Autoscaler(const AutoscaleConfig &config) : config_(config)
    {
        // Allow a decision in the very first window: pre-history counts as
        // a satisfied cooldown, not a blocking one.
        last_action_ = -config_.cooldown_s;
    }

    /** Accumulate one load sample: total queued+running across the fleet
     *  over the currently active replica count. Sampled at every dispatch
     *  and at each tick, so an idle window still has one sample. */
    void sampleLoad(int fleet_load, int active_replicas)
    {
        load_sum_ += static_cast<double>(fleet_load) /
                     static_cast<double>(active_replicas < 1 ? 1
                                                             : active_replicas);
        ++load_samples_;
    }

    /** Windowed mean load per active replica (0 with no samples). */
    double windowLoad() const
    {
        return load_samples_ ? load_sum_ / load_samples_ : 0.0;
    }

    /**
     * Evaluate at a window boundary and reset the window. `active` counts
     * replicas serving dispatches (draining replicas are already excluded:
     * they still hold work but take no dispatches, so they do not count
     * toward the floor), `warming` replicas mid warm-up (they count
     * against max_replicas — a burst cannot queue up more warm-ups than
     * the ceiling).
     */
    ScaleAction evaluate(Seconds now, int active, int warming)
    {
        const double load = windowLoad();
        load_sum_ = 0.0;
        load_samples_ = 0;
        if (!config_.enabled || now - last_action_ < config_.cooldown_s)
            return ScaleAction::None;
        if (load > config_.scale_up_depth &&
            active + warming < config_.max_replicas) {
            last_action_ = now;
            return ScaleAction::ScaleUp;
        }
        if (load < config_.scale_down_depth && warming == 0 &&
            active > config_.min_replicas) {
            last_action_ = now;
            return ScaleAction::ScaleDown;
        }
        return ScaleAction::None;
    }

  private:
    AutoscaleConfig config_;
    Seconds last_action_ = 0.0;
    double load_sum_ = 0.0;
    int load_samples_ = 0;
};

} // namespace smartinf::ctrl

#endif // SMARTINF_CTRL_AUTOSCALER_H
