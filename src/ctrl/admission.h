/**
 * @file
 * SLO-aware admission control: an observable-driven latency predictor plus
 * the reject/defer decision procedure around it. Pure decision state — the
 * serve layer feeds it observed step times and asks for a verdict at each
 * dispatch; it schedules nothing and draws nothing (admission is entirely
 * deterministic given the event order, so enabling it never revives the
 * seed in the RunSpec hash).
 */
#ifndef SMARTINF_CTRL_ADMISSION_H
#define SMARTINF_CTRL_ADMISSION_H

#include "common/units.h"
#include "ctrl/ctrl_config.h"

namespace smartinf::ctrl {

/** The three dispositions SLO admission can hand a request. */
enum class AdmissionDecision { Admit, Defer, Reject };

/**
 * The latency-SLO admission model of SloConfig: predicted latency is
 * (now - arrival) + (load + 1 + output_tokens) * s, where the step
 * estimate s is an EWMA over observed scheduler step durations (alpha
 * 1/4 — heavy enough smoothing to ride out the prefill/decode step-time
 * bimodality, light enough to track load shifts within a few steps).
 */
class SloAdmission {
  public:
    explicit SloAdmission(const SloConfig &config) : config_(config) {}

    /** Fold one observed scheduler step duration into the estimate. */
    void noteStepTime(Seconds dt)
    {
        step_estimate_ =
            observed_ ? 0.75 * step_estimate_ + 0.25 * dt : dt;
        observed_ = true;
    }

    /**
     * Decide a request's fate at dispatch time.
     *
     * @param now            dispatch time
     * @param arrival        the request's arrival time (deferred requests
     *                       accumulate waiting time against the SLO)
     * @param output_tokens  decode steps the request still needs
     * @param load           queued+running at the chosen replica
     * @param deferrals      defers this request has already consumed
     */
    AdmissionDecision decide(Seconds now, Seconds arrival, int output_tokens,
                             int load, int deferrals) const
    {
        if (!config_.enabled() || !observed_)
            return AdmissionDecision::Admit; // optimistic cold start
        const Seconds predicted =
            (now - arrival) +
            static_cast<double>(load + 1 + output_tokens) * step_estimate_;
        if (predicted <= config_.target_p99_s)
            return AdmissionDecision::Admit;
        if (config_.admission == AdmissionMode::Defer &&
            deferrals < config_.max_defers)
            return AdmissionDecision::Defer;
        return AdmissionDecision::Reject;
    }

  private:
    SloConfig config_;
    Seconds step_estimate_ = 0.0;
    bool observed_ = false;
};

} // namespace smartinf::ctrl

#endif // SMARTINF_CTRL_ADMISSION_H
