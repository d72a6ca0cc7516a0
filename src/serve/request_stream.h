/**
 * @file
 * Deterministic request generation. All randomness comes from the
 * config's seeded xoshiro PRNGs (open-loop exponential interarrivals;
 * sampled prompt/output lengths) or from the explicit trace, which is
 * what makes serving runs a pure function of their spec: same seed +
 * spec => bit-identical request list => bit-identical latency records.
 *
 * Serving runs draw their requests lazily from RequestSource
 * (request_source.h). generateRequestStream() expands a whole ServeConfig
 * into the concrete request list at once; it is the test reference the
 * oracle suite compares RequestSource against, spec by spec.
 *
 * Two independent PRNG streams derive from ServeConfig::seed: arrivals
 * draw from Rng(seed) (exactly the pre-mix behavior), lengths from
 * Rng(lengthSeed(seed)). Consequences, pinned by tests: enabling sampled
 * lengths never perturbs arrival times, and Fixed-length configs draw no
 * length randomness at all.
 */
#ifndef SMARTINF_SERVE_REQUEST_STREAM_H
#define SMARTINF_SERVE_REQUEST_STREAM_H

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "serve/serve_config.h"

namespace smartinf::serve {

/** One request to serve. */
struct RequestSpec {
    int id = 0;            ///< stream position (global across nodes)
    /** Open-loop/trace arrival time. Closed-loop streams leave it 0; the
     *  workload stamps the reactive issue time before submission. */
    Seconds arrival = 0.0;
    int prompt_tokens = 0;
    int output_tokens = 0;
    /** Shared system prompt this request carries (-1 = none). Assigned
     *  pre-sim from the prefix stream when the config shares prefixes. */
    int prefix_id = -1;
    /** Leading prompt tokens the shared prefix covers (already clamped
     *  to prompt_tokens; 0 when prefix_id is -1). */
    int prefix_tokens = 0;
    /** Dispatch attempt (0 = first try). Bumped by the failover path each
     *  time a displaced request is re-dispatched; always 0 without
     *  faults. */
    int attempt = 0;
    /** SLO-admission defers this request has consumed (control plane
     *  only; always 0 otherwise). */
    int deferrals = 0;
};

/** The length-stream seed derived from @p seed (distinct from the arrival
 *  stream so sampling lengths never changes arrivals). */
std::uint64_t lengthSeed(std::uint64_t seed);

/** The prefix-assignment seed derived from @p seed (third independent
 *  stream: enabling prefix sharing perturbs neither arrivals nor
 *  lengths). */
std::uint64_t prefixSeed(std::uint64_t seed);

/** The burst-episode seed derived from @p seed (sixth independent stream,
 *  after arrivals, lengths, prefixes, faults, and ctrl: burst boundaries
 *  never consume accept/reject draws from the arrival stream). */
std::uint64_t burstSeed(std::uint64_t seed);

/**
 * The open-loop arrival process: successive arrival times from the
 * arrival stream Rng(config.seed). Unmodulated configs draw exactly one
 * uniform per arrival (`t += -log(1-u)/rate` — bit-identical to the
 * legacy generator); modulated configs draw by thinning at the envelope
 * rate `arrival_rate * (1+amplitude) * max(1, burst_multiplier)` — one
 * uniform for each candidate gap, one for the accept test — with burst
 * episode boundaries drawn lazily from the independent burst stream.
 *
 * Both generateRequestStream() and the lazy RequestSource drive their
 * arrivals through this one class, which is what makes the two paths
 * bit-identical by construction rather than by parallel maintenance.
 */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(const ServeConfig &config);

    /** The next arrival time (non-decreasing across calls). */
    Seconds next();

    /** Instantaneous arrival rate at simulated time @p t, advancing the
     *  lazy burst-episode alternation (monotone @p t across calls). */
    double rateAt(Seconds t);

  private:
    /** Advance burst alternation so in_burst_ reflects time @p t. */
    void advanceBurst(Seconds t);
    /** One exponential draw with the given mean, from the burst stream. */
    Seconds burstExponential(Seconds mean);

    ArrivalModulationConfig modulation_;
    double base_rate_ = 0.0;
    double envelope_rate_ = 0.0; ///< thinning ceiling (modulated only)
    Rng rng_;                    ///< the arrival stream
    Rng burst_rng_;              ///< the burst stream (modulated only)
    Seconds t_ = 0.0;
    bool in_burst_ = false;
    Seconds next_toggle_ = 0.0;
};

/**
 * One sample from @p dist: the @p fixed_tokens scalar for Fixed (drawing
 * nothing from @p rng), otherwise an integer in
 * [dist.min_tokens, dist.max_tokens]. Callers are RequestSource,
 * generateRequestStream(), and tests.
 */
int sampleLength(Rng &rng, const LengthDistribution &dist, int fixed_tokens);

/**
 * Expand @p config into its request list. Arrivals: trace verbatim;
 * open-loop: num_requests interarrivals from the ArrivalProcess (plain
 * exponential at arrival_rate, or thinned when modulation is enabled);
 * closed-loop: all zero (the workload issues reactively, see
 * ClientMode::ClosedLoop). Lengths: per-request samples from the
 * prompt/output distributions (prompt drawn before output for each id, in
 * id order, from Rng(lengthSeed(config.seed))). Prefix participation from
 * the prefix stream. Arrivals are non-decreasing; ids are stream
 * positions.
 */
std::vector<RequestSpec> generateRequestStream(const ServeConfig &config);

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_REQUEST_STREAM_H
