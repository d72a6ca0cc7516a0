#include "serve/request_stream.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"

namespace smartinf::serve {

std::uint64_t
lengthSeed(std::uint64_t seed)
{
    // Any fixed non-zero perturbation works; golden-ratio increment keeps
    // the derived stream decorrelated from the arrival stream even for
    // adjacent user seeds.
    return seed ^ 0x9e3779b97f4a7c15ull;
}

std::uint64_t
prefixSeed(std::uint64_t seed)
{
    // Distinct fixed perturbation (byte-swapped golden ratio) so the
    // prefix stream is independent of both the arrival and length streams.
    return seed ^ 0x7c159e3779b94a7full;
}

std::uint64_t
burstSeed(std::uint64_t seed)
{
    // Sixth derived stream (after arrivals, lengths, prefixes, faults,
    // ctrl); rotated golden-ratio bytes, distinct from every other
    // perturbation constant in the family.
    return seed ^ 0x159e3779b97f4a7cull;
}

ArrivalProcess::ArrivalProcess(const ServeConfig &config)
    : modulation_(config.modulation), base_rate_(config.arrival_rate),
      rng_(config.seed), burst_rng_(burstSeed(config.seed))
{
    const double burst_ceiling =
        std::max(1.0, modulation_.burst_rate_multiplier);
    envelope_rate_ =
        base_rate_ * (1.0 + modulation_.diurnal_amplitude) * burst_ceiling;
    // The first episode starts one drawn gap in. The burst stream is the
    // episodes' own, so drawing it up front moves no arrival.
    if (modulation_.bursts())
        next_toggle_ = burstExponential(modulation_.burst_mean_gap_s);
}

Seconds
ArrivalProcess::burstExponential(Seconds mean)
{
    return -std::log(1.0 - burst_rng_.uniform()) * mean;
}

void
ArrivalProcess::advanceBurst(Seconds t)
{
    if (!modulation_.bursts())
        return;
    while (next_toggle_ <= t) {
        in_burst_ = !in_burst_;
        next_toggle_ += burstExponential(
            in_burst_ ? modulation_.burst_mean_duration_s
                      : modulation_.burst_mean_gap_s);
    }
}

double
ArrivalProcess::rateAt(Seconds t)
{
    double rate = base_rate_;
    if (modulation_.diurnal())
        rate *= 1.0 +
                modulation_.diurnal_amplitude *
                    std::sin(2.0 * M_PI * t / modulation_.diurnal_period_s);
    advanceBurst(t);
    if (in_burst_)
        rate *= modulation_.burst_rate_multiplier;
    return rate;
}

Seconds
ArrivalProcess::next()
{
    if (!modulation_.enabled) {
        // Exponential interarrival; 1 - uniform() is in (0, 1] so the log
        // is finite. Exactly one uniform per arrival — byte-identical to
        // every pre-modulation stream.
        t_ += -std::log(1.0 - rng_.uniform()) / base_rate_;
        return t_;
    }
    // Thinning (Lewis-Shedler): candidate gaps at the constant envelope
    // rate, accepted with probability rate(t)/envelope. The candidate and
    // accept draws both come from the arrival stream, in a fixed order,
    // so the modulated process is as deterministic as the plain one.
    for (;;) {
        t_ += -std::log(1.0 - rng_.uniform()) / envelope_rate_;
        if (rng_.uniform() * envelope_rate_ < rateAt(t_))
            return t_;
    }
}

int
sampleLength(Rng &rng, const LengthDistribution &dist, int fixed_tokens)
{
    switch (dist.kind) {
      case LengthDistKind::Fixed:
        return fixed_tokens;
      case LengthDistKind::Uniform: {
        const std::uint64_t span =
            static_cast<std::uint64_t>(dist.max_tokens - dist.min_tokens) + 1;
        return dist.min_tokens + static_cast<int>(rng.uniformInt(span));
      }
      case LengthDistKind::Lognormal: {
        const double raw =
            std::exp(rng.normal(dist.log_mean, dist.log_sigma));
        // Clamp in double space first: extreme tail draws can exceed
        // INT_MAX, and a narrowing cast before the clamp would wrap them
        // to the *minimum* instead of the ceiling.
        const double bounded =
            std::min(raw, static_cast<double>(dist.max_tokens));
        const int rounded = static_cast<int>(std::lround(bounded));
        return std::clamp(rounded, dist.min_tokens, dist.max_tokens);
      }
    }
    SI_ASSERT(false, "unknown length distribution kind");
    return fixed_tokens;
}

std::vector<RequestSpec>
generateRequestStream(const ServeConfig &config)
{
    std::vector<RequestSpec> stream;
    const int n = config.streamSize();
    stream.reserve(n);

    // Arrivals first, from the arrival stream only — bit-identical to the
    // fixed-length-era generator for any length configuration.
    if (config.client_mode == ClientMode::ClosedLoop) {
        for (int i = 0; i < n; ++i)
            stream.push_back({i, 0.0, config.prompt_tokens,
                              config.output_tokens});
    } else if (!config.trace.empty()) {
        for (int i = 0; i < n; ++i)
            stream.push_back({i, config.trace[i], config.prompt_tokens,
                              config.output_tokens});
    } else {
        ArrivalProcess arrivals(config);
        for (int i = 0; i < n; ++i)
            stream.push_back({i, arrivals.next(), config.prompt_tokens,
                              config.output_tokens});
    }

    // Lengths second, from the independent length stream; Fixed configs
    // skip the PRNG entirely (and already hold the scalar values).
    if (config.samplesLengths()) {
        Rng rng(lengthSeed(config.seed));
        for (RequestSpec &request : stream) {
            request.prompt_tokens = sampleLength(
                rng, config.prompt_lengths, config.prompt_tokens);
            request.output_tokens = sampleLength(
                rng, config.output_lengths, config.output_tokens);
        }
    }

    // Prefix assignment third, from its own stream, after lengths are
    // final (the shared span clamps to the request's sampled prompt). One
    // uniform per request decides participation; the prefix pick draws
    // only for participants, in id order — stable per position.
    if (config.sharesPrefixes()) {
        Rng rng(prefixSeed(config.seed));
        const auto &prefix = config.kv.prefix;
        for (RequestSpec &request : stream) {
            if (rng.uniform() >= prefix.share_fraction)
                continue;
            request.prefix_id =
                prefix.num_prefixes == 1
                    ? 0
                    : static_cast<int>(rng.uniformInt(
                          static_cast<std::uint64_t>(prefix.num_prefixes)));
            request.prefix_tokens =
                std::min(prefix.prefix_tokens, request.prompt_tokens);
        }
    }
    return stream;
}

} // namespace smartinf::serve
