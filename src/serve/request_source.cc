#include "serve/request_source.h"

#include <algorithm>

#include "common/logging.h"

namespace smartinf::serve {

RequestSource::RequestSource(const ServeConfig &config)
    : config_(config), arrivals_(config),
      length_rng_(lengthSeed(config.seed)),
      prefix_rng_(prefixSeed(config.seed)),
      samples_lengths_(config.samplesLengths()),
      shares_prefixes_(config.sharesPrefixes()),
      total_(config.streamSize())
{
}

RequestSpec
RequestSource::next()
{
    SI_ASSERT(!done(), "RequestSource::next() past the end of the stream");
    RequestSpec request;
    request.id = next_id_++;
    request.prompt_tokens = config_.prompt_tokens;
    request.output_tokens = config_.output_tokens;

    // The three per-request draws, in the reference generator's pass
    // order. Each pass owns an independent derived stream, so per-request
    // interleaving across passes still consumes every stream in exactly
    // the per-pass order — the whole bit-identity argument in one line.
    if (config_.client_mode == ClientMode::ClosedLoop)
        request.arrival = 0.0;
    else if (!config_.trace.empty())
        request.arrival = config_.trace[request.id];
    else
        request.arrival = arrivals_.next();

    if (samples_lengths_) {
        request.prompt_tokens = sampleLength(
            length_rng_, config_.prompt_lengths, config_.prompt_tokens);
        request.output_tokens = sampleLength(
            length_rng_, config_.output_lengths, config_.output_tokens);
    }

    if (shares_prefixes_) {
        const auto &prefix = config_.kv.prefix;
        if (prefix_rng_.uniform() < prefix.share_fraction) {
            request.prefix_id =
                prefix.num_prefixes == 1
                    ? 0
                    : static_cast<int>(prefix_rng_.uniformInt(
                          static_cast<std::uint64_t>(prefix.num_prefixes)));
            request.prefix_tokens =
                std::min(prefix.prefix_tokens, request.prompt_tokens);
        }
    }
    return request;
}

} // namespace smartinf::serve
