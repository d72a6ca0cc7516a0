/**
 * @file
 * Lazy request generation, and the only way a serving run obtains its
 * requests: a pull iterator over the derived PRNG streams. Because each
 * generation pass (arrivals, lengths, prefixes) draws from its *own*
 * seeded Rng, drawing all three per-request — in id order, one
 * request at a time — consumes each stream in exactly the order the
 * reference generateRequestStream() passes do, so the sequence of
 * RequestSpecs is bit-identical to that vector by construction (and
 * pinned by the test_request_source oracle suite). This is what lets
 * serving runs scale to 10^5–10^6 requests with O(in-flight) memory: no
 * stream vector exists at all, in open-loop, trace, or closed-loop mode.
 */
#ifndef SMARTINF_SERVE_REQUEST_SOURCE_H
#define SMARTINF_SERVE_REQUEST_SOURCE_H

#include "serve/request_stream.h"

namespace smartinf::serve {

/**
 * Draws the finite request stream of @p config one RequestSpec at a time.
 * next() must be called exactly streamSize() times, in order; each call
 * returns the spec generateRequestStream() would have placed at that id.
 * Trace arrivals are read from the config's trace verbatim; closed-loop
 * arrivals are 0 (reactive issue times, stamped by the workload).
 */
class RequestSource
{
  public:
    explicit RequestSource(const ServeConfig &config);

    /** Requests the stream will contain (== ServeConfig::streamSize()). */
    int total() const { return total_; }

    /** Requests already drawn. */
    int emitted() const { return next_id_; }

    /** True when the stream is exhausted. */
    bool done() const { return next_id_ >= total_; }

    /** Draw the next request. @pre !done(). */
    RequestSpec next();

  private:
    ServeConfig config_; ///< by value: the source outlives sweep specs
    ArrivalProcess arrivals_;
    Rng length_rng_;
    Rng prefix_rng_;
    bool samples_lengths_ = false;
    bool shares_prefixes_ = false;
    int total_ = 0;
    int next_id_ = 0;
};

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_REQUEST_SOURCE_H
