/**
 * @file
 * Pre-sim fault schedule generation. All fault randomness is drawn before
 * the simulation starts, from the fourth derived PRNG stream
 * (faultSeed()) — the same pattern as the arrival (Rng(seed)), length
 * (lengthSeed) and prefix (prefixSeed) streams, pinned by the same kind of
 * tests: enabling faults never moves an arrival, a sampled length, or a
 * prefix assignment, and each fault *category* draws from its own derived
 * sub-stream, so arming link degradation never moves a node crash.
 *
 * Also the link side of a fault episode, shared by the training and
 * serving fault paths: LinkEpisodes degrades the host links a link
 * degradation targets and restores them when the episode ends.
 */
#ifndef SMARTINF_FAULT_FAULT_SCHEDULE_H
#define SMARTINF_FAULT_FAULT_SCHEDULE_H

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault_config.h"

namespace smartinf::net {
class Link;
}
namespace smartinf::train {
struct SimContext;
}

namespace smartinf::fault {

/** What failed (declaration order is the schedule's tie-break order). */
enum class FaultKind {
    NodeCrash,  ///< whole replica/node down for repair_time
    LinkDegrade ///< interconnect capacity × degrade_factor for a while
};

/** Stable lowercase name ("node-crash"/"link-degrade"). */
const char *faultKindName(FaultKind kind);

/** One timed fault event, fully determined pre-sim. */
struct FaultEvent {
    Seconds time = 0.0;
    FaultKind kind = FaultKind::NodeCrash;
    int node = 0; ///< target node in [0, num_nodes)
    /** Capacity multiplier while the fault holds (LinkDegrade; 1.0
     *  otherwise). */
    double factor = 1.0;
    /** How long the fault holds before the matching restore: episode
     *  length for LinkDegrade, repair_time for crashes. */
    Seconds duration = 0.0;
};

/** The fault-stream seed derived from @p seed (fourth independent stream
 *  after arrivals, lengths, and prefixes). */
std::uint64_t faultSeed(std::uint64_t seed);

/**
 * Draw the full fault schedule for one run: per category (in FaultKind
 * order, each from its own sub-derived stream) exponential inter-fault gaps
 * at the category's MTBF until config.horizon, each event targeting a
 * uniformly drawn node. The result is stable-sorted by (time, kind,
 * node) — the deterministic order
 * drivers arm their sim events in. Empty when disabled or no category is
 * armed.
 */
std::vector<FaultEvent> generateFaultSchedule(const FaultConfig &config,
                                              std::uint64_t seed,
                                              int num_nodes);

/**
 * The capacity multipliers of the fault episodes active on one run's links.
 * A LinkDegrade degrades its node's host interconnect (host.up/host.down)
 * by event.factor until the matching end(). Episodes may overlap on a link and
 * end in any order: the link's factor is always the exact product of the
 * active multipliers (never divided back out: x * f / f need not round-trip
 * in IEEE), and the flow network re-shares in-flight flows on every change.
 */
class LinkEpisodes
{
  public:
    explicit LinkEpisodes(train::SimContext &ctx) : ctx_(ctx) {}

    void begin(const FaultEvent &event) { change(event, false); }
    void end(const FaultEvent &event) { change(event, true); }

  private:
    /** The node-prefixed links @p event degrades. */
    std::array<net::Link *, 2> targets(const FaultEvent &event) const;
    /** Push (or, on @p restore, remove) event.factor on each target. */
    void change(const FaultEvent &event, bool restore);

    train::SimContext &ctx_;
    std::map<net::Link *, std::vector<double>> mults_;
};

} // namespace smartinf::fault

#endif // SMARTINF_FAULT_FAULT_SCHEDULE_H
