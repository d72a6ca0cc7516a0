#include "fault/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "train/sim_context.h"
#include "train/system_builder.h"

namespace smartinf::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::NodeCrash: return "node-crash";
      case FaultKind::LinkDegrade: return "link-degrade";
    }
    return "?";
}

std::uint64_t
faultSeed(std::uint64_t seed)
{
    // Fourth derived stream: another fixed permutation of the golden-ratio
    // bytes, distinct from lengthSeed (^0x9e3779b97f4a7c15) and prefixSeed
    // (^0x7c159e3779b94a7f).
    return seed ^ 0x4a7f9e37c15579b9ull;
}

namespace {

/** Arm one category: exponential gaps at @p mtbf until the horizon. Each
 *  category draws from its own sub-derived stream, keyed by @p stream, so
 *  arming one never moves another's events. */
void
drawCategory(std::vector<FaultEvent> &out, const FaultConfig &config,
             std::uint64_t base, std::uint64_t stream, FaultKind kind,
             Seconds mtbf, double factor, Seconds duration, int num_nodes)
{
    if (!(mtbf < FaultConfig::kNever))
        return;
    Rng rng(base ^ (0x9e3779b97f4a7c15ull * stream));
    Seconds t = 0.0;
    for (;;) {
        t += -mtbf * std::log(1.0 - rng.uniform());
        if (!(t < config.horizon))
            break;
        FaultEvent event;
        event.time = t;
        event.kind = kind;
        event.node = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(num_nodes)));
        event.factor = factor;
        event.duration = duration;
        out.push_back(event);
    }
}

} // namespace

std::vector<FaultEvent>
generateFaultSchedule(const FaultConfig &config, std::uint64_t seed,
                      int num_nodes)
{
    std::vector<FaultEvent> events;
    if (!config.enabled || !config.anyFaults())
        return events;
    SI_REQUIRE(num_nodes >= 1, "fault schedule needs at least one node");

    // The sub-stream keys are fixed literals, not derived from FaultKind: a
    // key selects a category's whole draw sequence, and every pinned
    // schedule and fault-mode result was drawn with crash 1, degrade 3.
    const std::uint64_t base = faultSeed(seed);
    drawCategory(events, config, base, 1, FaultKind::NodeCrash,
                 config.node_mtbf, 1.0, config.repair_time, num_nodes);
    drawCategory(events, config, base, 3, FaultKind::LinkDegrade,
                 config.degrade_mtbf, config.degrade_factor,
                 config.degrade_duration, num_nodes);

    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.time != b.time)
                             return a.time < b.time;
                         if (a.kind != b.kind)
                             return a.kind < b.kind;
                         return a.node < b.node;
                     });
    return events;
}

std::array<net::Link *, 2>
LinkEpisodes::targets(const FaultEvent &event) const
{
    SI_ASSERT(event.kind == FaultKind::LinkDegrade,
              "only link degradation degrades links");
    const std::string prefix =
        train::linkPrefix(event.node, ctx_.system.num_nodes);
    return {&ctx_.topo.link(prefix + "host.up"),
            &ctx_.topo.link(prefix + "host.down")};
}

void
LinkEpisodes::change(const FaultEvent &event, bool restore)
{
    for (net::Link *link : targets(event)) {
        std::vector<double> &mults = mults_[link];
        if (restore) {
            const auto it =
                std::find(mults.begin(), mults.end(), event.factor);
            SI_ASSERT(it != mults.end(), "restoring an episode never applied");
            mults.erase(it);
        } else {
            mults.push_back(event.factor);
        }
        double factor = 1.0;
        for (const double m : mults)
            factor *= m;
        link->setCapacityFactor(factor);
        ctx_.net.linkCapacityChanged(link);
    }
}

} // namespace smartinf::fault
