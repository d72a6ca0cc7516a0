#include "ctrl/dispatch.h"

#include "common/logging.h"

namespace smartinf::ctrl {

namespace {

int
pickJoinShortestQueue(const std::vector<int> &candidates,
                      const std::vector<int> &loads, Rng &rng)
{
    int best_load = loads[0];
    std::uint64_t tied = 0;
    for (const int load : loads) {
        if (load < best_load) {
            best_load = load;
            tied = 0;
        }
        tied += load == best_load;
    }
    // Draw among the tied minimum set, in candidate order; a single
    // winner costs no draw, so a heterogeneous fleet consumes the stream
    // only when it is genuinely ambiguous.
    std::uint64_t pick = tied == 1 ? 0 : rng.uniformInt(tied);
    for (std::size_t i = 0;; ++i)
        if (loads[i] == best_load && pick-- == 0)
            return candidates[i];
}

int
pickPowerOfTwoChoices(const std::vector<int> &candidates,
                      const std::vector<int> &loads, Rng &rng)
{
    const std::uint64_t n = candidates.size();
    if (n == 1)
        return candidates[0]; // no choice, no draw
    // Two distinct probes: the second is drawn from the remaining n-1
    // slots and shifted past the first, so both draws are uniform and the
    // probe pair never degenerates.
    const std::uint64_t i = rng.uniformInt(n);
    std::uint64_t j = rng.uniformInt(n - 1);
    if (j >= i)
        ++j;
    // Strictly-shorter wins; a tie keeps the first probe (deterministic,
    // no extra draw).
    return loads[j] < loads[i] ? candidates[j] : candidates[i];
}

} // namespace

int
pickReplica(DispatchPolicy policy, int request_id,
            const std::vector<int> &candidates,
            const std::vector<int> &loads, Rng &rng)
{
    SI_ASSERT(!candidates.empty(), "pickReplica with no candidates");
    SI_ASSERT(candidates.size() == loads.size(),
              "candidate/load vectors disagree");
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        // Over the full fleet this is exactly the legacy `id % N` shard.
        return candidates[static_cast<std::size_t>(request_id) %
                          candidates.size()];
      case DispatchPolicy::JoinShortestQueue:
        return pickJoinShortestQueue(candidates, loads, rng);
      case DispatchPolicy::PowerOfTwoChoices:
        return pickPowerOfTwoChoices(candidates, loads, rng);
    }
    SI_ASSERT(false, "unreachable dispatch policy");
    return candidates[0];
}

} // namespace smartinf::ctrl
