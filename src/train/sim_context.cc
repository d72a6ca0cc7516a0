#include "train/sim_context.h"

#include "common/logging.h"

namespace smartinf::train {

sim::TaskGraph::TaskId
SimContext::transfer(const ResolvedRoute &route, Bytes bytes,
                     sim::TaskLabel label)
{
    SI_ASSERT(route.ctx == this, "route resolved against another context");
    return graph.transfer(route, bytes, label);
}

uint64_t
SimContext::startTransfer(const sim::TransferRoute &route, Bytes bytes,
                          sim::Notify done)
{
    // Every route this context's graph carries came through transfer().
    const auto &resolved = static_cast<const ResolvedRoute &>(route);
    return net.startFlow(resolved.links, bytes, done, resolved.latency);
}

void
SimContext::cancelTransfer(uint64_t flow)
{
    net.cancelFlow(flow);
}

} // namespace smartinf::train
