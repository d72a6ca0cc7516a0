#include "train/sim_context.h"

#include "common/logging.h"

namespace smartinf::train {

sim::TaskGraph::TaskId
SimContext::transfer(const ResolvedRoute &route, Bytes bytes,
                     sim::TaskLabel label)
{
    SI_ASSERT(route.ctx == this, "route resolved against another context");
    return graph.add(
        [r = &route, bytes](std::function<void()> done) {
            SimContext &ctx = *r->ctx;
            ctx.startTaskFlow(r->links, bytes, std::move(done),
                              ctx.system.calib.transfer_latency);
        },
        label);
}

void
SimContext::startTaskFlow(const net::Route &links, Bytes bytes,
                          std::function<void()> done, Seconds latency)
{
    if (!faults_armed) {
        net.startFlow(links, bytes, std::move(done), latency);
        return;
    }
    // Revocation seam: pull this flow back out of the network if the
    // launching task's domain is revoked (node crash mid-transfer).
    const sim::TaskGraph::TaskId tid = graph.launchingTask();
    const net::FlowId fid =
        net.startFlow(links, bytes, std::move(done), latency);
    graph.setCanceller(tid, [this, fid]() { net.cancelFlow(fid); });
}

} // namespace smartinf::train
