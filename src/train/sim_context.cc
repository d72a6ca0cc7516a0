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
            const Seconds latency = ctx.system.calib.transfer_latency;
            if (ctx.faults_armed) {
                // Revocation seam: remember how to pull this flow back
                // out of the network if the launching task's domain is
                // revoked (node crash mid-transfer).
                const sim::TaskGraph::TaskId tid = ctx.graph.launchingTask();
                const net::FlowId fid = ctx.net.startFlow(
                    r->links, bytes, std::move(done), latency);
                ctx.graph.setCanceller(
                    tid, [&ctx, fid]() { ctx.net.cancelFlow(fid); });
                return;
            }
            ctx.net.startFlow(r->links, bytes, std::move(done), latency);
        },
        label);
}

} // namespace smartinf::train
