#include "dist/collective.h"

#include <utility>

#include "common/logging.h"
#include "train/system_builder.h"

namespace smartinf::dist {

// ---- analytic wire-byte accounting ------------------------------------------

Bytes
ringAllReduceTxBytesPerNode(Bytes buffer, int nodes)
{
    SI_REQUIRE(nodes >= 1, "need at least one node");
    // Reduce-scatter then all-gather, each (N-1)/N of the buffer.
    return 2.0 * ((nodes - 1) * (buffer / nodes));
}

// ---- performance layer: flow schedules --------------------------------------

CollectiveSchedule
scheduleRingAllReduce(train::SimContext &ctx, int nodes, Bytes bytes,
                      const std::vector<sim::TaskGraph::TaskId> &deps,
                      sim::TaskLabel label)
{
    using TaskId = sim::TaskGraph::TaskId;
    SI_REQUIRE(nodes >= 1, "need at least one node");
    SI_REQUIRE(bytes >= 0.0, "negative collective size");
    SI_REQUIRE(deps.empty() || static_cast<int>(deps.size()) == nodes,
               "need one gating dependency per node (or none)");

    CollectiveSchedule out;
    out.done = ctx.graph.barrier(label);
    if (nodes == 1) {
        // Degenerate ring: nothing crosses the fabric, but the barrier
        // still sequences against the gating dependencies.
        if (!deps.empty())
            ctx.graph.dependsOn(out.done, deps[0]);
        return out;
    }

    out.steps = 2 * (nodes - 1);
    const Bytes chunk = bytes / nodes;

    // One flow per (step, sender) over the sender's hop route. It crosses
    // the sender's shared host interconnect (gradients live in host DRAM),
    // its NIC egress, the receiver's NIC ingress, and the receiver's host
    // interconnect — so collective traffic and storage-offload traffic
    // contend end to end. The hops are resolved once per context.
    if (ctx.ring_routes.empty()) {
        for (int i = 0; i < nodes; ++i) {
            const std::string src = train::nodePrefix(i);
            const std::string dst = train::nodePrefix((i + 1) % nodes);
            ctx.ring_routes.push_back(
                {{},
                 &ctx,
                 {&ctx.topo.link(src + "host.down"),
                  &ctx.topo.link(src + "nic.tx"),
                  &ctx.topo.link(dst + "nic.rx"),
                  &ctx.topo.link(dst + "host.up")},
                 ctx.system.nic_latency});
        }
    }
    SI_REQUIRE(static_cast<int>(ctx.ring_routes.size()) == nodes,
               "a context holds one ring: ", ctx.ring_routes.size(),
               " nodes, not ", nodes);
    std::vector<TaskId> prev_step(nodes, sim::TaskGraph::kInvalidTask);
    std::vector<TaskId> cur_step(nodes, sim::TaskGraph::kInvalidTask);
    for (int s = 0; s < out.steps; ++s) {
        for (int i = 0; i < nodes; ++i) {
            // Hop labels carry (step, sender); which bucket they belong
            // to is the enclosing label's concern.
            const TaskId hop =
                ctx.transfer(ctx.ring_routes[i], chunk, {"sync.hop", s, i});
            if (s == 0) {
                if (!deps.empty())
                    ctx.graph.dependsOn(hop, deps[i]);
            } else {
                // NIC serialization: one send in flight per node per step.
                ctx.graph.dependsOn(hop, prev_step[i]);
                // Data dependency: the chunk forwarded in step s arrived
                // from the ring predecessor in step s-1.
                ctx.graph.dependsOn(hop, prev_step[(i - 1 + nodes) % nodes]);
            }
            cur_step[i] = hop;
        }
        std::swap(prev_step, cur_step);
    }
    for (int i = 0; i < nodes; ++i)
        ctx.graph.dependsOn(out.done, prev_step[i]);

    out.tx_bytes_per_node = out.steps * chunk;
    ctx.traffic.internode_tx += nodes * out.tx_bytes_per_node;
    ctx.traffic.internode_rx += nodes * out.tx_bytes_per_node;
    return out;
}

} // namespace smartinf::dist
