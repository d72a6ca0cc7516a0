/**
 * @file
 * Collective communication for data-parallel scale-out, in performance form
 * only: the ring all-reduce of data-parallel gradient sync, expressed as
 * flow tasks over net::Topology NIC links ("n<i>.nic.tx"/"n<i>.nic.rx" from
 * train::buildNicLinks). Each hop also traverses the endpoint nodes' shared
 * host interconnect, so collective traffic contends with PCIe
 * storage-offload traffic in the same max-min fluid-flow model.
 *
 * Wire-byte accounting is analytic and checkable: a ring all-reduce moves
 * 2(N-1)/N * buffer bytes out of every node.
 */
#ifndef SMARTINF_DIST_COLLECTIVE_H
#define SMARTINF_DIST_COLLECTIVE_H

#include <string>
#include <vector>

#include "sim/task_graph.h"
#include "train/iteration_builder.h"

namespace smartinf::dist {

// ---- analytic wire-byte accounting ------------------------------------------

/** Egress bytes per node of a ring all-reduce over @p buffer bytes. */
Bytes ringAllReduceTxBytesPerNode(Bytes buffer, int nodes);

// ---- performance layer: flow schedules --------------------------------------

/** Handle to one scheduled all-reduce in a SimContext's task graph. */
struct CollectiveSchedule {
    /** Completes when every node holds its result. */
    sim::TaskGraph::TaskId done = sim::TaskGraph::kInvalidTask;
    /** NIC egress bytes each node contributes (== the analytic formula). */
    Bytes tx_bytes_per_node = 0.0;
    /** Ring steps scheduled: 2(N-1). */
    int steps = 0;
};

/**
 * Append a ring all-reduce over @p bytes to @p ctx's task graph. Node i's
 * first hop waits on @p deps[i] (pass an empty vector to start immediately).
 * In ring step s node i sends one bytes/N chunk to node (i+1) % N; step s+1
 * on node i waits for its own step-s send (NIC serialization) and for the
 * chunk arriving from node i-1 (data dependency). NIC traffic is accounted
 * into ctx.traffic.internode_tx/rx. A 1-node all-reduce is a no-op barrier
 * moving zero bytes.
 */
CollectiveSchedule
scheduleRingAllReduce(train::SimContext &ctx, int nodes, Bytes bytes,
                      const std::vector<sim::TaskGraph::TaskId> &deps,
                      sim::TaskLabel label);

} // namespace smartinf::dist

#endif // SMARTINF_DIST_COLLECTIVE_H
