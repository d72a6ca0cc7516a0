/**
 * @file
 * Shared simulation substrate for one workload run: the event queue, the
 * flow network, the link registry, the task graph, and the traffic ledger
 * every participating node accumulates into. One SimContext is rebuilt per
 * Engine::run(); every node of a multi-node workload builds into the same
 * context so all flows contend in one fluid-flow model.
 */
#ifndef SMARTINF_TRAIN_SIM_CONTEXT_H
#define SMARTINF_TRAIN_SIM_CONTEXT_H

#include <vector>

#include "net/flow_network.h"
#include "net/topology.h"
#include "sim/task_graph.h"
#include "train/system_config.h"
#include "train/traffic_ledger.h"

namespace smartinf::obs {
class RunObservation;
}

namespace smartinf::train {

struct SimContext;

/**
 * A route resolved once against a context's topology, for every transfer
 * that takes it, with the fixed latency its transfers pay before moving
 * bytes (`nic_latency` on the inter-node ring, `transfer_latency`
 * elsewhere). Its owner (a PhaseBuilder, or the context for the inter-node
 * ring) keeps it at a fixed address for the whole run, so a transfer task
 * stores only a pointer to it and its byte count.
 */
struct ResolvedRoute : sim::TransferRoute {
    SimContext *ctx = nullptr;
    net::Route links;
    Seconds latency = 0.0;
};

/**
 * Shared simulation substrate for one workload run. It is its task graph's
 * TransferSeam: transfer tasks start and revoke their flows on its network.
 */
struct SimContext final : sim::TransferSeam {
    explicit SimContext(const SystemConfig &system)
        : system(system), net(sim), graph(sim, this)
    {
    }
    /** Routes and in-flight events hold this context's address. */
    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    const SystemConfig &system;
    sim::Simulator sim;
    net::FlowNetwork net;
    net::Topology topo;
    sim::TaskGraph graph;
    TrafficLedger traffic;

    /**
     * Per-run observability recorder, or nullptr (the default — engines
     * only set it while an obs::Observation session is installed). Layers
     * with semantic events the sim/net hooks cannot see (the serve
     * scheduler and builders) report through it when non-null. Purely
     * passive: never affects tasks, flows, or timing.
     */
    obs::RunObservation *obs = nullptr;

    /**
     * True while a fault-injecting workload drives this context: the
     * workload then opens a revocation domain per revocable unit of work,
     * and revoking one cancels its in-flight flows. Off by default:
     * fault-free runs open no domain and stay bit-identical.
     */
    bool faults_armed = false;

    /**
     * Hop routes of the inter-node ring (node i -> i + 1), resolved by the
     * first ring all-reduce scheduled on this context and reused by every
     * later one (dist::scheduleRingAllReduce).
     */
    std::vector<ResolvedRoute> ring_routes;

    /** Add a flow-transfer task over @p route, which must outlive the
     *  run (see ResolvedRoute). */
    sim::TaskGraph::TaskId transfer(const ResolvedRoute &route, Bytes bytes,
                                    sim::TaskLabel label = {});

    /** sim::TransferSeam: a flow over a ResolvedRoute, on net. */
    uint64_t startTransfer(const sim::TransferRoute &route, Bytes bytes,
                           sim::Notify done) override;
    void cancelTransfer(uint64_t flow) override;
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_SIM_CONTEXT_H
